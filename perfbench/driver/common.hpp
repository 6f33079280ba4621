#pragma once

/// Shared plumbing of the perfbench driver: clocks, the seeded RNG every
/// workload derives its inputs from, a minimal JSON writer for the raw
/// result document, and process memory probes.

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include <sys/types.h>

#include "hypergraph/hypergraph.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

[[nodiscard]] inline double ms_since(Clock::time_point a) {
  return ms_between(a, Clock::now());
}

/// Times one call of fn() in milliseconds.
template <typename Fn>
double time_ms(Fn&& fn) {
  const auto start = Clock::now();
  fn();
  return ms_since(start);
}

/// SplitMix64: tiny, seedable, identical on every platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  std::int64_t below(std::int64_t n) {
    return static_cast<std::int64_t>(next() % static_cast<std::uint64_t>(n));
  }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

/// Seeded ECO edit generator over one netlist: 70% add-net over 2-4 nearby
/// module ids (the circuit generator numbers each leaf cluster
/// contiguously), 30% remove-net of an original net.  A net is removed at
/// most once, so no edit depends on whether an earlier one was applied, and
/// only when each of its modules keeps at least two other nets, so edits
/// never strand a module (which would make a zero-cut partition trivial).
class EcoEdits {
 public:
  explicit EcoEdits(const netpart::Hypergraph& h);
  /// One edit-script line; `name` names an added net.
  std::string next(const std::string& name, std::int64_t window, Rng& rng);

 private:
  const netpart::Hypergraph& h_;
  std::vector<std::int32_t> degree_;
  std::vector<char> removed_;
};

/// Command-line arguments common to every workload.
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string netpartd;  ///< serve_mix: path of the daemon binary
  std::string workdir;   ///< scratch directory inside the checkout
  std::string out;       ///< raw result document
  int setup_reps = 3;
};

/// In-memory span recorder for traced runs: one span per public call the
/// benchmark makes into a layer, written out once the run is over.
class SpanLog {
 public:
  struct Span {
    std::string name;
    std::string trace;  ///< groups the spans of one request or item
    std::int32_t parent = -1;
    double start_us = 0.0;
    double end_us = 0.0;
  };

  /// An open span; close() ends it and returns its duration in ms.  When
  /// the log is null nothing is recorded but the duration is still timed.
  class Scope {
   public:
    Scope(SpanLog* log, std::string name, std::string trace = {},
          std::int32_t parent = -1);
    double close();
    [[nodiscard]] std::int32_t id() const { return id_; }

   private:
    SpanLog* log_;
    std::int32_t id_ = -1;
    Clock::time_point start_;
  };

  [[nodiscard]] std::size_t size() const { return spans_.size(); }
  [[nodiscard]] std::string json() const;

 private:
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

/// Minimal streaming JSON writer (numbers printed with %.17g, so doubles
/// round-trip exactly).
class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();
  JsonWriter& key(std::string_view k);
  JsonWriter& value(double v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }
  JsonWriter& value(bool v);
  JsonWriter& value(std::string_view v);
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }
  /// key + value in one call.
  template <typename T>
  JsonWriter& field(std::string_view k, const T& v) {
    key(k);
    return value(v);
  }
  JsonWriter& field_array(std::string_view k, const std::vector<double>& v);
  [[nodiscard]] const std::string& str() const { return out_; }

 private:
  void separate();
  std::string out_;
  std::vector<bool> first_;
  bool after_key_ = false;
};

/// Answer checks of one run: every miss fails the run.
struct Checks {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> messages;  ///< the first few misses

  void require(bool ok, const std::string& what);
  void write(JsonWriter& w) const;
};

[[nodiscard]] std::string json_escape(std::string_view s);

/// VmHWM (peak resident set) of a process in MiB; `pid` 0 = this process.
[[nodiscard]] double peak_rss_mb(pid_t pid = 0);

/// Writes `text` to `path`; false on failure.
bool write_file(const std::string& path, const std::string& text);

}  // namespace perfbench
