#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/profiler.hpp"

/// \file metrics.hpp
/// Pipeline observability: scoped phase timers forming a trace tree, named
/// monotonic counters, gauges, and log2-bucketed histograms, all collected
/// into a process-wide MetricsRegistry that serializes one run to JSON.
///
/// Design constraints (see docs/OBSERVABILITY.md):
///  - Near-zero cost when off.  Instrumentation sites use the NETPART_*
///    macros below, each gated on a single relaxed-atomic bool, so a
///    disabled registry costs one predictable branch per site.
///  - Counters, gauges and histograms are thread-safe (the FM multi-start
///    engine records from worker threads).  Spans model the orchestrating
///    thread's call structure: the thread that calls set_enabled(true)
///    owns the trace tree, and begin/end_span calls from any other thread
///    (e.g. pool workers running bipartitions inside multiway waves) are
///    dropped.  This keeps the tree shape deterministic no matter how work
///    is scheduled.
///  - Repeated spans with the same name under the same parent merge into a
///    single node (wall time accumulates, count increments), so per-split
///    spans inside the IG-Match sweep stay O(distinct phases), not O(m).
///
/// Naming convention: dot-separated lowercase paths, `subsystem.metric`,
/// e.g. `lanczos.iterations`, `igmatch.augmenting_paths`, `fm.passes`.

namespace netpart::obs {

/// One node of the trace tree.  `count` is the number of merged
/// begin/end pairs; `wall_ms` their accumulated wall time.
struct SpanNode {
  std::string name;
  double wall_ms = 0.0;
  std::int64_t count = 0;
  std::vector<SpanNode> children;
};

struct CounterEntry {
  std::string name;
  std::int64_t value = 0;
};

struct GaugeEntry {
  std::string name;
  double value = 0.0;
};

/// Histogram with power-of-two buckets: bucket 0 counts values < 1,
/// bucket i >= 1 counts values in [2^(i-1), 2^i), the last bucket is
/// open-ended.  Enough resolution to see the shape of per-split repair
/// costs without storing samples.
inline constexpr std::size_t kHistogramBuckets = 20;

struct HistogramEntry {
  std::string name;
  std::int64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  std::array<std::int64_t, kHistogramBuckets> buckets{};

  [[nodiscard]] double mean() const {
    return count > 0 ? sum / static_cast<double>(count) : 0.0;
  }

  /// Estimated value at quantile q in [0, 1], interpolated linearly inside
  /// the log2 bucket holding the rank and clamped to [min, max].  The
  /// estimate can never be off by more than one bucket, i.e. a factor of
  /// two of the true sample quantile (tests/obs_test.cpp pins the bound).
  [[nodiscard]] double quantile(double q) const;
};

/// Fold one sample into a HistogramEntry (count/sum/min/max + log2 bucket).
/// Shared by the registry's cumulative histograms and RollingHistogram.
void histogram_record(HistogramEntry& h, double value);

/// One rolling histogram's windowed view at snapshot time: the merge of
/// every epoch still inside the window (see rolling.hpp).
///
/// A producer may attach an exemplar — one recent traced sample near the
/// window's tail — which the Prometheus exporter renders as an
/// OpenMetrics-style `# {trace_id="..."}` annotation on the p99 summary
/// sample so a dashboard quantile links to a concrete request.
struct RollingEntry {
  std::string name;
  std::int64_t window_ms = 0;
  HistogramEntry window;
  std::string exemplar_trace_id;    ///< 32-hex trace_id; empty = none
  double exemplar_value = -1.0;     ///< the exemplar's sample value
  std::int64_t exemplar_ts_ms = 0;  ///< unix ms when it was recorded
};

/// Immutable copy of a registry's state.  Entries are sorted by name — the
/// export order (JSON and Prometheus alike) is deterministic and stable, so
/// repeated exports of one snapshot are byte-identical.
struct MetricsSnapshot {
  std::string run_label;
  std::vector<SpanNode> spans;
  std::vector<CounterEntry> counters;
  std::vector<GaugeEntry> gauges;
  std::vector<HistogramEntry> histograms;
  std::vector<RollingEntry> rolling;
  /// Sampling-profiler aggregate (profiler.hpp); empty unless a profile
  /// session ran, in which case to_json() gains a "profile" section.
  ProfileSnapshot profile;

  [[nodiscard]] bool empty() const {
    return spans.empty() && counters.empty() && gauges.empty() &&
           histograms.empty() && rolling.empty() && profile.empty();
  }
  /// Value of a counter, or 0 if absent.
  [[nodiscard]] std::int64_t counter(std::string_view name) const;
  /// Serialize as a single-line JSON object (schema: docs/OBSERVABILITY.md).
  [[nodiscard]] std::string to_json() const;
};

/// Escape a string for embedding in a JSON string literal (no quotes added).
[[nodiscard]] std::string json_escape(std::string_view s);

/// Append the shortest round-trippable JSON rendering of `value` (non-finite
/// values become null).  Shared by every obs exporter.
void json_append_number(std::string& out, double value);

/// Process-wide metrics sink.  Disabled (and empty) by default; a run
/// driver (CLI, bench, test) enables it, resets it, runs, and snapshots.
class MetricsRegistry {
 public:
  static MetricsRegistry& instance();

  /// Runtime master switch.  While disabled every record call is a no-op.
  /// Enabling also marks the calling thread as the span owner: spans opened
  /// from other threads are dropped (see the file comment).
  void set_enabled(bool enabled);
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Drop all recorded data (spans, counters, gauges, histograms, label).
  /// Any open spans are abandoned.
  void reset();

  /// Free-form label attached to the next snapshot (e.g. "bm1/igmatch").
  void set_run_label(std::string label);

  void add_counter(std::string_view name, std::int64_t delta);
  void set_gauge(std::string_view name, double value);
  void record_histogram(std::string_view name, double value);
  /// Record into a windowed (rolling) histogram — see rolling.hpp.  The
  /// histogram is created on first use with the configured window.
  void record_rolling(std::string_view name, double value);

  /// Window geometry for rolling histograms created *after* this call;
  /// existing ones are dropped (their epochs no longer line up).
  void configure_rolling(std::int64_t window_ms, std::size_t epochs);

  /// When on, every closed span also feeds a rolling histogram named
  /// `phase.<span-name>` with its duration in ms, giving windowed latency
  /// percentiles per pipeline phase.  Off by default (one map lookup per
  /// span close); long-running drivers (netpartd) switch it on.
  void set_rolling_spans(bool enabled);

  /// Open a span as a child of the innermost open span (or at top level).
  /// Spans with the same name under the same parent merge.  No-op when the
  /// calling thread is not the span owner — see the file comment.
  void begin_span(std::string_view name);
  /// Close the innermost open span; no-op when none is open or when the
  /// calling thread is not the span owner.
  void end_span();

  /// Current value of a counter (0 if never touched).
  [[nodiscard]] std::int64_t counter(std::string_view name) const;

  /// Copy out everything recorded since the last reset().
  [[nodiscard]] MetricsSnapshot snapshot() const;

 private:
  MetricsRegistry();
  ~MetricsRegistry();

  /// Holds the RollingHistogram map; defined in metrics.cpp so this header
  /// does not depend on rolling.hpp (which includes it back).
  struct RollingState;

  void record_rolling_locked(const std::string& name, double value);

  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::thread::id span_owner_;  ///< thread that called set_enabled(true)
  std::string run_label_;
  std::vector<SpanNode> roots_;
  /// Path of indices from roots_ to the innermost open span; indices stay
  /// valid because only the innermost node can gain children.
  std::vector<std::size_t> open_path_;
  std::vector<double> open_start_ms_;  // parallel to open_path_
  std::map<std::string, std::int64_t, std::less<>> counters_;
  std::map<std::string, double, std::less<>> gauges_;
  std::map<std::string, HistogramEntry, std::less<>> histograms_;
  std::unique_ptr<RollingState> rolling_;  ///< under mutex_
  bool rolling_spans_ = false;             ///< under mutex_
};

/// RAII wrapper for begin_span/end_span.  Caches the enabled flag at
/// construction so an enable/disable mid-scope cannot unbalance the stack.
/// Also maintains the per-thread profiler span stack (profiler.hpp) while a
/// profile session is armed — on every thread, including pool workers whose
/// registry spans the owner-thread guard drops.
class ScopedSpan {
 public:
  explicit ScopedSpan(std::string_view name)
      : active_(MetricsRegistry::instance().enabled()),
        profiled_(Profiler::frames_armed()) {
    if (active_) MetricsRegistry::instance().begin_span(name);
    if (profiled_) Profiler::push_frame(name);
  }
  ~ScopedSpan() {
    if (profiled_) Profiler::pop_frame();
    if (active_) MetricsRegistry::instance().end_span();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool active_;
  bool profiled_;
};

/// If the NETPART_METRICS_OUT environment variable names a file, enable the
/// registry (benches call this on startup) and return true.
bool enable_from_env();

/// Append one JSON record (label + current snapshot) to the file named by
/// NETPART_METRICS_OUT; no-op when the variable is unset or empty.
void export_to_env_file(std::string_view label);

}  // namespace netpart::obs

// ---------------------------------------------------------------------------
// Instrumentation macros.  These are the only interface production code
// should use to *record*; reading/controlling the registry (CLI, benches,
// tests) goes through MetricsRegistry directly.  Each one is gated on the
// registry's relaxed-atomic enabled flag.
// ---------------------------------------------------------------------------

#define NETPART_CONCAT_IMPL(a, b) a##b
#define NETPART_CONCAT(a, b) NETPART_CONCAT_IMPL(a, b)

/// Time the enclosing scope as a span named `name`.
#define NETPART_SPAN(name) \
  ::netpart::obs::ScopedSpan NETPART_CONCAT(netpart_span_, __LINE__)(name)

#define NETPART_COUNTER_ADD(name, delta)                                   \
  do {                                                                     \
    auto& netpart_obs_reg_ = ::netpart::obs::MetricsRegistry::instance();  \
    if (netpart_obs_reg_.enabled())                                        \
      netpart_obs_reg_.add_counter((name), (delta));                       \
  } while (0)

#define NETPART_GAUGE_SET(name, value)                                     \
  do {                                                                     \
    auto& netpart_obs_reg_ = ::netpart::obs::MetricsRegistry::instance();  \
    if (netpart_obs_reg_.enabled())                                        \
      netpart_obs_reg_.set_gauge((name), (value));                         \
  } while (0)

#define NETPART_HISTOGRAM_RECORD(name, value)                              \
  do {                                                                     \
    auto& netpart_obs_reg_ = ::netpart::obs::MetricsRegistry::instance();  \
    if (netpart_obs_reg_.enabled())                                        \
      netpart_obs_reg_.record_histogram((name), (value));                  \
  } while (0)

#define NETPART_ROLLING_RECORD(name, value)                                \
  do {                                                                     \
    auto& netpart_obs_reg_ = ::netpart::obs::MetricsRegistry::instance();  \
    if (netpart_obs_reg_.enabled())                                        \
      netpart_obs_reg_.record_rolling((name), (value));                    \
  } while (0)
