#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

/// \file profiler.hpp
/// Span-attributed sampling profiler.  A SIGPROF/ITIMER_PROF tick handler
/// snapshots every registered thread's current obs-span path (maintained by
/// ScopedSpan, metrics.hpp) and accumulates span-path -> sample counts.  No
/// native stack unwinding happens: the "stack" is the span path the code
/// itself declares, which is portable, async-signal-safe, and cannot perturb
/// the deterministic pipeline results the way instrumentation-based
/// profilers can.
///
/// Unlike the MetricsRegistry span tree (owned by one thread, worker spans
/// dropped), the profiler keeps one span stack per thread, so samples landing
/// in pool workers are attributed to whatever span the worker opened.
///
/// All hot-path operations are lock-free and allocation-free:
///  - push/pop of span frames uses a per-thread seqlock over fixed storage;
///  - the tick handler reads those stacks with bounded seqlock retries and
///    folds paths into a preallocated open-addressed hash table with atomic
///    slots.  Samples that cannot be placed (torn read, table full) are
///    counted, never silently lost.

namespace netpart::obs {

/// Aggregated profile at one point in time.  `paths` maps each distinct
/// span path ("run-partitioner;igmatch;ordering") to its sample count,
/// sorted by path so exports are deterministic.
struct ProfileSnapshot {
  std::int64_t total_samples = 0;         ///< timer ticks handled
  std::int64_t unattributed_samples = 0;  ///< ticks with no open span anywhere
  std::int64_t torn_samples = 0;          ///< seqlock retries exhausted
  std::int64_t dropped_samples = 0;       ///< aggregation table full
  std::int64_t interval_us = 0;           ///< sampling period (0 = manual)
  std::vector<std::pair<std::string, std::int64_t>> paths;

  [[nodiscard]] bool empty() const { return total_samples == 0; }
  /// Fraction of ticks that landed on a named span path, in [0, 1].
  [[nodiscard]] double attribution() const {
    return total_samples > 0
               ? static_cast<double>(total_samples - unattributed_samples) /
                     static_cast<double>(total_samples)
               : 0.0;
  }
  /// Brendan Gregg folded-stack text: one `a;b;c COUNT` line per distinct
  /// path, sorted, with unattributed ticks under `(unattributed)`.  Feed to
  /// flamegraph.pl or speedscope.
  [[nodiscard]] std::string to_folded() const;
  /// JSON object for the `"profile"` section of a metrics snapshot.
  [[nodiscard]] std::string to_json() const;
};

/// Process-wide sampling profiler.  Lifecycle: start() arms the span-stack
/// hooks (and the ITIMER_PROF timer unless interval_us == 0), stop()
/// disarms; snapshot() may be called at any time, including mid-run.
class Profiler {
 public:
  static Profiler& instance();

  /// Begin a profile session: clears previous samples, arms the per-thread
  /// span-stack hooks, and (for interval_us > 0) starts ITIMER_PROF firing
  /// SIGPROF every interval_us microseconds of process CPU time.  With
  /// interval_us == 0 the hooks are armed but no timer runs — samples are
  /// then taken only via sample_now() (tests, overhead benches).  Returns
  /// false if already running or the timer could not be armed.
  bool start(std::int64_t interval_us = 1000);

  /// Disarm the timer and the span-stack hooks.  Accumulated samples are
  /// kept for snapshot() until the next start().
  void stop();

  [[nodiscard]] bool running() const {
    return running_.load(std::memory_order_acquire);
  }

  /// Take one sample synchronously (same code path as the signal handler).
  /// Deterministic alternative to waiting for timer ticks.
  void sample_now();

  /// Copy out the aggregation table.  Safe while running.
  [[nodiscard]] ProfileSnapshot snapshot() const;

  // --- span-stack hooks, called by ScopedSpan on every thread ------------

  [[nodiscard]] static bool frames_armed() {
    return frames_armed_.load(std::memory_order_relaxed);
  }
  /// Push `name` onto the calling thread's profiler span stack (truncated
  /// and sanitized for the folded format; registers the thread on first
  /// use).  Must be balanced by pop_frame().
  static void push_frame(std::string_view name);
  static void pop_frame();

 private:
  Profiler() = default;

  static std::atomic<bool> frames_armed_;
  std::atomic<bool> running_{false};
  std::int64_t interval_us_ = 0;
  bool timer_armed_ = false;
};

}  // namespace netpart::obs
