#pragma once

#include <cstdint>
#include <vector>

#include "obs/metrics.hpp"

/// \file rolling.hpp
/// Windowed latency tracking: a RollingHistogram is a ring of log2-histogram
/// epochs.  Each record lands in the epoch covering "now"; reading merges
/// the epochs still inside the window into one HistogramEntry, so the
/// merged view approximates "the last window_ms of samples" with at most
/// one epoch of slack.  Combined with HistogramEntry::quantile() this gives
/// p50/p90/p99 over a sliding window without storing samples.
///
/// Not internally synchronized: the MetricsRegistry guards its rolling
/// histograms with its own mutex, and the server guards its per-op,
/// per-class and per-lane instances with its telemetry mutex (every lane
/// records into them).  Callers pass their own clock (milliseconds, any
/// monotonic origin) so tests can drive rotation deterministically.

namespace netpart::obs {

struct RollingConfig {
  std::int64_t window_ms = 60000;  ///< total span the merged view covers
  std::size_t epochs = 6;          ///< ring size; rotation = window/epochs
};

class RollingHistogram {
 public:
  explicit RollingHistogram(RollingConfig config = {});

  /// Record one sample at time `now_ms` (rotates stale epochs first).
  void record(double value, std::int64_t now_ms);

  /// Merge every epoch still inside the window at `now_ms` into one
  /// HistogramEntry (name left empty).  Epochs older than the window are
  /// skipped, not cleared — record() owns mutation.
  [[nodiscard]] HistogramEntry merged(std::int64_t now_ms) const;

  [[nodiscard]] std::int64_t window_ms() const { return config_.window_ms; }

 private:
  struct Epoch {
    std::int64_t index = -1;  ///< epoch number (now / epoch_ms); -1 = empty
    HistogramEntry hist;
  };

  [[nodiscard]] std::int64_t epoch_index(std::int64_t now_ms) const {
    return now_ms / epoch_ms_;
  }

  RollingConfig config_;
  std::int64_t epoch_ms_;
  std::vector<Epoch> ring_;
};

}  // namespace netpart::obs
