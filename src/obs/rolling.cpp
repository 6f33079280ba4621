#include "obs/rolling.hpp"

#include <algorithm>

namespace netpart::obs {

RollingHistogram::RollingHistogram(RollingConfig config) : config_(config) {
  constexpr auto epochs = static_cast<std::int64_t>(kRollingEpochs);
  if (config_.window_ms < epochs) config_.window_ms = epochs;
  epoch_ms_ = config_.window_ms / epochs;
  ring_.resize(kRollingEpochs);
}

void RollingHistogram::record(double value, std::int64_t now_ms) {
  const std::int64_t index = epoch_index(now_ms);
  Epoch& slot = ring_[static_cast<std::size_t>(
      index % static_cast<std::int64_t>(ring_.size()))];
  if (slot.index != index) {
    slot.index = index;
    slot.hist = HistogramEntry{};
  }
  histogram_record(slot.hist, value);
}

HistogramEntry RollingHistogram::merged(std::int64_t now_ms) const {
  // Epochs with index in (current - epochs, current] are inside the window;
  // anything older is a stale slot record() has not recycled yet.
  const std::int64_t current = epoch_index(now_ms);
  const std::int64_t oldest = current - static_cast<std::int64_t>(ring_.size()) + 1;
  HistogramEntry out;
  for (const Epoch& epoch : ring_) {
    if (epoch.index < oldest || epoch.index > current || epoch.hist.count == 0)
      continue;
    if (out.count == 0) {
      out.min = epoch.hist.min;
      out.max = epoch.hist.max;
    } else {
      out.min = std::min(out.min, epoch.hist.min);
      out.max = std::max(out.max, epoch.hist.max);
    }
    out.count += epoch.hist.count;
    out.sum += epoch.hist.sum;
    for (std::size_t b = 0; b < kHistogramBuckets; ++b)
      out.buckets[b] += epoch.hist.buckets[b];
  }
  return out;
}

}  // namespace netpart::obs
