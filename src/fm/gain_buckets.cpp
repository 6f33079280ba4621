#include "fm/gain_buckets.hpp"

#include <stdexcept>

namespace netpart {

namespace {
std::int32_t checked_max_gain(std::int32_t max_gain) {
  if (max_gain < 0)
    throw std::invalid_argument("GainBuckets: negative max_gain");
  return max_gain;
}
}  // namespace

GainBuckets::GainBuckets(std::int32_t num_items, std::int32_t max_gain)
    : max_gain_(checked_max_gain(max_gain)),
      heads_(static_cast<std::size_t>(2 * max_gain_ + 1), -1),
      next_(static_cast<std::size_t>(num_items), -1),
      prev_(static_cast<std::size_t>(num_items), -1),
      where_(static_cast<std::size_t>(num_items), kAbsent) {}

void GainBuckets::throw_double_insert() {
  throw std::logic_error("GainBuckets: double insert");
}

void GainBuckets::throw_absent_remove() {
  throw std::logic_error("GainBuckets: remove of absent");
}

void GainBuckets::throw_gain_out_of_range() {
  throw std::out_of_range("GainBuckets: gain out of range");
}

std::int32_t GainBuckets::max_item() const {
  if (size_ == 0) return -1;
  while (max_bucket_ >= 0 &&
         heads_[static_cast<std::size_t>(max_bucket_)] == -1)
    --max_bucket_;
  return max_bucket_ >= 0 ? heads_[static_cast<std::size_t>(max_bucket_)]
                          : -1;
}

std::int32_t GainBuckets::max_gain() const {
  const std::int32_t item = max_item();
  if (item == -1) throw std::logic_error("GainBuckets: max_gain of empty");
  return max_bucket_ - max_gain_;
}

}  // namespace netpart
