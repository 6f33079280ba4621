#pragma once

#include <cstdint>
#include <vector>

/// \file gain_buckets.hpp
/// The Fiduccia-Mattheyses bucket-list structure: constant-time insert,
/// remove and gain update, with a max-gain pointer that only ever moves
/// down between rebucketings.  Gains are bounded by the maximum module
/// degree, so the bucket array is small.

namespace netpart {

/// Bucket list over items 0..num_items-1 with integer gains in
/// [-max_gain, +max_gain].  Items are chained LIFO within a bucket (the
/// classic FM tie-breaking choice).
class GainBuckets {
 public:
  GainBuckets(std::int32_t num_items, std::int32_t max_gain);

  // The four mutators are inline: FM calls them once per touched pin on
  // every move, so at dense coarse levels they are the inner loop.

  /// Insert `item` with `gain`.  Precondition: not currently contained.
  void insert(std::int32_t item, std::int32_t gain) {
    if (contains(item)) throw_double_insert();
    const std::int32_t b = bucket_of_gain(gain);
    const std::int32_t old_head = heads_[static_cast<std::size_t>(b)];
    next_[static_cast<std::size_t>(item)] = old_head;
    prev_[static_cast<std::size_t>(item)] = -1;
    if (old_head != -1) prev_[static_cast<std::size_t>(old_head)] = item;
    heads_[static_cast<std::size_t>(b)] = item;
    where_[static_cast<std::size_t>(item)] = b;
    if (b > max_bucket_) max_bucket_ = b;
    ++size_;
  }

  /// Remove `item`.  Precondition: currently contained.
  void remove(std::int32_t item) {
    const std::int32_t b = where_[static_cast<std::size_t>(item)];
    if (b == kAbsent) throw_absent_remove();
    const std::int32_t p = prev_[static_cast<std::size_t>(item)];
    const std::int32_t n = next_[static_cast<std::size_t>(item)];
    if (p != -1)
      next_[static_cast<std::size_t>(p)] = n;
    else
      heads_[static_cast<std::size_t>(b)] = n;
    if (n != -1) prev_[static_cast<std::size_t>(n)] = p;
    where_[static_cast<std::size_t>(item)] = kAbsent;
    --size_;
  }

  /// Change the gain of a contained `item` (re-links its bucket).
  void update(std::int32_t item, std::int32_t new_gain) {
    remove(item);
    insert(item, new_gain);
  }

  /// Add `delta` to the gain of `item` if contained; no-op otherwise.
  /// This is the form the FM delta-gain rules want.
  void adjust(std::int32_t item, std::int32_t delta) {
    if (!contains(item) || delta == 0) return;
    update(item, gain_of(item) + delta);
  }

  [[nodiscard]] bool contains(std::int32_t item) const {
    return where_[static_cast<std::size_t>(item)] != kAbsent;
  }

  /// Current gain of a contained item.
  [[nodiscard]] std::int32_t gain_of(std::int32_t item) const {
    return where_[static_cast<std::size_t>(item)] - max_gain_;
  }

  /// Item with the highest gain (most recently inserted among ties), or -1
  /// when empty.
  [[nodiscard]] std::int32_t max_item() const;

  /// Gain of max_item(); undefined when empty.
  [[nodiscard]] std::int32_t max_gain() const;

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::int32_t size() const { return size_; }

 private:
  static constexpr std::int32_t kAbsent = -1;

  [[nodiscard]] std::int32_t bucket_of_gain(std::int32_t gain) const {
    if (gain < -max_gain_ || gain > max_gain_) throw_gain_out_of_range();
    return gain + max_gain_;
  }

  [[noreturn]] static void throw_double_insert();
  [[noreturn]] static void throw_absent_remove();
  [[noreturn]] static void throw_gain_out_of_range();

  std::int32_t max_gain_;
  std::vector<std::int32_t> heads_;  // bucket index -> first item or -1
  std::vector<std::int32_t> next_;   // item -> next in bucket or -1
  std::vector<std::int32_t> prev_;   // item -> previous in bucket or -1
  std::vector<std::int32_t> where_;  // item -> bucket index, kAbsent if out
  mutable std::int32_t max_bucket_ = -1;  // upper bound, lazily decreased
  std::int32_t size_ = 0;
};

}  // namespace netpart
