#include "server/result_cache.hpp"

#include <utility>

#include "hypergraph/content_hash.hpp"

namespace netpart::server {

std::uint64_t repartition_config_hash(
    const repart::RepartitionOptions& options) {
  Fnv1a fnv;
  fnv.add_string("igmatch/repartition-v1");
  fnv.add_i32(static_cast<std::int32_t>(options.weighting));
  fnv.add_double(options.lanczos.tolerance);
  fnv.add_u64(options.lanczos.seed);
  fnv.add_i32(options.vcycle_threshold);
  fnv.add_i32(options.vcycle.coarsen_to);
  fnv.add_i32(options.vcycle.vcycles);
  return fnv.digest();
}

ResultCache::ResultCache(std::size_t capacity) : capacity_(capacity) {}

std::shared_ptr<const CachedResult> ResultCache::find(const CacheKey& key) {
  if (capacity_ == 0) return nullptr;
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(key);
  if (it == index_.end()) {
    ++misses_;
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  ++hits_;
  return it->second->second;
}

bool ResultCache::contains(const CacheKey& key) const {
  if (capacity_ == 0) return false;
  const std::lock_guard<std::mutex> lock(mutex_);
  return index_.find(key) != index_.end();
}

void ResultCache::insert(const CacheKey& key, CachedResult value) {
  if (capacity_ == 0) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  if (const auto it = index_.find(key); it != index_.end()) {
    // Refresh: deterministic recomputation produced the same answer, but a
    // collision may not have — last writer wins either way.
    it->second->second = std::make_shared<const CachedResult>(std::move(value));
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.emplace_front(key, std::make_shared<const CachedResult>(std::move(value)));
  index_[key] = lru_.begin();
  while (lru_.size() > capacity_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
    ++evictions_;
  }
}

void ResultCache::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  lru_.clear();
  index_.clear();
}

std::size_t ResultCache::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return lru_.size();
}

std::int64_t ResultCache::hits() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return hits_;
}

std::int64_t ResultCache::misses() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return misses_;
}

std::int64_t ResultCache::evictions() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return evictions_;
}

}  // namespace netpart::server
