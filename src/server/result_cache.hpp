#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "repart/session.hpp"

/// \file result_cache.hpp
/// Memoization of cold partitioning runs, keyed by netlist content.
///
/// A cold IG-Match run is a pure function of (netlist content, partitioner
/// configuration) — the whole pipeline is deterministic by the PR 2
/// contract — so its result can be memoized across sessions, clients, and
/// connections.  The cache stores, per key, both the answer (the
/// RepartitionResult) and the exporting session's warm state (its
/// partition), so a hit not only skips the solve but also leaves the
/// hitting session primed exactly as if it had done the work: later ECO
/// repartitions take bit-identical warm paths, flat or V-cycle.
///
/// Only *cold* results may be inserted.  A warm ECO result depends on the
/// session's edit history through the carried-forward partition (which
/// wins the flat path's guard, or seeds the V-cycle path), so the same
/// netlist content reached through different histories can legitimately
/// carry different (equally valid) partitions; memoizing them would make
/// responses history-dependent.  The server enforces this at the single
/// insertion site.
///
/// Keys are 64-bit FNV-1a hashes (hypergraph/content_hash.hpp); a collision
/// returns a stale-but-well-formed result for the colliding content.  All
/// methods are thread-safe.

namespace netpart::server {

struct CacheKey {
  std::uint64_t netlist_hash = 0;
  std::uint64_t config_hash = 0;

  [[nodiscard]] bool operator==(const CacheKey&) const = default;
};

struct CacheKeyHash {
  [[nodiscard]] std::size_t operator()(const CacheKey& key) const {
    // The fields are already FNV digests; a rotate-xor mix suffices.
    return static_cast<std::size_t>(
        key.netlist_hash ^
        (key.config_hash << 31 | key.config_hash >> 33));
  }
};

/// One memoized cold run.
struct CachedResult {
  repart::RepartitionResult result;
  repart::SessionWarmState warm;
};

/// Hash of the RepartitionOptions fields that influence results: the
/// weighting, the Lanczos tolerance and seed, and the V-cycle threshold,
/// coarsening floor and cycle count that netpartd's flags set.  The other
/// MultilevelOptions fields keep their defaults in the server and are not
/// folded.  Folded into every cache key so a configuration change can never
/// serve results computed under another configuration.
[[nodiscard]] std::uint64_t repartition_config_hash(
    const repart::RepartitionOptions& options);

class ResultCache {
 public:
  /// `capacity` = max entries; 0 disables the cache entirely.
  explicit ResultCache(std::size_t capacity);

  /// Look up a key; bumps it to most-recently-used.  The returned entry is
  /// immutable and safe to hold while other threads insert/evict.
  [[nodiscard]] std::shared_ptr<const CachedResult> find(const CacheKey& key);

  /// Non-counting, non-promoting probe: is the key present right now?
  /// Admission control uses this from the I/O thread to classify a
  /// partition request as a prospective cache hit without perturbing the
  /// hit/miss telemetry or the LRU order.
  [[nodiscard]] bool contains(const CacheKey& key) const;

  /// Insert (or refresh) an entry, evicting the least-recently-used entry
  /// beyond capacity.  No-op when disabled.
  void insert(const CacheKey& key, CachedResult value);

  void clear();

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::int64_t hits() const;
  [[nodiscard]] std::int64_t misses() const;
  [[nodiscard]] std::int64_t evictions() const;

 private:
  using LruList = std::list<std::pair<CacheKey, std::shared_ptr<const CachedResult>>>;

  std::size_t capacity_;
  mutable std::mutex mutex_;
  LruList lru_;  ///< front = most recently used
  std::unordered_map<CacheKey, LruList::iterator, CacheKeyHash> index_;
  std::int64_t hits_ = 0;
  std::int64_t misses_ = 0;
  std::int64_t evictions_ = 0;
};

}  // namespace netpart::server
