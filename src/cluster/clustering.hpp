#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "hypergraph/hypergraph.hpp"
#include "hypergraph/partition.hpp"

/// \file clustering.hpp
/// Module clustering and hypergraph contraction — the substrate for the
/// Section 5 "hybrid algorithm which uses clustering to condense the input
/// before applying the partitioning algorithm" (citing Bui et al. [3] and
/// Lengauer [22]).
///
/// Each coarsening level runs one heavy-edge clustering pass on the
/// clique-model connectivity between modules: every unclustered module
/// joins the neighbouring cluster it is most strongly connected to,
/// optionally under a weight cap and a side or community constraint.  The
/// hypergraph is then contracted by merging each cluster, with parallel
/// coarse nets folded into one of summed weight so that any coarse cut
/// equals the projected fine cut.  Repeating this is the coarsening half of
/// the multilevel partitioner (cluster/multilevel.hpp).

namespace netpart {

/// A many-to-one map from modules to cluster ids (dense, 0-based).
class Clustering {
 public:
  /// Identity clustering (every module its own cluster).
  explicit Clustering(std::int32_t num_modules);

  /// Build from an explicit map; cluster ids must be dense 0..k-1.
  /// Throws std::invalid_argument when ids are not dense.
  explicit Clustering(std::vector<std::int32_t> cluster_of);

  [[nodiscard]] std::int32_t num_modules() const {
    return static_cast<std::int32_t>(cluster_of_.size());
  }

  [[nodiscard]] std::int32_t num_clusters() const { return num_clusters_; }

  [[nodiscard]] std::int32_t cluster_of(ModuleId m) const {
    return cluster_of_[static_cast<std::size_t>(m)];
  }

  /// Number of modules in cluster `c`.
  [[nodiscard]] std::int32_t cluster_size(std::int32_t c) const {
    return cluster_sizes_[static_cast<std::size_t>(c)];
  }

  /// Lift a partition of the clusters back to a partition of the modules.
  [[nodiscard]] Partition project(const Partition& cluster_partition) const;

 private:
  std::vector<std::int32_t> cluster_of_;
  std::vector<std::int32_t> cluster_sizes_;
  std::int32_t num_clusters_ = 0;
};

/// Controls for heavy_edge_clustering.
/// All constraints compose; empty spans / null pointers / zero limits mean
/// "unconstrained".
struct MatchingOptions {
  /// Forbid cross-side mates (V-cycle coarsening must preserve the current
  /// partition so it projects exactly onto the coarse hypergraph).
  const Partition* constraint = nullptr;
  /// Per-module weights (fine-module counts at coarse levels); empty = 1.
  std::span<const std::int64_t> module_weights = {};
  /// Refuse merges whose combined weight exceeds this (0 = uncapped).
  /// Keeps clusters from snowballing into one giant module that the
  /// coarsest-level solver can no longer split sensibly.
  std::int64_t max_cluster_weight = 0;
  /// Community labels (any values, need not be dense); when non-empty only
  /// same-community modules may merge, so coarsening respects the netlist's
  /// natural module boundaries.
  std::span<const std::int32_t> communities = {};
  /// Nets larger than this contribute nothing to connectivity ratings
  /// (0 = rate every net).  A k-pin net spreads weight w/(k-1) per
  /// neighbour (w = net weight: coarse levels carry accumulated
  /// multiplicities), so huge nets cost O(k^2) rating work for negligible
  /// signal.
  std::int32_t rating_net_size_limit = 0;
};

/// One heavy-edge clustering pass with dense-accumulator ratings: each
/// module (visited in decreasing-degree order) joins the neighbouring
/// *cluster* it is most strongly connected to, ties to the lower
/// representative id, so clusters can grow beyond pairs up to
/// max_cluster_weight.  Joining is what keeps per-level shrink high on
/// hierarchical netlists — pair matching stalls once the strong pairs are
/// gone.  O(pins) rating work per module, deterministic and serial:
/// bit-identical at any lane count by construction.
[[nodiscard]] Clustering heavy_edge_clustering(const Hypergraph& h,
                                               const MatchingOptions& options);

/// Deterministic asynchronous label propagation over clique-model module
/// connectivity: labels start as module ids; each round visits modules in
/// id order and adopts the neighbourhood's strongest label (ties to the
/// smaller label).  Returns one label per module (not dense).  Used to make
/// coarsening community-aware: merging only within labels keeps early
/// levels from welding unrelated logic together.
[[nodiscard]] std::vector<std::int32_t> community_labels(
    const Hypergraph& h, std::int32_t rounds, std::int32_t net_size_limit);

/// A contraction with full bookkeeping, the substrate the multilevel
/// invariant tests audit.  Pins map to cluster ids and are deduplicated;
/// nets left with fewer than 2 distinct clusters are dropped (they can
/// never be cut at the coarse level), and parallel coarse nets (same
/// deduplicated pin set) are merged with their weights accumulated, which
/// is exactly what makes the coarse weighted cut equal the fine weighted
/// cut of any projected partition.
struct Contraction {
  Hypergraph coarse;
  /// Per coarse module: accumulated fine weight (sum = total fine weight).
  std::vector<std::int64_t> module_weights;
  /// Fine net id -> coarse net id, -1 for nets dropped as cluster-internal.
  std::vector<NetId> net_of_fine;
  /// Pins removed because several fine pins of one net landed in the same
  /// cluster (the deduplication loss, counted over every fine net).
  std::int64_t pins_merged = 0;
  /// Pins of nets dropped entirely (< 2 distinct clusters after mapping).
  std::int64_t pins_dropped = 0;
  /// Fine nets folded into an already-emitted identical coarse net.
  std::int64_t parallel_nets_merged = 0;
  /// Pins those folded nets would have duplicated.
  std::int64_t parallel_pins_merged = 0;
};

/// Contract with weight accumulation and conservation counters.
/// `fine_weights` (empty = unit) are summed into cluster weights.  The
/// counters satisfy, exactly:
///   coarse.num_pins() == h.num_pins() - pins_merged - pins_dropped
///                        - parallel_pins_merged
/// and every coarse net's weight is the sum of its fine preimage's weights.
[[nodiscard]] Contraction contract_with_info(
    const Hypergraph& h, const Clustering& c,
    std::span<const std::int64_t> fine_weights = {});

}  // namespace netpart
