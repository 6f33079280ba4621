#pragma once

#include <cstdint>
#include <span>

#include "hypergraph/hypergraph.hpp"
#include "hypergraph/partition.hpp"

/// \file igvote.hpp
/// The IG-Vote (EIG1-IG) heuristic of Hagen-Kahng [14], implemented from
/// the pseudocode in Appendix B of the paper.  It is the strongest prior
/// method IG-Match is compared against in Table 3.
///
/// Each net exerts "weight" 1/|s| on its member modules.  Sweeping the
/// sorted intersection-graph eigenvector, nets move from U to W one at a
/// time; a module follows once at least half of its total incident
/// net-weight has moved.  Both sweep directions are tried and the best
/// ratio cut over all 2(m-1) intermediate partitions is returned.

namespace netpart {

/// A module moves once its moved net-weight reaches this fraction of its
/// total net-weight (the paper's 1/2).
inline constexpr double kIgVoteThreshold = 0.5;

/// Result of an IG-Vote run.
struct IgVoteResult {
  Partition partition;
  std::int32_t nets_cut = 0;
  double ratio = 0.0;
  bool forward_sweep_won = false;  ///< which direction produced the result
  double lambda2 = 0.0;
  bool eigen_converged = false;
};

/// Run IG-Vote end to end: the spectral net ordering of the paper-weighted
/// intersection graph, then both vote sweeps.
[[nodiscard]] IgVoteResult igvote_partition(const Hypergraph& h);

/// Run the vote sweeps from an explicit net ordering (for tests).
[[nodiscard]] IgVoteResult igvote_with_ordering(
    const Hypergraph& h, std::span<const std::int32_t> net_order);

}  // namespace netpart
