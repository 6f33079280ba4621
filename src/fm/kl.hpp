#pragma once

#include <cstdint>

#include "graph/weighted_graph.hpp"
#include "hypergraph/hypergraph.hpp"
#include "hypergraph/partition.hpp"

/// \file kl.hpp
/// Kernighan-Lin pair-swap bisection [19] — the ancestor of the FM family
/// and the oldest baseline lineage the paper cites.  KL operates on a
/// weighted *graph*; for hypergraph inputs the clique net model is applied
/// first, so the optimized quantity is the clique-weighted edge cut (the
/// hypergraph net cut is reported alongside for comparison).
///
/// Each pass computes the D-values (external minus internal connection
/// weight), then greedily picks the swap pair with maximum gain
/// g = D_a + D_b - 2 w(a,b), locks the pair, updates D, and finally keeps
/// the best prefix of swaps.  Passes repeat until one fails to improve.

namespace netpart {

/// KL passes per start; passes stop earlier when one fails to improve.
inline constexpr std::int32_t kKlMaxPasses = 12;
/// Per swap step, only this many top D-valued vertices of each side are
/// paired exhaustively (the classic practical shortcut; exact selection
/// would cost O(n^2) per swap).
inline constexpr std::int32_t kKlCandidateLimit = 24;

/// Options for the KL driver.
struct KlOptions {
  std::int32_t num_starts = 4;
  std::uint64_t seed = 0xBEEFULL;
};

/// Result of a KL run.
struct KlResult {
  Partition partition;
  double edge_cut = 0.0;      ///< clique-model weighted edge cut
  std::int32_t nets_cut = 0;  ///< hypergraph net cut of the same partition
  double ratio = 0.0;         ///< hypergraph ratio cut
  std::int32_t passes = 0;
};

/// One KL pass on `g` from `p` (must be a balanced bipartition; KL swaps
/// preserve side sizes exactly).  Returns the pass's total gain, the
/// reduction of the cut.  Exposed for tests; most callers want
/// kl_bisection.
double kl_pass(const WeightedGraph& g, Partition& p);

/// Weighted edge cut of `p` in `g`.
[[nodiscard]] double weighted_edge_cut(const WeightedGraph& g,
                                       const Partition& p);

/// Multi-start KL bisection of the hypergraph's clique-model graph.
[[nodiscard]] KlResult kl_bisection(const Hypergraph& h,
                                    const KlOptions& options = {});

}  // namespace netpart
