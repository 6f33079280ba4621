#pragma once

#include "graph/weighted_graph.hpp"
#include "hypergraph/hypergraph.hpp"

/// \file intersection_graph.hpp
/// The dual "intersection graph" G' of the netlist hypergraph (Section 2.2):
/// one vertex per signal net, an edge between two nets iff they share at
/// least one module.  This is the paper's central representation — it is
/// sparser than the clique model and directly expresses the "assign nets to
/// sides" view of min-cut partitioning.

namespace netpart {

/// Edge-weighting schemes for the intersection graph.  The paper reports
/// that several weightings give "extremely similar, high-quality" results
/// (Section 2.2); kPaper is the one printed in the paper and the default
/// everywhere, the others feed the weighting ablation bench.
enum class IgWeighting {
  /// A'_ab = sum over shared modules v_k of (1/(d_k - 1)) * (1/|s_a| + 1/|s_b|)
  /// where d_k is the number of nets incident to v_k.  Overlaps between
  /// large nets count less than overlaps between small nets.
  kPaper,
  /// A'_ab = 1 whenever the nets share at least one module.
  kUniform,
  /// A'_ab = q, the number of shared modules.
  kOverlap,
  /// A'_ab = q / (|s_a| + |s_b| - q), the Jaccard overlap of the pin sets.
  kJaccard,
};

/// Printable name of a weighting scheme.
[[nodiscard]] const char* to_string(IgWeighting w);

/// Build the intersection graph of `h` under the chosen weighting.  Vertex
/// i of the result corresponds to net i of `h`.  Nets sharing no module are
/// non-adjacent; the adjacency *pattern* is identical for every weighting.
///
/// The build runs on the shared thread pool (accumulation over fixed module
/// chunks into a single exactly-sized buffer, then a stable parallel
/// sort-merge keyed by the net pair).  Pair contributions are summed in
/// module-scan order regardless of thread count, so edge weights are
/// bit-identical for any `--threads` setting.
[[nodiscard]] WeightedGraph intersection_graph(
    const Hypergraph& h, IgWeighting weighting = IgWeighting::kPaper);

}  // namespace netpart
