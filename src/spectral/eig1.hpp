#pragma once

#include <vector>

#include "graph/intersection_graph.hpp"
#include "graph/net_models.hpp"
#include "hypergraph/hypergraph.hpp"
#include "linalg/fiedler.hpp"
#include "spectral/split_sweep.hpp"

/// \file eig1.hpp
/// EIG1 — the spectral ratio-cut baseline of Hagen-Kahng [13]: clique net
/// model, Fiedler vector of the module Laplacian, best-ratio-cut split of
/// the sorted eigenvector.  IG-Match is reported as a 22% average
/// improvement over this algorithm.
///
/// Also hosts the shared "net ordering" computation: the Fiedler ordering
/// of the *intersection graph*, consumed by both IG-Match and IG-Vote.

namespace netpart {

/// EIG1 output: the best-split partition plus spectral diagnostics.
struct Eig1Result {
  SweepResult sweep;
  double lambda2 = 0.0;          ///< of the clique-model Laplacian
  std::int32_t lanczos_iterations = 0;
  bool eigen_converged = false;
  /// Theorem 1 lower bound lambda2 / n on the optimal ratio cut.
  double ratio_cut_lower_bound = 0.0;
};

/// Run EIG1 on `h` (standard clique net model).
[[nodiscard]] Eig1Result eig1_partition(
    const Hypergraph& h, const linalg::LanczosOptions& options = {});

/// Run the EIG1 pipeline with an alternative net model from Section 2.1
/// (path/star/cycle); used by the net-model fragility ablation.
[[nodiscard]] Eig1Result eig1_partition_with_model(
    const Hypergraph& h, NetModel model,
    const linalg::LanczosOptions& options = {});

/// The spectral ordering of the *nets* of `h`: Fiedler vector of the
/// intersection-graph Laplacian, sorted ascending.
struct NetOrdering {
  std::vector<std::int32_t> order;  ///< net ids, sorted by Fiedler component
  double lambda2 = 0.0;             ///< of Q'(G')
  std::int32_t lanczos_iterations = 0;
  bool eigen_converged = false;
  std::int32_t nets_thresholded = 0;  ///< nets placed by interpolation
};

/// Compute the net ordering used by IG-Match and IG-Vote.
///
/// `threshold_net_size` implements the Section 5 speedup: "The eigenvector
/// computation can be sped up further by additionally sparsifying the input
/// through thresholding".  When > 0, nets with more pins than the threshold
/// are excluded from the eigenvector computation (shrinking the Laplacian);
/// they are then inserted into the ordering at the mean sorted position of
/// their small intersection-graph neighbours, so IG-Match still sweeps a
/// total order over ALL nets.  0 disables thresholding.
[[nodiscard]] NetOrdering spectral_net_ordering(
    const Hypergraph& h, IgWeighting weighting = IgWeighting::kPaper,
    const linalg::LanczosOptions& options = {},
    std::int32_t threshold_net_size = 0);

/// Same, from a prebuilt intersection graph of `h` (whose weighting is the
/// caller's business).  `igmatch_partition` builds one IG and hands it to
/// both this ordering and the sweep.
[[nodiscard]] NetOrdering spectral_net_ordering_of_ig(
    const Hypergraph& h, const WeightedGraph& ig,
    const linalg::LanczosOptions& options = {},
    std::int32_t threshold_net_size = 0);

}  // namespace netpart
