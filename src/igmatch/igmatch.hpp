#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/intersection_graph.hpp"
#include "hypergraph/hypergraph.hpp"
#include "hypergraph/partition.hpp"
#include "linalg/lanczos.hpp"

/// \file igmatch.hpp
/// The IG-Match algorithm (Section 3 of the paper) — the main contribution.
///
/// Pipeline:
///  1. Build the intersection graph G' of the netlist hypergraph.
///  2. Compute the Fiedler vector of Q'(G') and sort it: a linear ordering
///     of the *nets*.
///  3. Sweep every splitting rank of the net ordering.  For each split,
///     Phase I finds a maximum independent set of the induced bipartite
///     conflict graph B via maximum matching (the MIS members are "winner"
///     nets, guaranteed uncut); Phase II assigns the modules of winner nets
///     to their side and places the leftover modules wholesale on whichever
///     side yields the better ratio cut.
///  4. Return the best module partition over all splits.
///
/// Guarantee (Theorems 4-5): per split, the number of nets cut by the
/// completed module partition never exceeds the size of the maximum
/// matching in B, which by König's theorem (Theorems 2-3) is the best bound
/// any completion can promise.

namespace netpart {

/// Options for an IG-Match run.
struct IgMatchOptions {
  IgWeighting weighting = IgWeighting::kPaper;
  linalg::LanczosOptions lanczos;
  /// Section 5 speedup: exclude nets with more pins than this from the
  /// eigenvector computation (see spectral_net_ordering).  0 disables.
  std::int32_t threshold_net_size = 0;
  /// Record per-split instrumentation (matching bound, achieved cut).
  bool record_splits = false;
  /// Enable the recursive completion of Section 3's "future work": instead
  /// of assigning the unresolved modules wholesale, recursively partition
  /// them (with anchor pseudo-modules representing the fixed sides) and
  /// keep the refinement when it improves the ratio cut.
  bool recursive = false;
  /// Recursion guard for the recursive completion.
  std::int32_t recursion_depth = 1;
  /// Number of best-by-wholesale-ratio splits the recursive completion
  /// attempts to refine (different splits leave different unresolved
  /// cores; refining only the single winner is often a no-op because its
  /// core is tiny).
  std::int32_t recursive_candidates = 8;
};

/// Per-split record (filled when record_splits is set).
struct IgMatchSplitRecord {
  std::int32_t rank = 0;           ///< nets moved to R so far
  std::int32_t matching_size = 0;  ///< |MM| = the cut upper bound
  std::int32_t nets_cut = 0;       ///< cut achieved by the better completion
  double ratio = 0.0;              ///< ratio cut of the better completion
};

/// Result of an IG-Match run.
struct IgMatchResult {
  Partition partition;
  std::int32_t nets_cut = 0;
  double ratio = 0.0;
  std::int32_t best_rank = 0;               ///< split that won
  std::int32_t matching_bound_at_best = 0;  ///< |MM| at the winning split
  double lambda2 = 0.0;                     ///< of Q'(G')
  std::int32_t lanczos_iterations = 0;      ///< of the ordering's solve
  bool eigen_converged = false;
  bool refined_recursively = false;  ///< recursive completion improved it
  std::vector<IgMatchSplitRecord> splits;   ///< only if record_splits
};

/// Run IG-Match end to end (steps 1-4 above).
[[nodiscard]] IgMatchResult igmatch_partition(const Hypergraph& h,
                                              const IgMatchOptions& options = {});

/// Run the sweep from an explicit net ordering (a permutation of the net
/// ids), building the IG.
/// `igmatch_partition` instead hands the IG it built for the spectral
/// ordering straight to `igmatch_sweep`, so one IG serves both.
[[nodiscard]] IgMatchResult igmatch_with_ordering(
    const Hypergraph& h, std::span<const std::int32_t> net_order,
    const IgMatchOptions& options = {});

/// The sweep core: like `igmatch_with_ordering`, but consumes a prebuilt
/// intersection graph of `h` (the one the spectral ordering was computed
/// on).  Every split rank r (1 <= r < m) is evaluated.
[[nodiscard]] IgMatchResult igmatch_sweep(
    const Hypergraph& h, const WeightedGraph& ig,
    std::span<const std::int32_t> net_order,
    const IgMatchOptions& options = {});

}  // namespace netpart
