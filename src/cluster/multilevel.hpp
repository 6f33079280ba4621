#pragma once

#include <cstdint>
#include <vector>

#include "cluster/clustering.hpp"
#include "igmatch/igmatch.hpp"

/// \file multilevel.hpp
/// The multilevel V-cycle engine, grown from the Section 5 remark that "a
/// hybrid algorithm which uses clustering to condense the input before
/// applying the partitioning algorithm (such an approach is discussed by
/// Bui et al. [3] and by Lengauer [22]) is also promising", in the style of
/// KaHyPar-family partitioners:
///
///  - coarsen with heavy-edge + community-aware matching, accumulating
///    module weights and merging parallel nets so every level preserves
///    the weighted cut of any projected partition exactly;
///  - solve only the coarsest instance with the paper's IG-Match (spectral
///    net ordering + matching-bounded sweep);
///  - uncoarsen level by level with weighted ratio-cut FM refinement (the
///    coarse ratio under accumulated module weights IS the projected fine
///    ratio, so "refinement never hurts" is exact, not heuristic);
///  - optionally run extra V-cycles: re-coarsen constrained to the current
///    partition's sides (with twice the cold start's cluster-weight cap),
///    refine through the new hierarchy, keep the result only when the
///    fine-level ratio strictly improved.
///
/// The coarsening and refinement schedule (level cap, weight cap,
/// community rounds, shrink floor, boundary-only refinement, stall limit,
/// refine passes, rating net-size limit) is fixed by the kMultilevel*
/// constants below; MultilevelOptions carries only what callers set.
///
/// Everything is serial or rides the deterministic parallel runtime, so
/// results are bit-identical at any lane count and across runs.

namespace netpart {

/// Hard cap on coarsening levels (each level roughly halves the size).
inline constexpr std::int32_t kMultilevelMaxLevels = 32;
/// Merges whose combined module weight exceeds this multiple of the current
/// level's average module weight are refused.  Keeps each level's growth
/// balanced — no hub cluster can absorb the netlist — while leaving the
/// hierarchy free to condense as deep as the coarsen targets demand.
/// Side-constrained (V-cycle) coarsening doubles it: those cycles exist to
/// perturb an already-good partition, half the levels cost half the time,
/// and the improvement guard keeps only cycles that help.
inline constexpr double kMultilevelMaxWeightFactor = 4.0;
/// Label-propagation rounds for community-aware coarsening.  Matching
/// falls back to unrestricted pairing on levels where the community
/// constraint would stall coarsening.
inline constexpr std::int32_t kMultilevelCommunityRounds = 2;
/// Coarsening stops when a level shrinks by less than this fraction:
/// further levels would add refine work without condensing anything.
inline constexpr double kMultilevelMinShrink = 0.05;
/// Levels with more modules than this refine only the cut boundary
/// (modules on cut nets; everything else is pinned).  Full-freedom FM on a
/// million-module level spends almost all its moves far from the cut for
/// gains in the 1e-9 range; the boundary is where the ratio moves.
inline constexpr std::int32_t kMultilevelBoundaryRefineAbove = 10000;
/// A refinement pass aborts after this many consecutive moves without a
/// new best prefix.  Mid-coarse levels carry wide, heavy accumulated nets,
/// so each tentative move is expensive; once a pass has gone this long
/// without improving, the remaining sequence is rollback fodder.
inline constexpr std::int32_t kMultilevelRefineStallLimit = 1000;
/// Ratio-cut FM passes per uncoarsening level (stops early when a pass
/// fails to improve).
inline constexpr std::int32_t kMultilevelRefinePasses = 8;
/// Nets larger than this are ignored by connectivity ratings and community
/// propagation; a k-pin net contributes 1/(k-1) per neighbour, so huge nets
/// are O(k^2) rating work for ~no signal.
inline constexpr std::int32_t kMultilevelRatingNetSizeLimit = 64;

/// Options for the multilevel engine.
struct MultilevelOptions {
  /// Coarsening stops once the instance has at most this many modules — or
  /// once it fits the pair budget below, whichever comes first.  The floor
  /// sits deliberately low: on net-heavy hierarchies the accumulated nets
  /// only collapse (into singletons and duplicates) in the last level or
  /// two, and stopping above that cliff hands the solver a dense monster.
  std::int32_t coarsen_to = 8;
  /// An instance whose intersection-graph build work — sum over modules of
  /// deg*(deg-1)/2 pair contributions — is at most this is solved directly,
  /// without (further) coarsening (<= 0 lifts the budget: modules alone
  /// decide).  Pair work, not modules or nets, tracks the solve cost: the
  /// IG's nodes are nets, so a coarse level whose few clusters each carry
  /// thousands of accumulated nets is dense at sizes a flat sparse netlist
  /// solves in milliseconds, while the paper's full benchmark suite sits
  /// orders of magnitude under this budget.  Contracting an instance that
  /// is already affordable only destroys structure the solver would have
  /// used.
  std::int64_t direct_pair_budget = 50'000;
  /// Solver options for the coarsest level.
  IgMatchOptions igmatch;
  /// Additional V-cycles: re-coarsen with side-constrained matching (the
  /// current partition projects exactly onto the coarse hypergraph),
  /// refine through the hierarchy, project back.  Improvement-guarded.
  std::int32_t vcycles = 0;
};

/// One coarsening level: the map from this level's fine modules to coarse
/// ids, the contracted hypergraph, and its accumulated module weights.
struct MultilevelLevel {
  Clustering map;
  Hypergraph coarse;
  std::vector<std::int64_t> module_weights;
  double coarsen_ratio = 1.0;  ///< coarse modules / fine modules
};

/// A coarsening hierarchy.  levels[i].coarse is the hypergraph at level
/// i+1; level 0 is the (external) input hypergraph.
struct MultilevelHierarchy {
  std::vector<MultilevelLevel> levels;

  [[nodiscard]] bool empty() const { return levels.empty(); }

  /// The deepest hypergraph, or `fine` itself when no level was built.
  [[nodiscard]] const Hypergraph& coarsest(const Hypergraph& fine) const {
    return levels.empty() ? fine : levels.back().coarse;
  }
};

/// Build a coarsening hierarchy for `h`.  When `constraint` is non-null
/// every cluster is side-pure, so the constraint projects exactly onto
/// every level, and the cluster-weight cap doubles (the V-cycle
/// re-coarsening mode).  Exposed separately so tests can audit the
/// per-level invariants against hand contraction.
[[nodiscard]] MultilevelHierarchy coarsen_hierarchy(
    const Hypergraph& h, const MultilevelOptions& options,
    const Partition* constraint = nullptr);

/// Per-level record of a run, coarsest last.
struct MultilevelLevelStats {
  std::int32_t modules = 0;
  std::int32_t nets = 0;
  std::int64_t pins = 0;
  double coarsen_ratio = 1.0;  ///< modules here / modules one level finer
  double refine_gain = 0.0;    ///< weighted-ratio improvement while refining
};

/// Result of a multilevel run.
struct MultilevelResult {
  Partition partition;
  std::int32_t nets_cut = 0;
  double ratio = 0.0;
  std::int32_t levels = 0;            ///< coarsening levels performed
  std::int32_t coarsest_modules = 0;  ///< size of the solved instance
  /// The coarsest-level IG-Match solution, untouched by refinement — the
  /// quantity the hand-contracted oracle test reproduces exactly.
  Partition coarsest_partition;
  double lambda2 = 0.0;        ///< coarsest-level Fiedler value
  bool eigen_converged = false;
  std::int32_t vcycles_run = 0;  ///< extra cycles that actually improved
  /// Entry i describes level i, with entry 0 the input hypergraph; the
  /// refine_gain of entry i is the weighted-ratio improvement earned while
  /// refining at that level during uncoarsening.
  std::vector<MultilevelLevelStats> level_stats;
};

/// Run the multilevel engine on `h`.
[[nodiscard]] MultilevelResult multilevel_partition(
    const Hypergraph& h, const MultilevelOptions& options = {});

/// Refine an existing proper partition of `h` through improvement-guarded
/// partition-constrained V-cycles (at least one even when options.vcycles
/// is 0) — the warm path of the incremental repartitioning session.  The
/// result is never worse than `initial` under the weighted ratio cut.
/// `cycles_run` (optional) receives the number of cycles that improved.
[[nodiscard]] Partition vcycle_refine(const Hypergraph& h,
                                      const Partition& initial,
                                      const MultilevelOptions& options,
                                      std::int32_t* cycles_run = nullptr);

}  // namespace netpart
