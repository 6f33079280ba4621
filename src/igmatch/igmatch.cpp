#include "igmatch/igmatch.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "hypergraph/cut_metrics.hpp"
#include "igmatch/dynamic_matcher.hpp"
#include "igmatch/sweep_cut.hpp"
#include "obs/metrics.hpp"
#include "spectral/eig1.hpp"

namespace netpart {

namespace {

/// Materialize the partition for the chosen completion.
Partition materialize(const std::vector<ModuleFate>& fate, bool none_left) {
  std::vector<Side> sides(fate.size());
  for (std::size_t i = 0; i < fate.size(); ++i) {
    switch (fate[i]) {
      case ModuleFate::kLeft: sides[i] = Side::kLeft; break;
      case ModuleFate::kRight: sides[i] = Side::kRight; break;
      case ModuleFate::kUnresolved:
        sides[i] = none_left ? Side::kLeft : Side::kRight;
        break;
    }
  }
  return Partition(std::move(sides));
}

/// Recursive completion (Section 3 "future work"): re-partition the
/// unresolved modules with anchor pseudo-modules standing in for the two
/// fixed sides, then keep the refinement only when it beats the wholesale
/// assignment on the true ratio cut.
bool refine_recursively(const Hypergraph& h,
                        const std::vector<ModuleFate>& fate,
                        const IgMatchOptions& options, Partition& best,
                        std::int32_t& best_cut, double& best_ratio) {
  std::vector<ModuleId> unresolved;
  for (ModuleId m = 0; m < h.num_modules(); ++m)
    if (fate[static_cast<std::size_t>(m)] == ModuleFate::kUnresolved)
      unresolved.push_back(m);
  if (unresolved.size() < 4) return false;

  // Sub-hypergraph: unresolved modules plus two anchors.  Every net with an
  // unresolved pin is projected: fixed-left pins collapse to anchor L,
  // fixed-right pins to anchor R.
  const auto sub_n = static_cast<std::int32_t>(unresolved.size());
  const ModuleId anchor_left = sub_n;
  const ModuleId anchor_right = sub_n + 1;
  std::vector<std::int32_t> sub_index(
      static_cast<std::size_t>(h.num_modules()), -1);
  for (std::int32_t i = 0; i < sub_n; ++i)
    sub_index[static_cast<std::size_t>(unresolved[static_cast<std::size_t>(i)])] = i;

  HypergraphBuilder builder(sub_n + 2);
  std::vector<ModuleId> pins;
  for (NetId n = 0; n < h.num_nets(); ++n) {
    pins.clear();
    bool touches_unresolved = false;
    bool has_left = false;
    bool has_right = false;
    for (const ModuleId m : h.pins(n)) {
      const std::int32_t idx = sub_index[static_cast<std::size_t>(m)];
      if (idx >= 0) {
        pins.push_back(idx);
        touches_unresolved = true;
      } else if (fate[static_cast<std::size_t>(m)] == ModuleFate::kLeft) {
        has_left = true;
      } else {
        has_right = true;
      }
    }
    if (!touches_unresolved) continue;
    if (has_left) pins.push_back(anchor_left);
    if (has_right) pins.push_back(anchor_right);
    if (pins.size() >= 2) builder.add_net(pins);
  }
  if (builder.num_nets_added() < 2) return false;
  const Hypergraph sub = builder.build();

  IgMatchOptions sub_options = options;
  sub_options.recursive = false;
  sub_options.record_splits = false;
  const IgMatchResult sub_result = igmatch_partition(sub, sub_options);
  if (!sub_result.partition.is_proper()) return false;

  // Orient the sub-partition by the anchors; if they landed on the same
  // side the recursion found no usable bisection of the core.
  const Side al = sub_result.partition.side(anchor_left);
  const Side ar = sub_result.partition.side(anchor_right);
  if (al == ar) return false;

  Partition candidate = best;
  for (std::int32_t i = 0; i < sub_n; ++i) {
    const Side sub_side = sub_result.partition.side(i);
    const Side mapped = (sub_side == al) ? Side::kLeft : Side::kRight;
    candidate.assign(unresolved[static_cast<std::size_t>(i)], mapped);
  }
  const std::int32_t cut = net_cut(h, candidate);
  const double ratio = ratio_cut_value(cut, candidate.size(Side::kLeft),
                                       candidate.size(Side::kRight));
  if (ratio < best_ratio) {
    best = std::move(candidate);
    best_cut = cut;
    best_ratio = ratio;
    return true;
  }
  return false;
}

}  // namespace

IgMatchResult igmatch_with_ordering(const Hypergraph& h,
                                    std::span<const std::int32_t> net_order,
                                    const IgMatchOptions& options) {
  if (h.num_nets() < 2 || h.num_modules() < 2) {
    IgMatchResult trivial;
    trivial.partition = Partition(h.num_modules(), Side::kLeft);
    return trivial;
  }
  const WeightedGraph ig = intersection_graph(h, options.weighting);
  return igmatch_sweep(h, ig, net_order, options);
}

IgMatchResult igmatch_sweep(const Hypergraph& h, const WeightedGraph& ig,
                            std::span<const std::int32_t> net_order,
                            const IgMatchOptions& options) {
  const std::int32_t m = h.num_nets();
  if (static_cast<std::int32_t>(net_order.size()) != m)
    throw std::invalid_argument("igmatch_with_ordering: order size mismatch");
  if (ig.num_vertices() != m)
    throw std::invalid_argument("igmatch_sweep: intersection graph mismatch");

  IgMatchResult result;
  result.partition = Partition(h.num_modules(), Side::kLeft);
  if (m < 2 || h.num_modules() < 2) return result;

  DynamicBipartiteMatcher matcher(ig);

  SweepCutEvaluator evaluator(h);
  std::vector<NetLabelChange> changes;
  std::vector<ModuleFate> best_fate;
  bool best_none_left = true;
  double best_ratio = std::numeric_limits<double>::infinity();
  std::int32_t best_cut = 0;
  std::vector<std::pair<double, std::int32_t>> ratio_by_rank;  // for top-K

  {
    NETPART_SPAN("sweep");
    for (std::int32_t r = 1; r < m; ++r) {
      matcher.move_to_right(net_order[static_cast<std::size_t>(r - 1)]);
      {
        // Phase I: winner/loser/core classification, as a delta against
        // the previous split.
        NETPART_SPAN("phase-1");
        matcher.classify_incremental(changes);
      }
      // Phase II: fold the label delta into the fate/cut counters and read
      // off both wholesale completions in O(1).
      NETPART_SPAN("phase-2");
      evaluator.apply(changes);
      const SplitEvaluation eval = evaluator.evaluation();

      if (options.record_splits) {
        IgMatchSplitRecord record;
        record.rank = r;
        record.matching_size = matcher.matching_size();
        record.nets_cut = eval.best_cut();
        record.ratio = eval.best_ratio();
        result.splits.push_back(record);
      }

      const double ratio = eval.best_ratio();
      if (options.recursive && std::isfinite(ratio))
        ratio_by_rank.emplace_back(ratio, r);
      if (ratio < best_ratio) {
        best_ratio = ratio;
        best_cut = eval.best_cut();
        best_fate = evaluator.fates();
        best_none_left = eval.none_left_is_better();
        result.best_rank = r;
        result.matching_bound_at_best = matcher.matching_size();
      }
    }
  }
  NETPART_COUNTER_ADD("igmatch.splits_evaluated", m - 1);
  NETPART_COUNTER_ADD("igmatch.augmenting_searches",
                      matcher.augmenting_searches());

  if (best_fate.empty()) {
    // No split admitted a proper wholesale completion (possible on tiny
    // dense instances).  Report +inf — never the default 0.0, which any
    // ratio-minimizing caller would mistake for a perfect cut.
    result.ratio = std::numeric_limits<double>::infinity();
    return result;
  }

  NETPART_SPAN("completion");
  result.partition = materialize(best_fate, best_none_left);
  result.nets_cut = best_cut;
  result.ratio = best_ratio;

  if (options.recursive) {
    // Refine the top-K splits by wholesale ratio, not just the winner:
    // near-optimal splits often leave a larger unresolved core where the
    // recursive completion has room to work.
    std::sort(ratio_by_rank.begin(), ratio_by_rank.end());
    // Greedily pick the best-ratio splits subject to a minimum rank
    // separation, so the candidates probe distinct regions of the sweep
    // instead of clustering around the single winner.
    const std::int32_t min_separation = std::max(1, m / 50);
    std::vector<std::int32_t> chosen;
    for (const auto& [ratio, rank] : ratio_by_rank) {
      if (static_cast<std::int32_t>(chosen.size()) >=
          kIgMatchRecursiveCandidates)
        break;
      bool close = false;
      for (const std::int32_t c : chosen)
        if (std::abs(c - rank) < min_separation) {
          close = true;
          break;
        }
      if (!close) chosen.push_back(rank);
    }
    std::vector<char> is_candidate(static_cast<std::size_t>(m), 0);
    for (const std::int32_t rank : chosen)
      is_candidate[static_cast<std::size_t>(rank)] = 1;

    // Second sweep, stopping at the candidate ranks to rebuild their fates.
    DynamicBipartiteMatcher replay(ig);
    SweepCutEvaluator replay_evaluator(h);
    for (std::int32_t r = 1; r < m; ++r) {
      replay.move_to_right(net_order[static_cast<std::size_t>(r - 1)]);
      if (!is_candidate[static_cast<std::size_t>(r)]) continue;
      replay.classify_incremental(changes);
      replay_evaluator.apply(changes);
      const std::vector<ModuleFate>& fate = replay_evaluator.fates();
      const SplitEvaluation eval = replay_evaluator.evaluation();
      Partition candidate = materialize(fate, eval.none_left_is_better());
      std::int32_t candidate_cut = eval.best_cut();
      double candidate_ratio = eval.best_ratio();
      refine_recursively(h, fate, options, candidate, candidate_cut,
                         candidate_ratio);
      if (candidate_ratio < result.ratio) {
        result.partition = std::move(candidate);
        result.nets_cut = candidate_cut;
        result.ratio = candidate_ratio;
        result.best_rank = r;
        result.matching_bound_at_best = replay.matching_size();
        result.refined_recursively = true;
      }
    }
  }
  return result;
}

IgMatchResult igmatch_partition(const Hypergraph& h,
                                const IgMatchOptions& options) {
  NETPART_SPAN("igmatch");
  if (h.num_nets() < 2 || h.num_modules() < 2) {
    IgMatchResult trivial;
    trivial.partition = Partition(h.num_modules(), Side::kLeft);
    return trivial;
  }
  // One IG feeds both the ordering and the sweep.
  const WeightedGraph ig = intersection_graph(h, options.weighting);
  const NetOrdering ordering = spectral_net_ordering_of_ig(
      h, ig, options.lanczos, options.threshold_net_size);
  IgMatchResult result = igmatch_sweep(h, ig, ordering.order, options);
  result.lambda2 = ordering.lambda2;
  result.lanczos_iterations = ordering.lanczos_iterations;
  result.eigen_converged = ordering.eigen_converged;
  NETPART_COUNTER_ADD("igmatch.runs", 1);
  NETPART_GAUGE_SET("igmatch.best_rank", result.best_rank);
  NETPART_GAUGE_SET("igmatch.matching_bound", result.matching_bound_at_best);
  return result;
}

}  // namespace netpart
