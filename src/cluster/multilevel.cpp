#include "cluster/multilevel.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>
#include <vector>

#include "fm/fm_engine.hpp"
#include "hypergraph/cut_metrics.hpp"
#include "obs/metrics.hpp"

namespace netpart {

namespace {

void validate_options(const MultilevelOptions& options) {
  if (options.coarsen_to < 4)
    throw std::invalid_argument("multilevel: coarsen_to too small");
  if (options.refine_passes < 0 || options.vcycles < 0)
    throw std::invalid_argument("multilevel: negative option");
}

/// Push a partition one level down: every cluster takes its members' side
/// (well-defined when clusters are side-pure, which constrained matching
/// guarantees).
Partition restrict_down(const Clustering& map, const Partition& fine) {
  Partition coarse(map.num_clusters());
  for (ModuleId m = 0; m < map.num_modules(); ++m)
    coarse.assign(map.cluster_of(m), fine.side(m));
  return coarse;
}

/// Weighted ratio-cut FM at one level; returns the ratio improvement.
double refine_level(const Hypergraph& h,
                    std::span<const std::int64_t> weights, Partition& p,
                    const MultilevelOptions& options) {
  const std::int32_t passes = options.refine_passes;
  if (h.num_modules() < 2 || passes <= 0) return 0.0;
  FmEngine engine(h);
  engine.reset(p);
  engine.set_stall_limit(kMultilevelRefineStallLimit);
  if (h.num_modules() > kMultilevelBoundaryRefineAbove) {
    std::vector<char> boundary(static_cast<std::size_t>(h.num_modules()), 0);
    for (NetId n = 0; n < h.num_nets(); ++n) {
      const auto pins = h.pins(n);
      bool left = false, right = false;
      for (const ModuleId m : pins)
        (p.side(m) == Side::kLeft ? left : right) = true;
      if (left && right)
        for (const ModuleId m : pins)
          boundary[static_cast<std::size_t>(m)] = 1;
    }
    for (ModuleId m = 0; m < h.num_modules(); ++m)
      if (!boundary[static_cast<std::size_t>(m)]) engine.fix_module(m);
  }
  if (!weights.empty()) engine.set_module_weights(weights);
  const double before = engine.ratio();
  for (std::int32_t pass = 0; pass < passes; ++pass)
    if (!engine.pass_ratio_cut().improved) break;
  p = engine.partition();
  const double after = engine.ratio();
  return (std::isfinite(before) && std::isfinite(after)) ? before - after
                                                         : 0.0;
}

/// Walk the hierarchy coarsest -> fine, refining at every level.
/// `current` enters as a partition of the coarsest hypergraph and leaves
/// as a partition of `h`.  `stats` (optional, size levels+1, entry i =
/// level i with 0 the input) accumulates per-level refine gains.
void uncoarsen_refine(const Hypergraph& h, const MultilevelHierarchy& hier,
                      const MultilevelOptions& options, Partition& current,
                      std::vector<MultilevelLevelStats>* stats) {
  const auto num_levels = static_cast<std::int32_t>(hier.levels.size());
  const auto record = [&](std::int32_t level, double gain) {
    if (stats != nullptr)
      (*stats)[static_cast<std::size_t>(level)].refine_gain += gain;
  };
  record(num_levels,
         refine_level(hier.coarsest(h),
                      hier.empty()
                          ? std::span<const std::int64_t>{}
                          : std::span<const std::int64_t>(
                                hier.levels.back().module_weights),
                      current, options));
  for (std::int32_t i = num_levels; i-- > 0;) {
    current = hier.levels[static_cast<std::size_t>(i)].map.project(current);
    const Hypergraph& fine =
        i == 0 ? h : hier.levels[static_cast<std::size_t>(i - 1)].coarse;
    const std::span<const std::int64_t> weights =
        i == 0 ? std::span<const std::int64_t>{}
               : std::span<const std::int64_t>(
                     hier.levels[static_cast<std::size_t>(i - 1)]
                         .module_weights);
    record(i, refine_level(fine, weights, current, options));
  }
}

/// Improvement-guarded constrained V-cycles over an existing partition.
Partition run_vcycles(const Hypergraph& h, Partition current,
                      const MultilevelOptions& options, std::int32_t cycles,
                      std::int32_t* cycles_run) {
  for (std::int32_t cycle = 0; cycle < cycles; ++cycle) {
    if (!current.is_proper()) break;
    // Side-constrained coarsening: twice as greedy as the cold start.
    const MultilevelHierarchy hier = coarsen_hierarchy(h, options, &current);
    if (hier.empty()) break;
    Partition candidate = current;
    for (const MultilevelLevel& level : hier.levels)
      candidate = restrict_down(level.map, candidate);
    uncoarsen_refine(h, hier, options, candidate, nullptr);
    // The weighted ratio cut is what every improvement guard compares (it
    // equals the classic ratio cut on unit-weight netlists).
    if (weighted_ratio_cut(h, candidate) < weighted_ratio_cut(h, current)) {
      current = std::move(candidate);
      if (cycles_run != nullptr) ++*cycles_run;
      NETPART_COUNTER_ADD("ml.vcycle_improved", 1);
    } else {
      break;  // converged: further cycles would repeat the same state
    }
  }
  return current;
}

}  // namespace

MultilevelHierarchy coarsen_hierarchy(const Hypergraph& h,
                                      const MultilevelOptions& options,
                                      const Partition* constraint) {
  validate_options(options);
  if (constraint != nullptr &&
      constraint->num_modules() != h.num_modules())
    throw std::invalid_argument("coarsen_hierarchy: constraint size mismatch");

  MultilevelHierarchy hier;
  if (h.num_modules() < 2) return hier;

  const Hypergraph* cur = &h;
  Partition cur_constraint(0);
  if (constraint != nullptr) cur_constraint = *constraint;
  const double weight_factor = constraint != nullptr
                                   ? 2.0 * kMultilevelMaxWeightFactor
                                   : kMultilevelMaxWeightFactor;

  // Community labels are detected once, on the finest level, and projected
  // down the hierarchy: clusters are community-pure by construction, so a
  // cluster simply inherits its members' label.  Re-detecting per level
  // costs O(pins x rounds) at every level — the single largest coarsening
  // expense on million-module instances — for labels the projection already
  // provides.
  std::vector<std::int32_t> communities;
  bool communities_live = false;

  // IG build work for the would-be direct solve: sum of per-module
  // deg*(deg-1)/2 pair contributions (the IG's nodes are nets, so modules
  // are its edge factories).  O(modules) to evaluate.
  const auto pair_work = [](const Hypergraph& g) {
    std::int64_t total = 0;
    for (ModuleId m = 0; m < g.num_modules(); ++m) {
      const auto d = static_cast<std::int64_t>(g.nets_of(m).size());
      total += d * (d - 1) / 2;
    }
    return total;
  };

  while (static_cast<std::int32_t>(hier.levels.size()) <
             kMultilevelMaxLevels &&
         cur->num_modules() > options.coarsen_to &&
         (options.direct_pair_budget <= 0 ||
          pair_work(*cur) > options.direct_pair_budget)) {
    const std::int32_t n = cur->num_modules();
    const std::span<const std::int64_t> weights =
        hier.levels.empty() ? std::span<const std::int64_t>{}
                            : std::span<const std::int64_t>(
                                  hier.levels.back().module_weights);
    // The cluster-weight cap: a multiple of this level's average module
    // weight (total weight is the fine module count at every level).  A
    // per-level relative cap keeps each level's growth balanced without
    // imposing an absolute floor on how far the hierarchy can condense —
    // net-heavy instances must coarsen well past `coarsen_to` modules
    // before the coarsest solve is affordable.
    const std::int64_t cap = std::max<std::int64_t>(
        1, static_cast<std::int64_t>(
               std::ceil(static_cast<double>(h.num_modules()) *
                         weight_factor / static_cast<double>(n))));
    MatchingOptions matching;
    matching.constraint = constraint != nullptr ? &cur_constraint : nullptr;
    matching.module_weights = weights;
    matching.max_cluster_weight = cap;
    matching.rating_net_size_limit = options.rating_net_size_limit;
    // Constrained (V-cycle) coarsening skips community detection: the side
    // constraint already confines merges to partition-pure clusters, the
    // extra cycle is a refinement perturbation rather than a cold start,
    // and the improvement guard discards any cycle that does not help.
    if (hier.levels.empty() && constraint == nullptr) {
      NETPART_SPAN("ml.community");
      communities = community_labels(*cur, kMultilevelCommunityRounds,
                                     options.rating_net_size_limit);
      communities_live = !communities.empty();
    }
    if (communities_live) matching.communities = communities;
    Clustering c(0);
    {
      NETPART_SPAN("ml.cluster");
      c = heavy_edge_clustering(*cur, matching);
      // Community boundaries strangle clustering once each community has
      // fused into a single module; retry the level unrestricted (and stop
      // projecting labels — they carry no further signal) before giving up.
      if (communities_live &&
          static_cast<double>(n - c.num_clusters()) <
              kMultilevelMinShrink * static_cast<double>(n)) {
        matching.communities = {};
        communities_live = false;
        c = heavy_edge_clustering(*cur, matching);
      }
    }
    if (static_cast<double>(n - c.num_clusters()) <
        kMultilevelMinShrink * static_cast<double>(n))
      break;  // coarsening has converged; further levels condense nothing

    Contraction ct = [&] {
      NETPART_SPAN("ml.contract");
      return contract_with_info(*cur, c, weights);
    }();
    if (communities_live) {
      // Clusters are community-pure here, so any member's label will do.
      std::vector<std::int32_t> coarse_labels(
          static_cast<std::size_t>(c.num_clusters()));
      for (ModuleId m = 0; m < c.num_modules(); ++m)
        coarse_labels[static_cast<std::size_t>(c.cluster_of(m))] =
            communities[static_cast<std::size_t>(m)];
      communities = std::move(coarse_labels);
    }
    const double ratio =
        static_cast<double>(c.num_clusters()) / static_cast<double>(n);
    if (constraint != nullptr)
      cur_constraint = restrict_down(c, cur_constraint);
    NETPART_COUNTER_ADD("ml.level", 1);
    hier.levels.push_back(MultilevelLevel{std::move(c), std::move(ct.coarse),
                                          std::move(ct.module_weights),
                                          ratio});
    cur = &hier.levels.back().coarse;
  }
  return hier;
}

MultilevelResult multilevel_partition(const Hypergraph& h,
                                      const MultilevelOptions& options) {
  validate_options(options);

  MultilevelResult result;
  result.partition = Partition(h.num_modules(), Side::kLeft);
  if (h.num_modules() < 2) return result;

  NETPART_SPAN("multilevel");
  MultilevelHierarchy hier;
  {
    NETPART_SPAN("ml.coarsen");
    hier = coarsen_hierarchy(h, options, nullptr);
  }
  result.levels = static_cast<std::int32_t>(hier.levels.size());
  const Hypergraph& coarsest = hier.coarsest(h);
  result.coarsest_modules = coarsest.num_modules();

  result.level_stats.resize(hier.levels.size() + 1);
  result.level_stats[0].modules = h.num_modules();
  result.level_stats[0].nets = h.num_nets();
  result.level_stats[0].pins = h.num_pins();
  for (std::size_t i = 0; i < hier.levels.size(); ++i) {
    MultilevelLevelStats& stats = result.level_stats[i + 1];
    stats.modules = hier.levels[i].coarse.num_modules();
    stats.nets = hier.levels[i].coarse.num_nets();
    stats.pins = hier.levels[i].coarse.num_pins();
    stats.coarsen_ratio = hier.levels[i].coarsen_ratio;
  }

  // Initial solution: IG-Match, run only on the coarsest instance.
  Partition current(coarsest.num_modules(), Side::kLeft);
  {
    NETPART_SPAN("ml.solve");
    const IgMatchResult coarse_result =
        igmatch_partition(coarsest, options.igmatch);
    current = coarse_result.partition;
    result.lambda2 = coarse_result.lambda2;
    result.eigen_converged = coarse_result.eigen_converged;
  }
  if (!current.is_proper() && coarsest.num_modules() >= 2) {
    // Degenerate coarsest instance (e.g. a single net): fall back to an
    // arbitrary proper split; refinement will fix it up.
    current = Partition(coarsest.num_modules(), Side::kLeft);
    current.assign(0, Side::kRight);
  }
  result.coarsest_partition = current;

  {
    NETPART_SPAN("ml.refine");
    uncoarsen_refine(h, hier, options, current, &result.level_stats);
  }

  if (options.vcycles > 0 && current.is_proper()) {
    NETPART_SPAN("ml.vcycle");
    current = run_vcycles(h, std::move(current), options, options.vcycles,
                          &result.vcycles_run);
  }

  result.partition = std::move(current);
  result.nets_cut = net_cut(h, result.partition);
  result.ratio = ratio_cut(h, result.partition);

  obs::MetricsRegistry& registry = obs::MetricsRegistry::instance();
  if (registry.enabled()) {
    double total_gain = 0.0;
    for (const MultilevelLevelStats& stats : result.level_stats)
      total_gain += stats.refine_gain;
    registry.set_gauge("ml.levels", result.levels);
    registry.set_gauge("ml.coarsen_ratio",
                       static_cast<double>(result.coarsest_modules) /
                           static_cast<double>(h.num_modules()));
    registry.set_gauge("ml.refine_gain", total_gain);
    registry.set_gauge("ml.vcycles_run", result.vcycles_run);
  }
  return result;
}

Partition vcycle_refine(const Hypergraph& h, const Partition& initial,
                        const MultilevelOptions& options,
                        std::int32_t* cycles_run) {
  validate_options(options);
  if (initial.num_modules() != h.num_modules())
    throw std::invalid_argument("vcycle_refine: partition size mismatch");
  if (cycles_run != nullptr) *cycles_run = 0;
  if (!initial.is_proper()) return initial;
  NETPART_SPAN("ml.vcycle");
  return run_vcycles(h, initial, options, std::max(1, options.vcycles),
                     cycles_run);
}

}  // namespace netpart
