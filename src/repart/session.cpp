#include "repart/session.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "hypergraph/cut_metrics.hpp"
#include "obs/metrics.hpp"
#include "spectral/eig1.hpp"

namespace netpart::repart {

RepartitionSession::RepartitionSession(const Hypergraph& initial,
                                       RepartitionOptions options)
    : options_(std::move(options)), editor_(initial), h_(initial) {}

SessionWarmState RepartitionSession::export_warm_state() const {
  SessionWarmState state;
  state.valid = cache_valid_;
  state.fiedler = prev_fiedler_;
  state.order = prev_order_;
  state.best_rank = prev_best_rank_;
  state.partition = prev_partition_;
  state.cold_iterations = cold_iterations_;
  return state;
}

void RepartitionSession::import_warm_state(SessionWarmState state) {
  prev_fiedler_ = std::move(state.fiedler);
  prev_order_ = std::move(state.order);
  prev_best_rank_ = state.best_rank;
  prev_partition_ = std::move(state.partition);
  cold_iterations_ = state.cold_iterations;
  cache_valid_ =
      state.valid &&
      prev_fiedler_.size() == static_cast<std::size_t>(h_.num_nets()) &&
      prev_partition_.num_modules() == h_.num_modules();
  partition_cache_valid_ =
      state.valid && prev_partition_.num_modules() == h_.num_modules();
}

std::vector<char> RepartitionSession::build_rank_mask(
    const ChangeSet& changes, const std::vector<std::int32_t>& order) {
  const auto m = static_cast<std::int32_t>(order.size());
  const std::int32_t last = m - 1;  // split ranks are 1..m-1
  std::vector<char> mask(static_cast<std::size_t>(m), 0);
  const std::int32_t w = std::max<std::int32_t>(1, options_.sweep_window);
  const auto mark = [&](std::int32_t rank) {
    const std::int32_t lo = std::max<std::int32_t>(1, rank - w);
    const std::int32_t hi = std::min<std::int32_t>(last, rank + w);
    for (std::int32_t r = lo; r <= hi; ++r)
      mask[static_cast<std::size_t>(r)] = 1;
  };

  std::vector<std::int32_t> pos(static_cast<std::size_t>(m), 0);
  for (std::int32_t i = 0; i < m; ++i)
    pos[static_cast<std::size_t>(order[static_cast<std::size_t>(i)])] = i;

  // The perturbed region of the ordering: ranks of the nets the batch
  // touched — dirty nets, nets with no preimage in the remap (every net
  // added since the cached epoch), and every net incident to a dirty module
  // (a degree change alters the 1/(d_k - 1) term of every IG edge through
  // that module).  Splits far from every edited net and from the previous
  // winner are not re-evaluated — near-flat stretches of the Fiedler vector
  // permute arbitrarily under any perturbation, so chasing ordering drift
  // itself degenerates into a full sweep; the prev-partition quality guard
  // in repartition() backstops anything a small mask misses.
  std::vector<char> affected(static_cast<std::size_t>(m), 1);
  for (const std::int32_t id : changes.net_remap)
    if (id >= 0) affected[static_cast<std::size_t>(id)] = 0;
  for (const NetId a : changes.dirty_nets)
    affected[static_cast<std::size_t>(a)] = 1;
  for (const ModuleId k : changes.dirty_modules)
    for (const NetId a : h_.nets_of(k))
      affected[static_cast<std::size_t>(a)] = 1;
  for (NetId a = 0; a < m; ++a)
    if (affected[static_cast<std::size_t>(a)])
      mark(pos[static_cast<std::size_t>(a)] + 1);

  // The neighbourhood of the previous winner is always worth re-checking.
  // Track its boundary nets through the remap so the window follows the
  // split even when the whole ordering shifts.
  mark(std::clamp<std::int32_t>(prev_best_rank_, 1, std::max(1, last)));
  const auto prev_m = static_cast<std::int32_t>(prev_order_.size());
  const std::int32_t lo_b = std::max<std::int32_t>(0, prev_best_rank_ - 2);
  const std::int32_t hi_b = std::min<std::int32_t>(prev_m - 1, prev_best_rank_ + 1);
  for (std::int32_t i = lo_b; i <= hi_b; ++i) {
    const std::int32_t id = changes.net_remap[static_cast<std::size_t>(
        prev_order_[static_cast<std::size_t>(i)])];
    if (id >= 0) mark(pos[static_cast<std::size_t>(id)] + 1);
  }

  std::int64_t count = 0;
  for (std::int32_t r = 1; r <= last; ++r)
    count += mask[static_cast<std::size_t>(r)];
  if (count == 0 ||
      static_cast<double>(count) >=
          options_.full_sweep_fraction * static_cast<double>(last))
    return {};  // full sweep: the mask would not buy anything
  return mask;
}

RepartitionResult RepartitionSession::repartition() {
  NETPART_SPAN("repartition");
  NETPART_COUNTER_ADD("repart.runs", 1);

  ChangeSet changes = editor_.drain_changes();
  if (!changes.empty()) {
    NETPART_SPAN("materialize");
    h_ = editor_.materialize();
  }
  const std::int32_t n = editor_.num_modules();
  const std::int32_t m = h_.num_nets();
  RepartitionResult out;

  if (m < 2 || n < 2) {
    out.partition = Partition(n);
    out.ratio = std::numeric_limits<double>::infinity();
    cache_valid_ = false;
    partition_cache_valid_ = false;
    return out;
  }

  if (options_.vcycle_threshold > 0 && n >= options_.vcycle_threshold)
    return repartition_vcycle(changes, std::move(out));

  // Only the flat path reads the intersection graph, so only it builds one,
  // from scratch, for this call alone.
  NETPART_COUNTER_ADD("repart.ig_builds", 1);
  const WeightedGraph ig = intersection_graph(h_, options_.weighting);

  // A warm start additionally requires the cache to be of the epoch the
  // journal's remap tables refer to (they always are when edits flow
  // through this session's netlist() between repartition() calls).
  const bool warm =
      options_.warm_start && cache_valid_ &&
      prev_fiedler_.size() == changes.net_remap.size() &&
      static_cast<std::size_t>(prev_partition_.num_modules()) ==
          changes.module_remap.size();

  linalg::LanczosOptions lanczos = options_.lanczos;
  if (warm) {
    std::vector<double> guess(static_cast<std::size_t>(m), 0.0);
    for (std::size_t old_id = 0; old_id < changes.net_remap.size(); ++old_id) {
      const std::int32_t id = changes.net_remap[old_id];
      if (id >= 0) guess[static_cast<std::size_t>(id)] = prev_fiedler_[old_id];
    }
    lanczos.initial_guess = std::move(guess);
    lanczos.check_interval = std::max<std::int32_t>(1, options_.warm_check_interval);
    NETPART_COUNTER_ADD("repart.cache_hits", 1);
  } else {
    NETPART_COUNTER_ADD("repart.cache_misses", 1);
  }

  NetOrdering ordering = spectral_net_ordering_of_ig(h_, ig, lanczos, 0);
  out.lambda2 = ordering.lambda2;
  out.eigen_converged = ordering.eigen_converged;
  out.lanczos_iterations = ordering.lanczos_iterations;
  out.warm_started = warm;
  if (warm && cold_iterations_ > ordering.lanczos_iterations)
    NETPART_COUNTER_ADD("repart.warmstart_iters_saved",
                        cold_iterations_ - ordering.lanczos_iterations);

  std::vector<char> mask;
  if (warm) mask = build_rank_mask(changes, ordering.order);

  IgMatchOptions igmatch;
  igmatch.weighting = options_.weighting;
  igmatch.lanczos = options_.lanczos;
  const IgMatchResult sweep =
      igmatch_sweep(h_, ig, ordering.order, mask, igmatch);

  out.sweep_ranks_total = m - 1;
  out.sweep_ranks_evaluated = out.sweep_ranks_total;
  if (!mask.empty()) {
    std::int32_t count = 0;
    for (std::int32_t r = 1; r < m; ++r)
      count += mask[static_cast<std::size_t>(r)];
    out.sweep_ranks_evaluated = count;
  }
  NETPART_COUNTER_ADD("repart.sweep_ranks_evaluated", out.sweep_ranks_evaluated);
  NETPART_COUNTER_ADD("repart.sweep_ranks_skipped",
                      out.sweep_ranks_total - out.sweep_ranks_evaluated);

  out.partition = sweep.partition;
  out.nets_cut = sweep.nets_cut;
  out.ratio = sweep.ratio;

  // Quality guard: the previous answer, remapped, is always a candidate —
  // a masked sweep can then never regress below simply keeping the old
  // partition (new modules default to the left side).
  if (warm) {
    Partition candidate(n);
    for (std::size_t old_id = 0; old_id < changes.module_remap.size();
         ++old_id) {
      const std::int32_t id = changes.module_remap[old_id];
      if (id >= 0)
        candidate.assign(id,
                         prev_partition_.side(static_cast<ModuleId>(old_id)));
    }
    if (candidate.size(Side::kLeft) > 0 && candidate.size(Side::kRight) > 0) {
      const std::int32_t cut = net_cut(h_, candidate);
      const double ratio = ratio_cut_value(cut, candidate.size(Side::kLeft),
                                           candidate.size(Side::kRight));
      if (ratio < out.ratio) {
        out.partition = candidate;
        out.nets_cut = cut;
        out.ratio = ratio;
        out.used_previous_partition = true;
        NETPART_COUNTER_ADD("repart.prev_partition_wins", 1);
      }
    }
  }

  // Refresh the cache for the next run.
  if (!warm) cold_iterations_ = ordering.lanczos_iterations;
  prev_fiedler_ = std::move(ordering.fiedler);
  prev_order_ = std::move(ordering.order);
  prev_best_rank_ = sweep.best_rank;
  prev_partition_ = out.partition;
  cache_valid_ = prev_fiedler_.size() == static_cast<std::size_t>(m);
  partition_cache_valid_ = true;
  return out;
}

RepartitionResult RepartitionSession::repartition_vcycle(
    const ChangeSet& changes, RepartitionResult out) {
  NETPART_SPAN("repart.vcycle");
  NETPART_COUNTER_ADD("repart.vcycle_runs", 1);
  out.used_vcycle = true;
  const std::int32_t n = h_.num_modules();

  MultilevelOptions ml = options_.vcycle;
  ml.igmatch.weighting = options_.weighting;
  ml.igmatch.lanczos = options_.lanczos;

  // Warm start: the remapped previous partition seeds partition-constrained
  // V-cycles.  vcycle_refine is improvement-guarded, so the result is never
  // worse than carrying the old answer forward — the same contract the flat
  // path enforces with its explicit prev-partition candidate.
  const bool warm =
      options_.warm_start && partition_cache_valid_ &&
      static_cast<std::size_t>(prev_partition_.num_modules()) ==
          changes.module_remap.size();
  bool warm_used = false;
  if (warm) {
    Partition candidate(n);
    for (std::size_t old_id = 0; old_id < changes.module_remap.size();
         ++old_id) {
      const std::int32_t id = changes.module_remap[old_id];
      if (id >= 0)
        candidate.assign(id,
                         prev_partition_.side(static_cast<ModuleId>(old_id)));
    }
    if (candidate.is_proper()) {
      NETPART_COUNTER_ADD("repart.cache_hits", 1);
      out.warm_started = true;
      out.partition = vcycle_refine(h_, candidate, ml, &out.vcycles_run);
      out.used_previous_partition = out.vcycles_run == 0;
      if (out.used_previous_partition)
        NETPART_COUNTER_ADD("repart.prev_partition_wins", 1);
      warm_used = true;
    }
  }
  if (!warm_used) {
    NETPART_COUNTER_ADD("repart.cache_misses", 1);
    if (ml.vcycles < 1) ml.vcycles = 1;
    const MultilevelResult r = multilevel_partition(h_, ml);
    out.partition = r.partition;
    out.lambda2 = r.lambda2;
    out.eigen_converged = r.eigen_converged;
    out.vcycles_run = r.vcycles_run;
  }
  out.nets_cut = net_cut(h_, out.partition);
  out.ratio = ratio_cut_value(out.nets_cut, out.partition.size(Side::kLeft),
                              out.partition.size(Side::kRight));

  // No Fiedler vector was computed on this path, so the flat path's
  // spectral cache dies here; the partition cache survives and feeds the
  // next warm V-cycle.
  prev_fiedler_.clear();
  prev_order_.clear();
  prev_best_rank_ = 0;
  cache_valid_ = false;
  prev_partition_ = out.partition;
  partition_cache_valid_ = true;
  return out;
}

}  // namespace netpart::repart
