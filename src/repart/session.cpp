#include "repart/session.hpp"

#include <limits>
#include <utility>

#include "hypergraph/cut_metrics.hpp"
#include "obs/metrics.hpp"

namespace netpart::repart {

RepartitionSession::RepartitionSession(const Hypergraph& initial,
                                       RepartitionOptions options)
    : options_(std::move(options)), editor_(initial), h_(initial) {}

SessionWarmState RepartitionSession::export_warm_state() const {
  return {valid_, prev_partition_};
}

void RepartitionSession::import_warm_state(SessionWarmState state) {
  prev_partition_ = std::move(state.partition);
  valid_ = state.valid && prev_partition_.num_modules() == h_.num_modules();
}

std::optional<Partition> RepartitionSession::carried_forward(
    const ChangeSet& changes) const {
  if (!valid_ || static_cast<std::size_t>(prev_partition_.num_modules()) !=
                     changes.module_remap.size())
    return std::nullopt;
  Partition candidate(h_.num_modules());
  for (std::size_t old_id = 0; old_id < changes.module_remap.size(); ++old_id) {
    const std::int32_t id = changes.module_remap[old_id];
    if (id >= 0)
      candidate.assign(id, prev_partition_.side(static_cast<ModuleId>(old_id)));
  }
  if (!candidate.is_proper()) return std::nullopt;
  return candidate;
}

RepartitionResult RepartitionSession::repartition() {
  NETPART_SPAN("repartition");
  NETPART_COUNTER_ADD("repart.runs", 1);

  const ChangeSet changes = editor_.drain_changes();
  if (changes.edited) {
    NETPART_SPAN("materialize");
    h_ = editor_.materialize();
  }
  const std::int32_t n = h_.num_modules();
  const std::int32_t m = h_.num_nets();
  RepartitionResult out;

  if (m < 2 || n < 2) {
    out.partition = Partition(n);
    out.ratio = std::numeric_limits<double>::infinity();
    valid_ = false;
    return out;
  }

  std::optional<Partition> carried = carried_forward(changes);
  NETPART_COUNTER_ADD(carried ? "repart.cache_hits" : "repart.cache_misses", 1);
  if (options_.vcycle_threshold > 0 && n >= options_.vcycle_threshold)
    return repartition_vcycle(std::move(carried), std::move(out));

  // The flat path is a cold IG-Match run on the edited netlist, which
  // builds its own intersection graph.
  IgMatchOptions igmatch;
  igmatch.weighting = options_.weighting;
  igmatch.lanczos = options_.lanczos;
  NETPART_COUNTER_ADD("repart.ig_builds", 1);
  IgMatchResult cold = igmatch_partition(h_, igmatch);
  out.partition = std::move(cold.partition);
  out.nets_cut = cold.nets_cut;
  out.ratio = cold.ratio;
  out.lambda2 = cold.lambda2;
  out.eigen_converged = cold.eigen_converged;
  out.lanczos_iterations = cold.lanczos_iterations;
  out.sweep_ranks_total = m - 1;
  out.sweep_ranks_evaluated = m - 1;

  // Quality guard: the previous answer, carried forward, wins only with a
  // strictly lower ratio, so a warm answer is never worse than keeping the
  // old partition and otherwise equals the cold one.
  if (carried) {
    out.warm_started = true;
    const std::int32_t cut = net_cut(h_, *carried);
    const double ratio = ratio_cut_value(cut, carried->size(Side::kLeft),
                                         carried->size(Side::kRight));
    if (ratio < out.ratio) {
      out.partition = std::move(*carried);
      out.nets_cut = cut;
      out.ratio = ratio;
      out.used_previous_partition = true;
      NETPART_COUNTER_ADD("repart.prev_partition_wins", 1);
    }
  }

  prev_partition_ = out.partition;
  valid_ = true;
  return out;
}

RepartitionResult RepartitionSession::repartition_vcycle(
    std::optional<Partition> carried, RepartitionResult out) {
  NETPART_SPAN("repart.vcycle");
  NETPART_COUNTER_ADD("repart.vcycle_runs", 1);
  out.used_vcycle = true;

  MultilevelOptions ml = options_.vcycle;
  ml.igmatch.weighting = options_.weighting;
  ml.igmatch.lanczos = options_.lanczos;

  // Warm start: the carried-forward partition seeds partition-constrained
  // V-cycles.  vcycle_refine is improvement-guarded, so the result is never
  // worse than carrying the old answer forward — the same contract the flat
  // path enforces with its explicit candidate.
  if (carried) {
    out.warm_started = true;
    out.partition = vcycle_refine(h_, *carried, ml, &out.vcycles_run);
    out.used_previous_partition = out.vcycles_run == 0;
    if (out.used_previous_partition)
      NETPART_COUNTER_ADD("repart.prev_partition_wins", 1);
  } else {
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

  prev_partition_ = out.partition;
  valid_ = true;
  return out;
}

}  // namespace netpart::repart
