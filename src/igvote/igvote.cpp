#include "igvote/igvote.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <vector>

#include "hypergraph/cut_metrics.hpp"
#include "spectral/eig1.hpp"

namespace netpart {

namespace {

/// One directional vote sweep (Figure 8).  All modules start on
/// `start_side`; nets are processed in `order`; a module defects to the
/// opposite side once kIgVoteThreshold of its incident net-weight has
/// moved.
/// Returns the best proper partition seen and its ratio.
struct SweepOutcome {
  Partition partition;
  double ratio = std::numeric_limits<double>::infinity();
  std::int32_t nets_cut = 0;
  bool found = false;
};

SweepOutcome vote_sweep(const Hypergraph& h,
                        std::span<const std::int32_t> order, Side start_side) {
  const std::int32_t n = h.num_modules();
  const Side move_side = opposite(start_side);

  // Total incident net-weight per module: sum of 1/|s| over incident nets.
  std::vector<double> total_weight(static_cast<std::size_t>(n), 0.0);
  for (NetId net = 0; net < h.num_nets(); ++net) {
    const double w = 1.0 / static_cast<double>(h.net_size(net));
    for (const ModuleId m : h.pins(net))
      total_weight[static_cast<std::size_t>(m)] += w;
  }

  std::vector<double> moved_weight(static_cast<std::size_t>(n), 0.0);
  IncrementalCut tracker(h, Partition(n, start_side));
  SweepOutcome best;
  for (const std::int32_t net : order) {
    const double w = 1.0 / static_cast<double>(h.net_size(net));
    for (const ModuleId m : h.pins(net)) {
      double& z = moved_weight[static_cast<std::size_t>(m)];
      z += w;
      if (z >= kIgVoteThreshold * total_weight[static_cast<std::size_t>(m)] &&
          tracker.partition().side(m) == start_side)
        tracker.move(m, move_side);
    }
    const double ratio = tracker.ratio();
    if (ratio < best.ratio) {
      best.ratio = ratio;
      best.partition = tracker.partition();
      best.nets_cut = tracker.cut();
      best.found = true;
    }
  }
  return best;
}

}  // namespace

IgVoteResult igvote_with_ordering(const Hypergraph& h,
                                  std::span<const std::int32_t> net_order) {
  if (static_cast<std::int32_t>(net_order.size()) != h.num_nets())
    throw std::invalid_argument("igvote_with_ordering: order size mismatch");

  IgVoteResult result;
  result.partition = Partition(h.num_modules(), Side::kLeft);
  if (h.num_modules() < 2 || h.num_nets() < 1) return result;

  const SweepOutcome forward = vote_sweep(h, net_order, Side::kLeft);
  std::vector<std::int32_t> reversed(net_order.rbegin(), net_order.rend());
  const SweepOutcome backward = vote_sweep(h, reversed, Side::kRight);

  const SweepOutcome* winner = nullptr;
  if (forward.found && (!backward.found || forward.ratio <= backward.ratio)) {
    winner = &forward;
    result.forward_sweep_won = true;
  } else if (backward.found) {
    winner = &backward;
  }
  if (winner != nullptr) {
    result.partition = winner->partition;
    result.nets_cut = winner->nets_cut;
    result.ratio = winner->ratio;
  }
  return result;
}

IgVoteResult igvote_partition(const Hypergraph& h) {
  if (h.num_nets() < 2 || h.num_modules() < 2) {
    IgVoteResult trivial;
    trivial.partition = Partition(h.num_modules(), Side::kLeft);
    return trivial;
  }
  const NetOrdering ordering = spectral_net_ordering(h);
  IgVoteResult result = igvote_with_ordering(h, ordering.order);
  result.lambda2 = ordering.lambda2;
  result.eigen_converged = ordering.eigen_converged;
  return result;
}

}  // namespace netpart
