#include "fm/annealing.hpp"

#include <cmath>

#include "circuits/rng.hpp"
#include "fm/fm_partition.hpp"
#include "hypergraph/cut_metrics.hpp"

namespace netpart {

AnnealingResult anneal_ratio_cut(const Hypergraph& h,
                                 const AnnealingOptions& options) {
  const std::int32_t n = h.num_modules();
  AnnealingResult result;
  result.partition = Partition(n, Side::kLeft);
  if (n < 2) return result;

  Xoshiro256 rng(options.seed);
  IncrementalCut state(h, random_balanced_partition(n, options.seed));

  double best_ratio = state.ratio();
  Partition best = state.partition();
  double temperature = best_ratio * kAnnealingInitialTemperatureFactor;
  if (temperature <= 0.0) temperature = 1e-6;

  const auto moves_per_sweep = static_cast<std::int64_t>(
      kAnnealingMovesPerModule * static_cast<double>(n));
  std::int32_t frozen_sweeps = 0;

  for (std::int32_t sweep = 0; sweep < kAnnealingMaxSweeps; ++sweep) {
    ++result.sweeps;
    std::int64_t accepted_this_sweep = 0;
    for (std::int64_t move = 0; move < moves_per_sweep; ++move) {
      const auto m = static_cast<ModuleId>(
          rng.below(static_cast<std::uint64_t>(n)));
      // Never empty a side: such states have infinite ratio anyway.
      if (state.partition().size(state.partition().side(m)) <= 1) continue;

      const double before = state.ratio();
      state.flip(m);
      const double after = state.ratio();
      const double delta = after - before;
      const bool accept =
          delta <= 0.0 || rng.uniform() < std::exp(-delta / temperature);
      if (!accept) {
        state.flip(m);  // undo
        continue;
      }
      ++accepted_this_sweep;
      if (after < best_ratio) {
        best_ratio = after;
        best = state.partition();
      }
    }
    result.accepted_moves += accepted_this_sweep;
    temperature *= kAnnealingCooling;
    frozen_sweeps = accepted_this_sweep == 0 ? frozen_sweeps + 1 : 0;
    if (frozen_sweeps >= kAnnealingFreezeAfter) break;
  }

  result.partition = std::move(best);
  result.nets_cut = net_cut(h, result.partition);
  result.ratio = ratio_cut(h, result.partition);
  return result;
}

}  // namespace netpart
