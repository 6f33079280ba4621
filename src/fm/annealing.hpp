#pragma once

#include <cstdint>

#include "hypergraph/hypergraph.hpp"
#include "hypergraph/partition.hpp"

/// \file annealing.hpp
/// Simulated-annealing ratio-cut partitioning — the stochastic
/// hill-climbing class of Section 1.1 (Kirkpatrick et al. [20], Sechen
/// [28]).  Moves are single-module side flips; acceptance follows the
/// Metropolis rule on the ratio-cut objective with a geometric cooling
/// schedule.  Included as a baseline: the paper's argument is that
/// deterministic spectral methods beat such randomized searches on both
/// quality-per-time and stability.

namespace netpart {

/// Initial temperature as a multiple of the initial ratio-cut value
/// (scale-free: the objective is ~1e-4 on real circuits).
inline constexpr double kAnnealingInitialTemperatureFactor = 2.0;
/// A run stops after this many sweeps (or earlier once frozen).
inline constexpr std::int32_t kAnnealingMaxSweeps = 120;
/// A run freezes after this many consecutive sweeps without an accepted
/// move.
inline constexpr std::int32_t kAnnealingFreezeAfter = 5;

/// Annealing schedule and run options.
struct AnnealingOptions {
  std::uint64_t seed = 0x5EEDULL;
  /// Geometric cooling rate per sweep.
  double cooling = 0.95;
  /// Module flips attempted per sweep = moves_per_module * n.
  double moves_per_module = 4.0;
};

/// Result of an annealing run.
struct AnnealingResult {
  Partition partition;
  std::int32_t nets_cut = 0;
  double ratio = 0.0;
  std::int32_t sweeps = 0;
  std::int64_t accepted_moves = 0;
};

/// Anneal from a random balanced start.  The best-seen (not the final)
/// partition is returned.
[[nodiscard]] AnnealingResult anneal_ratio_cut(
    const Hypergraph& h, const AnnealingOptions& options = {});

}  // namespace netpart
