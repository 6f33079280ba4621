#pragma once

#include <cstdint>

#include "core/multiway.hpp"
#include "hypergraph/hypergraph.hpp"

/// \file kway_refine.hpp
/// Direct k-way refinement of a multiway partition — the "multiple-way
/// network partitioning" lineage the paper cites (Sanchis [26], Yeh et
/// al. [35]).  Greedy best-target passes over the modules optimize the
/// connectivity-minus-one cost (the sum over nets of blocks-touched − 1,
/// the standard multiway cut metric) under per-block size bounds.
///
/// Used as a post-pass after recursive bisection: bisection decisions are
/// locally two-way optimal but can strand modules whose best block only
/// exists further down the recursion tree.

namespace netpart {

/// Full passes over the modules; refinement stops early when a pass moves
/// nothing.
inline constexpr std::int32_t kKwayRefineMaxPasses = 8;

/// Options for the k-way refinement.
struct KwayRefineOptions {
  /// Upper bound on any block's size after refinement (0 = the maximum
  /// block size of the input partition — never make imbalance worse).
  std::int32_t max_block_size = 0;
};

/// Result of a refinement run.
struct KwayRefineResult {
  MultiwayPartition partition;
  std::int32_t moves_made = 0;
  std::int32_t passes_run = 0;
  std::int32_t cost_before = 0;  ///< connectivity-1 before
  std::int32_t cost_after = 0;   ///< connectivity-1 after
};

/// Refine `p` on `h`.  Only strictly improving moves are taken, so
/// cost_after <= cost_before always.  Throws std::invalid_argument when
/// the partition does not match the hypergraph or the size bound is
/// infeasible for the input.
[[nodiscard]] KwayRefineResult kway_refine(
    const Hypergraph& h, const MultiwayPartition& p,
    const KwayRefineOptions& options = {});

}  // namespace netpart
