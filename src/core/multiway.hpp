#pragma once

#include <cstdint>
#include <vector>

#include "core/partitioner.hpp"
#include "hypergraph/hypergraph.hpp"

/// \file multiway.hpp
/// Recursive multi-way decomposition — the Section 1 motivation: "a
/// hierarchical divide-and-conquer approach is used to keep the layout
/// synthesis process tractable", with the number of (critical) signal nets
/// crossing between blocks as the minimized quantity.  Blocks are split
/// recursively with any configured bipartitioner until they fit the block
/// budget; Yeh et al. [35]-style direct multiway methods are out of scope
/// (the paper partitions two ways).

namespace netpart {

/// A k-way assignment of modules to blocks 0..num_blocks-1.
class MultiwayPartition {
 public:
  MultiwayPartition() = default;
  explicit MultiwayPartition(std::vector<std::int32_t> block_of);

  [[nodiscard]] std::int32_t num_modules() const {
    return static_cast<std::int32_t>(block_of_.size());
  }
  [[nodiscard]] std::int32_t num_blocks() const { return num_blocks_; }
  [[nodiscard]] std::int32_t block_of(ModuleId m) const {
    return block_of_[static_cast<std::size_t>(m)];
  }
  [[nodiscard]] std::int32_t block_size(std::int32_t b) const {
    return block_sizes_[static_cast<std::size_t>(b)];
  }

 private:
  std::vector<std::int32_t> block_of_;
  std::vector<std::int32_t> block_sizes_;
  std::int32_t num_blocks_ = 0;
};

/// Options for the recursive decomposition.
struct MultiwayOptions {
  /// Stop splitting a block once it has at most this many modules.
  std::int32_t max_block_size = 100;
  /// Hard cap on the number of blocks produced (0 = unlimited).
  std::int32_t max_blocks = 0;
  /// The bipartitioner applied at each split.  Its vcycle_threshold is
  /// honoured per block: giant blocks early in the recursion take the
  /// multilevel V-cycle cold path, and once splits drop below the
  /// threshold the flat algorithm takes over.  Each block re-coarsens its
  /// own induced sub-hypergraph — cluster quality depends on the block's
  /// internal connectivity, so a parent hierarchy restricted to a child
  /// block would inherit merges justified only by nets the split severed.
  PartitionerConfig bipartitioner;
  /// Run the direct k-way refinement (kway_refine.hpp) after the recursive
  /// bisection, fixing modules the bisection stranded across blocks.
  bool refine = true;
};

/// Result of a multiway decomposition.
struct MultiwayResult {
  MultiwayPartition partition;
  /// Nets spanning >= 2 blocks — the signals that would be multiplexed
  /// between hardware-simulator boards or chips (Section 1).
  std::int32_t nets_spanning = 0;
  /// Sum over nets of (blocks touched - 1): the standard "connectivity
  /// minus one" multiway cut metric.
  std::int32_t connectivity_cost = 0;
  std::int32_t splits_performed = 0;
};

/// Number of nets of `h` spanning at least two blocks of `p`.
[[nodiscard]] std::int32_t spanning_net_count(const Hypergraph& h,
                                              const MultiwayPartition& p);

/// Sum over nets of (number of blocks touched - 1).
[[nodiscard]] std::int32_t connectivity_minus_one(const Hypergraph& h,
                                                  const MultiwayPartition& p);

/// Recursively decompose `h` into blocks of at most max_block_size modules.
[[nodiscard]] MultiwayResult multiway_partition(
    const Hypergraph& h, const MultiwayOptions& options = {});

}  // namespace netpart
