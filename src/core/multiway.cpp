#include "core/multiway.hpp"

#include "core/kway_refine.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "parallel/parallel_for.hpp"

namespace netpart {

MultiwayPartition::MultiwayPartition(std::vector<std::int32_t> block_of)
    : block_of_(std::move(block_of)) {
  std::int32_t max_id = -1;
  for (const std::int32_t b : block_of_) {
    if (b < 0)
      throw std::invalid_argument("MultiwayPartition: negative block id");
    max_id = std::max(max_id, b);
  }
  num_blocks_ = max_id + 1;
  block_sizes_.assign(static_cast<std::size_t>(num_blocks_), 0);
  for (const std::int32_t b : block_of_)
    ++block_sizes_[static_cast<std::size_t>(b)];
  for (const std::int32_t size : block_sizes_)
    if (size == 0)
      throw std::invalid_argument("MultiwayPartition: block ids not dense");
}

std::int32_t spanning_net_count(const Hypergraph& h,
                                const MultiwayPartition& p) {
  std::int32_t count = 0;
  for (NetId n = 0; n < h.num_nets(); ++n) {
    const auto pins = h.pins(n);
    if (pins.empty()) continue;
    const std::int32_t first = p.block_of(pins.front());
    for (const ModuleId m : pins)
      if (p.block_of(m) != first) {
        ++count;
        break;
      }
  }
  return count;
}

std::int32_t connectivity_minus_one(const Hypergraph& h,
                                    const MultiwayPartition& p) {
  std::int32_t cost = 0;
  std::vector<std::int32_t> touched;
  for (NetId n = 0; n < h.num_nets(); ++n) {
    touched.clear();
    for (const ModuleId m : h.pins(n)) touched.push_back(p.block_of(m));
    std::sort(touched.begin(), touched.end());
    touched.erase(std::unique(touched.begin(), touched.end()),
                  touched.end());
    if (!touched.empty())
      cost += static_cast<std::int32_t>(touched.size()) - 1;
  }
  return cost;
}

MultiwayResult multiway_partition(const Hypergraph& h,
                                  const MultiwayOptions& options) {
  NETPART_SPAN("multiway");
  if (options.max_block_size < 2)
    throw std::invalid_argument("multiway_partition: max_block_size < 2");

  MultiwayResult result;
  std::vector<std::int32_t> block_of(
      static_cast<std::size_t>(h.num_modules()), 0);
  if (h.num_modules() == 0) {
    result.partition = MultiwayPartition(std::move(block_of));
    return result;
  }

  // Work queue of blocks (module-id lists in the ORIGINAL netlist).
  std::vector<std::vector<ModuleId>> blocks;
  {
    std::vector<ModuleId> all(static_cast<std::size_t>(h.num_modules()));
    for (ModuleId m = 0; m < h.num_modules(); ++m)
      all[static_cast<std::size_t>(m)] = m;
    blocks.push_back(std::move(all));
  }

  // Recursive decomposition in waves: every oversized block of a wave is an
  // independent sub-problem (it only reads its own member list and the
  // original netlist), so the wave's bipartitions run in parallel on the
  // shared pool.  Results are applied sequentially in block-index order and
  // block ids are assigned by that deterministic order, so the decomposition
  // is identical for every thread count.  A block whose split comes back
  // improper cannot be divided further and is never re-examined (matching
  // the sequential behaviour this replaces).
  struct SplitOutcome {
    std::vector<ModuleId> left;
    std::vector<ModuleId> right;
    bool proper = false;
  };
  std::vector<std::size_t> pending{0};
  while (!pending.empty()) {
    std::vector<std::size_t> wave;
    for (const std::size_t index : pending)
      if (static_cast<std::int32_t>(blocks[index].size()) >
          options.max_block_size)
        wave.push_back(index);
    if (wave.empty()) break;

    std::vector<SplitOutcome> outcomes(wave.size());
    parallel::parallel_tasks(
        static_cast<std::int64_t>(wave.size()), 0,
        [&](std::int64_t w, std::size_t) {
          const std::vector<ModuleId>& members =
              blocks[wave[static_cast<std::size_t>(w)]];
          const Hypergraph sub = induce_subhypergraph(h, members);
          const PartitionResult split =
              run_partitioner(sub, options.bipartitioner);
          SplitOutcome& out = outcomes[static_cast<std::size_t>(w)];
          if (!split.partition.is_proper()) return;
          out.proper = true;
          for (std::size_t i = 0; i < members.size(); ++i)
            (split.partition.side(static_cast<ModuleId>(i)) == Side::kLeft
                 ? out.left
                 : out.right)
                .push_back(members[i]);
        });

    pending.clear();
    for (std::size_t w = 0; w < wave.size(); ++w) {
      SplitOutcome& out = outcomes[w];
      if (!out.proper) continue;  // cannot split further
      ++result.splits_performed;
      blocks[wave[w]] = std::move(out.left);
      pending.push_back(wave[w]);
      blocks.push_back(std::move(out.right));
      pending.push_back(blocks.size() - 1);
    }
  }

  for (std::size_t b = 0; b < blocks.size(); ++b)
    for (const ModuleId m : blocks[b])
      block_of[static_cast<std::size_t>(m)] = static_cast<std::int32_t>(b);

  result.partition = MultiwayPartition(std::move(block_of));
  if (options.refine && result.partition.num_blocks() > 1) {
    KwayRefineOptions refine_options;
    refine_options.max_block_size = std::max(
        options.max_block_size, [&] {
          std::int32_t largest = 0;
          for (std::int32_t b = 0; b < result.partition.num_blocks(); ++b)
            largest = std::max(largest, result.partition.block_size(b));
          return largest;
        }());
    result.partition =
        kway_refine(h, result.partition, refine_options).partition;
  }
  result.nets_spanning = spanning_net_count(h, result.partition);
  result.connectivity_cost = connectivity_minus_one(h, result.partition);
  NETPART_COUNTER_ADD("multiway.splits_performed", result.splits_performed);
  NETPART_COUNTER_ADD("multiway.blocks", result.partition.num_blocks());
  return result;
}

}  // namespace netpart
