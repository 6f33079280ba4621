#include "core/kway_refine.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace netpart {

namespace {

/// Per-net pin counts by block, kept as a small sorted (block, count) list
/// — nets touch few blocks in practice.
class NetBlockCounts {
 public:
  void add(std::int32_t block) {
    const auto it = find(block);
    if (it != entries_.end() && it->first == block)
      ++it->second;
    else
      entries_.insert(it, {block, 1});
  }

  void remove(std::int32_t block) {
    const auto it = find(block);
    if (--it->second == 0) entries_.erase(it);
  }

  [[nodiscard]] std::int32_t count(std::int32_t block) const {
    const auto it = const_cast<NetBlockCounts*>(this)->find(block);
    return (it != entries_.end() && it->first == block) ? it->second : 0;
  }

  [[nodiscard]] const std::vector<std::pair<std::int32_t, std::int32_t>>&
  entries() const {
    return entries_;
  }

 private:
  std::vector<std::pair<std::int32_t, std::int32_t>>::iterator find(
      std::int32_t block) {
    return std::lower_bound(
        entries_.begin(), entries_.end(), block,
        [](const auto& e, std::int32_t b) { return e.first < b; });
  }

  std::vector<std::pair<std::int32_t, std::int32_t>> entries_;
};

}  // namespace

KwayRefineResult kway_refine(const Hypergraph& h, const MultiwayPartition& p,
                             const KwayRefineOptions& options) {
  if (p.num_modules() != h.num_modules())
    throw std::invalid_argument("kway_refine: partition size mismatch");

  const std::int32_t k = p.num_blocks();
  std::vector<std::int32_t> block_of(static_cast<std::size_t>(
      h.num_modules()));
  std::vector<std::int32_t> block_size(static_cast<std::size_t>(k), 0);
  for (ModuleId m = 0; m < h.num_modules(); ++m) {
    block_of[static_cast<std::size_t>(m)] = p.block_of(m);
    ++block_size[static_cast<std::size_t>(p.block_of(m))];
  }
  std::int32_t bound = options.max_block_size;
  const std::int32_t largest =
      *std::max_element(block_size.begin(), block_size.end());
  if (bound == 0) bound = largest;
  if (bound < largest)
    throw std::invalid_argument(
        "kway_refine: max_block_size below the input's largest block");

  std::vector<NetBlockCounts> nets(static_cast<std::size_t>(h.num_nets()));
  for (NetId n = 0; n < h.num_nets(); ++n)
    for (const ModuleId m : h.pins(n))
      nets[static_cast<std::size_t>(n)].add(
          block_of[static_cast<std::size_t>(m)]);

  KwayRefineResult result;
  result.cost_before = connectivity_minus_one(h, p);

  std::vector<std::int32_t> candidates;
  for (std::int32_t pass = 0; pass < kKwayRefineMaxPasses; ++pass) {
    ++result.passes_run;
    std::int32_t moves_this_pass = 0;
    for (ModuleId m = 0; m < h.num_modules(); ++m) {
      const std::int32_t from = block_of[static_cast<std::size_t>(m)];
      if (block_size[static_cast<std::size_t>(from)] <= 1) continue;

      // Candidate targets: blocks present on the module's nets.  A move to
      // any other block can never have positive gain.
      candidates.clear();
      for (const NetId n : h.nets_of(m))
        for (const auto& [block, count] :
             nets[static_cast<std::size_t>(n)].entries())
          if (block != from) candidates.push_back(block);
      std::sort(candidates.begin(), candidates.end());
      candidates.erase(std::unique(candidates.begin(), candidates.end()),
                       candidates.end());

      std::int32_t best_gain = 0;
      std::int32_t best_target = -1;
      for (const std::int32_t to : candidates) {
        if (block_size[static_cast<std::size_t>(to)] + 1 > bound) continue;
        std::int32_t gain = 0;
        for (const NetId n : h.nets_of(m)) {
          const NetBlockCounts& counts = nets[static_cast<std::size_t>(n)];
          if (counts.count(from) == 1) ++gain;  // `from` leaves this net
          if (counts.count(to) == 0) --gain;    // `to` joins this net
        }
        // Strict improvement; ties broken toward the lower block id by the
        // iteration order.
        if (gain > best_gain) {
          best_gain = gain;
          best_target = to;
        }
      }
      if (best_target < 0) continue;

      for (const NetId n : h.nets_of(m)) {
        nets[static_cast<std::size_t>(n)].remove(from);
        nets[static_cast<std::size_t>(n)].add(best_target);
      }
      --block_size[static_cast<std::size_t>(from)];
      ++block_size[static_cast<std::size_t>(best_target)];
      block_of[static_cast<std::size_t>(m)] = best_target;
      ++moves_this_pass;
    }
    result.moves_made += moves_this_pass;
    if (moves_this_pass == 0) break;
  }

  result.partition = MultiwayPartition(std::move(block_of));
  result.cost_after = connectivity_minus_one(h, result.partition);
  return result;
}

}  // namespace netpart
