#include "cluster/clustering.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace netpart {

Clustering::Clustering(std::int32_t num_modules)
    : cluster_of_(static_cast<std::size_t>(num_modules)),
      cluster_sizes_(static_cast<std::size_t>(num_modules), 1),
      num_clusters_(num_modules) {
  std::iota(cluster_of_.begin(), cluster_of_.end(), 0);
}

Clustering::Clustering(std::vector<std::int32_t> cluster_of)
    : cluster_of_(std::move(cluster_of)) {
  std::int32_t max_id = -1;
  for (const std::int32_t c : cluster_of_) {
    if (c < 0) throw std::invalid_argument("Clustering: negative cluster id");
    max_id = std::max(max_id, c);
  }
  num_clusters_ = max_id + 1;
  cluster_sizes_.assign(static_cast<std::size_t>(num_clusters_), 0);
  for (const std::int32_t c : cluster_of_)
    ++cluster_sizes_[static_cast<std::size_t>(c)];
  for (const std::int32_t size : cluster_sizes_)
    if (size == 0)
      throw std::invalid_argument("Clustering: cluster ids not dense");
}

Partition Clustering::project(const Partition& cluster_partition) const {
  if (cluster_partition.num_modules() != num_clusters_)
    throw std::invalid_argument("Clustering::project: size mismatch");
  Partition out(num_modules());
  for (ModuleId m = 0; m < num_modules(); ++m)
    out.assign(m, cluster_partition.side(cluster_of(m)));
  return out;
}

namespace {

/// The rating loops below walk one module's nets at a time, and those nets
/// lie scattered over the whole net range, so every net costs a cache miss
/// on its pin list.  They prefetch pin lists ahead of use: the first
/// kPrefetchNetsAhead of the module they will visit kPrefetchModulesAhead
/// steps later, and, inside a module, the net kPrefetchNetsAhead positions
/// further down its list.  Prefetching a whole net list at once is worse
/// on the dense coarse levels, where a module has thousands of nets.
constexpr std::size_t kPrefetchModulesAhead = 4;
constexpr std::size_t kPrefetchNetsAhead = 16;

void prefetch_first_pin_lists(const Hypergraph& h, ModuleId m) {
  const auto nets = h.nets_of(m);
  const std::size_t count = std::min(nets.size(), kPrefetchNetsAhead);
  for (std::size_t i = 0; i < count; ++i) {
    const ModuleId* pins = h.pins(nets[i]).data();
    __builtin_prefetch(pins);
    // A loop of bare prefetches has no side effects, so GCC deletes it as
    // a finite loop; the empty asm consumes the address and keeps it.
    asm volatile("" : : "r"(pins));
  }
}

}  // namespace

Clustering heavy_edge_clustering(const Hypergraph& h,
                                 const MatchingOptions& options) {
  const std::int32_t n = h.num_modules();
  if (options.constraint != nullptr &&
      options.constraint->num_modules() != n)
    throw std::invalid_argument(
        "heavy_edge_clustering: constraint size mismatch");
  if (!options.module_weights.empty() &&
      options.module_weights.size() != static_cast<std::size_t>(n))
    throw std::invalid_argument(
        "heavy_edge_clustering: module_weights size mismatch");
  if (!options.communities.empty() &&
      options.communities.size() != static_cast<std::size_t>(n))
    throw std::invalid_argument(
        "heavy_edge_clustering: communities size mismatch");

  const auto weight_of = [&](ModuleId m) -> std::int64_t {
    return options.module_weights.empty()
               ? 1
               : options.module_weights[static_cast<std::size_t>(m)];
  };

  // Cluster joining, not pair matching: every module gets one chance to
  // join the neighbouring *cluster* it is most strongly connected to, so a
  // popular module's cluster keeps absorbing its neighbourhood instead of
  // closing after the first merge.  Pair matching shrinks a level by at
  // most half and in practice far less once the strong pairs are gone —
  // the multilevel engine stalled around 6% shrink per level with it,
  // leaving coarsest instances 5x too large.  cluster_of_rep[x] points
  // directly at the cluster representative (never a chain: a module with
  // members is skipped when visited, a member never accepts joiners,
  // because ratings target representatives only).
  std::vector<std::int32_t> cluster_of_rep(static_cast<std::size_t>(n));
  std::iota(cluster_of_rep.begin(), cluster_of_rep.end(), 0);
  std::vector<std::int32_t> cluster_size(static_cast<std::size_t>(n), 1);
  std::vector<std::int64_t> cluster_weight(static_cast<std::size_t>(n));
  for (ModuleId m = 0; m < n; ++m)
    cluster_weight[static_cast<std::size_t>(m)] = weight_of(m);

  // Visit order: decreasing degree, ties by increasing id (a counting sort,
  // so the order is exactly a stable sort's without its comparisons).
  std::vector<ModuleId> order(static_cast<std::size_t>(n));
  {
    std::int32_t max_degree = 0;
    for (ModuleId m = 0; m < n; ++m)
      max_degree = std::max(max_degree, h.module_degree(m));
    std::vector<std::int32_t> next_slot(
        static_cast<std::size_t>(max_degree) + 2, 0);
    for (ModuleId m = 0; m < n; ++m)
      ++next_slot[static_cast<std::size_t>(max_degree - h.module_degree(m)) +
                  1];
    for (std::size_t d = 1; d < next_slot.size(); ++d)
      next_slot[d] += next_slot[d - 1];
    for (ModuleId m = 0; m < n; ++m)
      order[static_cast<std::size_t>(
          next_slot[static_cast<std::size_t>(max_degree -
                                             h.module_degree(m))]++)] = m;
  }

  // Dense-accumulator ratings: contributions are strictly positive, so
  // rating[x] == 0 doubles as the "untouched" marker and `touched` lets us
  // reset only what this module dirtied.
  std::vector<double> rating(static_cast<std::size_t>(n), 0.0);
  std::vector<ModuleId> touched;
  touched.reserve(128);

  for (std::size_t k = 0; k < order.size(); ++k) {
    const ModuleId m = order[k];
    if (k + kPrefetchModulesAhead < order.size())
      prefetch_first_pin_lists(h, order[k + kPrefetchModulesAhead]);
    if (cluster_size[static_cast<std::size_t>(
            cluster_of_rep[static_cast<std::size_t>(m)])] > 1)
      continue;  // already merged (as a member or as a grown representative)
    const std::int64_t wm = weight_of(m);
    const auto nets = h.nets_of(m);
    for (std::size_t i = 0; i < nets.size(); ++i) {
      const NetId net = nets[i];
      if (i + kPrefetchNetsAhead < nets.size())
        __builtin_prefetch(h.pins(nets[i + kPrefetchNetsAhead]).data());
      const auto pins = h.pins(net);
      const auto size = static_cast<std::int32_t>(pins.size());
      if (size < 2) continue;
      if (options.rating_net_size_limit > 0 &&
          size > options.rating_net_size_limit)
        continue;
      const double w = static_cast<double>(h.net_weight(net)) /
                       static_cast<double>(size - 1);
      for (const ModuleId other : pins) {
        if (other == m) continue;
        const std::int32_t target =
            cluster_of_rep[static_cast<std::size_t>(other)];
        if (target == m) continue;
        // Community purity is per cluster (joiners passed the same check
        // against this representative), so the representative answers for
        // all members.  It is checked per pin: on the community-restricted
        // finest levels, rating out-of-community targets too and filtering
        // them at the choice below measured slower.  The side and weight
        // checks wait for that choice.
        if (!options.communities.empty() &&
            options.communities[static_cast<std::size_t>(target)] !=
                options.communities[static_cast<std::size_t>(m)])
          continue;
        double& r = rating[static_cast<std::size_t>(target)];
        if (r == 0.0) touched.push_back(target);
        r += w;
      }
    }
    // Score = connectivity / cluster weight: the weight penalty steers
    // joiners toward light clusters, so growth stays balanced instead of
    // snowballing into a few hub clusters (which wrecks coarse-level
    // structure and with it final cut quality).  Side and weight
    // eligibility depend only on the target cluster, so they are checked
    // once per touched target; an ineligible target's rating is never read.
    std::int32_t best = -1;
    double best_score = 0.0;
    for (const std::int32_t target : touched) {
      if (options.constraint != nullptr &&
          options.constraint->side(target) != options.constraint->side(m))
        continue;
      if (options.max_cluster_weight > 0 &&
          cluster_weight[static_cast<std::size_t>(target)] + wm >
              options.max_cluster_weight)
        continue;
      const double score =
          rating[static_cast<std::size_t>(target)] /
          static_cast<double>(cluster_weight[static_cast<std::size_t>(target)]);
      if (score > best_score ||
          (score == best_score && (best == -1 || target < best))) {
        best = target;
        best_score = score;
      }
    }
    for (const std::int32_t target : touched)
      rating[static_cast<std::size_t>(target)] = 0.0;
    touched.clear();
    if (best != -1) {
      cluster_of_rep[static_cast<std::size_t>(m)] = best;
      cluster_weight[static_cast<std::size_t>(best)] += wm;
      ++cluster_size[static_cast<std::size_t>(best)];
    }
  }

  // Dense ids in order of each cluster's smallest member.
  std::vector<std::int32_t> cluster(static_cast<std::size_t>(n), -1);
  std::vector<std::int32_t> dense_of_rep(static_cast<std::size_t>(n), -1);
  std::int32_t next = 0;
  for (ModuleId m = 0; m < n; ++m) {
    const std::int32_t rep = cluster_of_rep[static_cast<std::size_t>(m)];
    std::int32_t& dense = dense_of_rep[static_cast<std::size_t>(rep)];
    if (dense == -1) dense = next++;
    cluster[static_cast<std::size_t>(m)] = dense;
  }
  return Clustering(std::move(cluster));
}

std::vector<std::int32_t> community_labels(const Hypergraph& h,
                                           std::int32_t rounds,
                                           std::int32_t net_size_limit) {
  const std::int32_t n = h.num_modules();
  std::vector<std::int32_t> label(static_cast<std::size_t>(n));
  std::iota(label.begin(), label.end(), 0);
  std::vector<double> score(static_cast<std::size_t>(n), 0.0);
  std::vector<std::int32_t> touched;
  touched.reserve(128);

  for (std::int32_t round = 0; round < rounds; ++round) {
    bool changed = false;
    for (ModuleId m = 0; m < n; ++m) {
      if (static_cast<std::size_t>(m) + kPrefetchModulesAhead <
          static_cast<std::size_t>(n))
        prefetch_first_pin_lists(
            h, m + static_cast<ModuleId>(kPrefetchModulesAhead));
      for (const NetId net : h.nets_of(m)) {
        const auto pins = h.pins(net);
        const auto size = static_cast<std::int32_t>(pins.size());
        if (size < 2) continue;
        if (net_size_limit > 0 && size > net_size_limit) continue;
        const double w = static_cast<double>(h.net_weight(net)) /
                         static_cast<double>(size - 1);
        for (const ModuleId other : pins) {
          if (other == m) continue;
          const std::int32_t l = label[static_cast<std::size_t>(other)];
          double& s = score[static_cast<std::size_t>(l)];
          if (s == 0.0) touched.push_back(l);
          s += w;
        }
      }
      // Adopt the strongest neighbourhood label; ties go to the smaller
      // label, and the current label only survives a strict tie against
      // itself (asynchronous updates in id order keep this deterministic).
      std::int32_t best = label[static_cast<std::size_t>(m)];
      double best_score = score[static_cast<std::size_t>(best)];
      for (const std::int32_t l : touched) {
        const double s = score[static_cast<std::size_t>(l)];
        if (s > best_score || (s == best_score && l < best)) {
          best = l;
          best_score = s;
        }
      }
      for (const std::int32_t l : touched)
        score[static_cast<std::size_t>(l)] = 0.0;
      touched.clear();
      if (best != label[static_cast<std::size_t>(m)]) {
        label[static_cast<std::size_t>(m)] = best;
        changed = true;
      }
    }
    if (!changed) break;
  }
  return label;
}

namespace {

/// FNV-1a over a deduplicated coarse pin vector, the parallel-net bucket key.
std::size_t hash_pins(std::span<const ModuleId> pins) {
  std::size_t hash = 1469598103934665603ull;
  for (const ModuleId m : pins) {
    hash ^= static_cast<std::size_t>(static_cast<std::uint32_t>(m));
    hash *= 1099511628211ull;
  }
  return hash;
}

}  // namespace

Contraction contract_with_info(const Hypergraph& h, const Clustering& c,
                               std::span<const std::int64_t> fine_weights) {
  if (c.num_modules() != h.num_modules())
    throw std::invalid_argument("contract_with_info: clustering size mismatch");
  if (!fine_weights.empty() &&
      fine_weights.size() != static_cast<std::size_t>(h.num_modules()))
    throw std::invalid_argument("contract_with_info: weights size mismatch");

  Contraction out;
  out.module_weights.assign(static_cast<std::size_t>(c.num_clusters()), 0);
  for (ModuleId m = 0; m < h.num_modules(); ++m)
    out.module_weights[static_cast<std::size_t>(c.cluster_of(m))] +=
        fine_weights.empty() ? 1
                             : fine_weights[static_cast<std::size_t>(m)];

  out.net_of_fine.assign(static_cast<std::size_t>(h.num_nets()), -1);
  // Surviving coarse pin sets live in one flat CSR arena (offsets + data):
  // parallel-net detection touches every net, so per-net vector nodes are
  // pure allocator churn at this scale.
  std::vector<std::int64_t> pin_offsets{0};
  std::vector<ModuleId> pin_data;
  pin_data.reserve(static_cast<std::size_t>(h.num_pins()));
  std::vector<std::int64_t> coarse_weight;
  const auto coarse_span = [&](NetId id) {
    const auto begin = pin_offsets[static_cast<std::size_t>(id)];
    const auto end = pin_offsets[static_cast<std::size_t>(id) + 1];
    return std::span<const ModuleId>(pin_data.data() + begin,
                                     static_cast<std::size_t>(end - begin));
  };
  // Open-addressed table over pin-set hashes, linear probing; slots hold
  // coarse id + 1 (0 = empty).  First occurrence (in fine net order) claims
  // the coarse id, so ids — and therefore the whole coarse hypergraph — are
  // a pure function of the input.
  std::size_t table_size = 16;
  while (table_size < 2 * static_cast<std::size_t>(h.num_nets()))
    table_size *= 2;
  std::vector<NetId> table(table_size, 0);

  // Nets go through in blocks: a block's coarse pin sets are mapped,
  // sorted and hashed first, prefetching each one's table slot, and only
  // then probed in net order, so the table's cache misses overlap instead
  // of stalling one net at a time.
  constexpr NetId kBlock = 64;
  std::vector<ModuleId> block_pins;
  std::vector<std::size_t> block_begin(static_cast<std::size_t>(kBlock) + 1);
  std::vector<std::size_t> block_hash(static_cast<std::size_t>(kBlock));
  for (NetId first = 0; first < h.num_nets(); first += kBlock) {
    const NetId last = std::min(h.num_nets(), first + kBlock);
    block_pins.clear();
    for (NetId n = first; n < last; ++n) {
      const auto i = static_cast<std::size_t>(n - first);
      const std::size_t begin = block_pins.size();
      block_begin[i] = begin;
      for (const ModuleId m : h.pins(n)) block_pins.push_back(c.cluster_of(m));
      const auto pins_begin =
          block_pins.begin() + static_cast<std::ptrdiff_t>(begin);
      std::sort(pins_begin, block_pins.end());
      block_pins.erase(std::unique(pins_begin, block_pins.end()),
                       block_pins.end());
      if (block_pins.size() - begin >= 2) {
        block_hash[i] = hash_pins(std::span<const ModuleId>(
            block_pins.data() + begin, block_pins.size() - begin));
        __builtin_prefetch(&table[block_hash[i] & (table_size - 1)]);
      }
    }
    block_begin[static_cast<std::size_t>(last - first)] = block_pins.size();

    for (NetId n = first; n < last; ++n) {
      const auto i = static_cast<std::size_t>(n - first);
      const std::span<const ModuleId> pins(block_pins.data() + block_begin[i],
                                           block_begin[i + 1] - block_begin[i]);
      out.pins_merged +=
          static_cast<std::int64_t>(h.pins(n).size()) -
          static_cast<std::int64_t>(pins.size());
      if (pins.size() < 2) {
        out.pins_dropped += static_cast<std::int64_t>(pins.size());
        continue;
      }
      std::size_t slot = block_hash[i] & (table_size - 1);
      NetId coarse_id = -1;
      while (table[slot] != 0) {
        const NetId candidate = table[slot] - 1;
        const auto existing = coarse_span(candidate);
        if (std::equal(existing.begin(), existing.end(), pins.begin(),
                       pins.end())) {
          coarse_id = candidate;
          break;
        }
        slot = (slot + 1) & (table_size - 1);
      }
      if (coarse_id == -1) {
        coarse_id = static_cast<NetId>(coarse_weight.size());
        table[slot] = coarse_id + 1;
        pin_data.insert(pin_data.end(), pins.begin(), pins.end());
        pin_offsets.push_back(static_cast<std::int64_t>(pin_data.size()));
        coarse_weight.push_back(h.net_weight(n));
      } else {
        coarse_weight[static_cast<std::size_t>(coarse_id)] += h.net_weight(n);
        ++out.parallel_nets_merged;
        out.parallel_pins_merged += static_cast<std::int64_t>(pins.size());
      }
      out.net_of_fine[static_cast<std::size_t>(n)] = coarse_id;
    }
  }

  // The arena already holds every coarse net sorted and deduplicated.
  std::vector<std::int32_t> weights(coarse_weight.size());
  for (std::size_t i = 0; i < coarse_weight.size(); ++i) {
    if (coarse_weight[i] > std::numeric_limits<std::int32_t>::max())
      throw std::invalid_argument(
          "contract_with_info: accumulated net weight overflows");
    weights[i] = static_cast<std::int32_t>(coarse_weight[i]);
  }
  out.coarse = HypergraphBuilder::from_canonical_nets(
      c.num_clusters(), h.name(), std::move(pin_offsets), std::move(pin_data),
      std::move(weights));
  return out;
}

}  // namespace netpart
