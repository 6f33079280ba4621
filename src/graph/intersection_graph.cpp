#include "graph/intersection_graph.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "parallel/parallel_for.hpp"

namespace netpart {

const char* to_string(IgWeighting w) {
  switch (w) {
    case IgWeighting::kPaper: return "paper";
    case IgWeighting::kUniform: return "uniform";
    case IgWeighting::kOverlap: return "overlap";
    case IgWeighting::kJaccard: return "jaccard";
  }
  return "?";
}

namespace {

/// One pair contribution from a shared module.
struct PairAccum {
  std::int64_t key;  // a * num_nets + b, a < b
  double paper;
  std::int32_t shared;
};

/// Modules per accumulation chunk.  Chunk boundaries are a pure function of
/// |V|, so the contribution layout (and thus every downstream sum) is
/// identical for any thread count.
constexpr std::int64_t kModuleChunk = 1024;

/// Below this many contributions a plain serial stable sort wins.
constexpr std::int64_t kParallelSortThreshold = std::int64_t{1} << 15;

/// Stable sort by key.  Stable ordering is unique, so the serial and the
/// chunked-parallel path produce the same permutation: contributions with
/// equal keys stay in module-scan order, which fixes the floating-point
/// summation order of the merge phase for every thread count.
void stable_sort_by_key(std::vector<PairAccum>& accums) {
  const auto by_key = [](const PairAccum& x, const PairAccum& y) {
    return x.key < y.key;
  };
  const auto size = static_cast<std::int64_t>(accums.size());
  parallel::ThreadPool& pool = parallel::ThreadPool::instance();
  if (size <= kParallelSortThreshold || pool.lanes() == 1) {
    std::stable_sort(accums.begin(), accums.end(), by_key);
    return;
  }
  // Sort fixed runs in parallel, then merge adjacent runs pairwise
  // (std::inplace_merge is stable, runs are in index order).
  const std::int64_t run = kParallelSortThreshold;
  pool.run_chunks(0, size, run, 0,
                  [&](std::int64_t lo, std::int64_t hi, std::size_t) {
                    std::stable_sort(accums.begin() + lo, accums.begin() + hi,
                                     by_key);
                  });
  for (std::int64_t width = run; width < size; width *= 2) {
    const std::int64_t pairs = (size + 2 * width - 1) / (2 * width);
    pool.run_chunks(0, pairs, 1,
                    0, [&](std::int64_t p, std::int64_t, std::size_t) {
                      const std::int64_t lo = p * 2 * width;
                      const std::int64_t mid = std::min(lo + width, size);
                      const std::int64_t hi = std::min(lo + 2 * width, size);
                      if (mid < hi)
                        std::inplace_merge(accums.begin() + lo,
                                           accums.begin() + mid,
                                           accums.begin() + hi, by_key);
                    });
  }
}

}  // namespace

WeightedGraph intersection_graph(const Hypergraph& h, IgWeighting weighting) {
  NETPART_SPAN("ig-build");
  NETPART_COUNTER_ADD("ig.builds", 1);
  // Accumulate, per ordered net pair (a < b):
  //  - the paper-formula weight contribution, and
  //  - the shared-module count q,
  // by scanning each module's incident-net list once.  A module of degree d
  // generates C(d, 2) pair contributions; technology fanout limits keep d
  // small in practice, so this is near-linear in the number of pins.
  const auto m = static_cast<std::int64_t>(h.num_nets());
  const std::int64_t n_modules = h.num_modules();

  // 1 / |s_e| per net, computed once instead of one division per pair
  // contribution.
  std::vector<double> inv_size(static_cast<std::size_t>(m));
  parallel::parallel_for(0, m, 4096,
                         [&](std::int64_t lo, std::int64_t hi) {
                           for (std::int64_t e = lo; e < hi; ++e)
                             inv_size[static_cast<std::size_t>(e)] =
                                 1.0 / static_cast<double>(
                                           h.net_size(static_cast<NetId>(e)));
                         });

  std::vector<PairAccum> accums;
  {
    NETPART_SPAN("accumulate");
    // Pass 1: exact C(d, 2) contribution count per fixed module chunk, so
    // the accumulator is allocated once at its final size and every chunk
    // writes its slice at a deterministic offset (the resulting order is
    // exactly the serial module-scan order).
    const std::int64_t num_chunks =
        n_modules == 0 ? 0 : (n_modules + kModuleChunk - 1) / kModuleChunk;
    std::vector<std::int64_t> chunk_offset(
        static_cast<std::size_t>(num_chunks) + 1, 0);
    parallel::parallel_for(
        0, n_modules, kModuleChunk, [&](std::int64_t lo, std::int64_t hi) {
          std::int64_t pairs = 0;
          for (std::int64_t mod = lo; mod < hi; ++mod) {
            const auto d = static_cast<std::int64_t>(
                h.nets_of(static_cast<ModuleId>(mod)).size());
            pairs += d * (d - 1) / 2;
          }
          chunk_offset[static_cast<std::size_t>(lo / kModuleChunk) + 1] =
              pairs;
        });
    for (std::size_t c = 1; c < chunk_offset.size(); ++c)
      chunk_offset[c] += chunk_offset[c - 1];
    accums.resize(static_cast<std::size_t>(chunk_offset.back()));

    // Pass 2: fill each chunk's slice.
    parallel::parallel_for(
        0, n_modules, kModuleChunk, [&](std::int64_t lo, std::int64_t hi) {
          std::size_t out = static_cast<std::size_t>(
              chunk_offset[static_cast<std::size_t>(lo / kModuleChunk)]);
          for (std::int64_t mod = lo; mod < hi; ++mod) {
            const auto nets = h.nets_of(static_cast<ModuleId>(mod));
            const std::size_t d = nets.size();
            if (d < 2) continue;
            const double inv_deg = 1.0 / static_cast<double>(d - 1);
            for (std::size_t i = 0; i < d; ++i) {
              const double inv_a =
                  inv_size[static_cast<std::size_t>(nets[i])];
              for (std::size_t j = i + 1; j < d; ++j) {
                const double inv_b =
                    inv_size[static_cast<std::size_t>(nets[j])];
                accums[out++] = {static_cast<std::int64_t>(nets[i]) * m +
                                     nets[j],
                                 inv_deg * (inv_a + inv_b), 1};
              }
            }
          }
        });
  }
  NETPART_COUNTER_ADD("ig.pair_contributions",
                      static_cast<std::int64_t>(accums.size()));

  NETPART_SPAN("sort-merge");
  stable_sort_by_key(accums);

  std::vector<GraphEdge> edges;
  std::size_t i = 0;
  while (i < accums.size()) {
    const std::int64_t key = accums[i].key;
    double paper = 0.0;
    std::int32_t shared = 0;
    while (i < accums.size() && accums[i].key == key) {
      paper += accums[i].paper;
      shared += accums[i].shared;
      ++i;
    }
    const auto a = static_cast<std::int32_t>(key / m);
    const auto b = static_cast<std::int32_t>(key % m);
    double w = 0.0;
    switch (weighting) {
      case IgWeighting::kPaper:
        w = paper;
        break;
      case IgWeighting::kUniform:
        w = 1.0;
        break;
      case IgWeighting::kOverlap:
        w = static_cast<double>(shared);
        break;
      case IgWeighting::kJaccard: {
        const double unions = static_cast<double>(h.net_size(a)) +
                              static_cast<double>(h.net_size(b)) -
                              static_cast<double>(shared);
        w = static_cast<double>(shared) / unions;
        break;
      }
    }
    // Net multiplicities act like parallel copies: the coupling between
    // two nets scales with the product of their weights.  No-op on
    // unweighted netlists.
    w *= static_cast<double>(h.net_weight(a)) *
         static_cast<double>(h.net_weight(b));
    edges.push_back({a, b, w});
  }
  NETPART_COUNTER_ADD("ig.edges_built",
                      static_cast<std::int64_t>(edges.size()));

  return WeightedGraph::from_edges(h.num_nets(), std::move(edges));
}

}  // namespace netpart
