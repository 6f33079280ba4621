#include "fm/kl.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "fm/fm_partition.hpp"
#include "graph/clique_model.hpp"
#include "hypergraph/cut_metrics.hpp"

namespace netpart {

double weighted_edge_cut(const WeightedGraph& g, const Partition& p) {
  double cut = 0.0;
  for (std::int32_t u = 0; u < g.num_vertices(); ++u) {
    const auto neighbors = g.neighbors(u);
    const auto weights = g.weights(u);
    for (std::size_t k = 0; k < neighbors.size(); ++k)
      if (neighbors[k] > u && p.side(u) != p.side(neighbors[k]))
        cut += weights[k];
  }
  return cut;
}

namespace {

/// D(v) = external - internal connection weight of v under `p`.
std::vector<double> compute_d_values(const WeightedGraph& g,
                                     const Partition& p) {
  std::vector<double> d(static_cast<std::size_t>(g.num_vertices()), 0.0);
  for (std::int32_t u = 0; u < g.num_vertices(); ++u) {
    const auto neighbors = g.neighbors(u);
    const auto weights = g.weights(u);
    double ext = 0.0;
    double internal = 0.0;
    for (std::size_t k = 0; k < neighbors.size(); ++k)
      (p.side(u) != p.side(neighbors[k]) ? ext : internal) += weights[k];
    d[static_cast<std::size_t>(u)] = ext - internal;
  }
  return d;
}

/// Top-k unlocked vertices of `side` by D value.
std::vector<std::int32_t> top_candidates(const Partition& p,
                                         const std::vector<double>& d,
                                         const std::vector<char>& locked,
                                         Side side, std::int32_t k) {
  std::vector<std::int32_t> ids;
  for (std::int32_t v = 0; v < p.num_modules(); ++v)
    if (!locked[static_cast<std::size_t>(v)] && p.side(v) == side)
      ids.push_back(v);
  const auto by_d = [&](std::int32_t a, std::int32_t b) {
    return d[static_cast<std::size_t>(a)] > d[static_cast<std::size_t>(b)];
  };
  if (static_cast<std::int32_t>(ids.size()) > k) {
    std::partial_sort(ids.begin(), ids.begin() + k, ids.end(), by_d);
    ids.resize(static_cast<std::size_t>(k));
  } else {
    std::sort(ids.begin(), ids.end(), by_d);
  }
  return ids;
}

}  // namespace

double kl_pass(const WeightedGraph& g, Partition& p) {
  const std::int32_t n = g.num_vertices();
  std::vector<double> d = compute_d_values(g, p);
  std::vector<char> locked(static_cast<std::size_t>(n), 0);

  struct Swap {
    std::int32_t a;
    std::int32_t b;
    double gain;
  };
  std::vector<Swap> swaps;
  const std::int32_t pairs =
      std::min(p.size(Side::kLeft), p.size(Side::kRight));

  for (std::int32_t step = 0; step < pairs; ++step) {
    const auto left =
        top_candidates(p, d, locked, Side::kLeft, kKlCandidateLimit);
    const auto right =
        top_candidates(p, d, locked, Side::kRight, kKlCandidateLimit);
    if (left.empty() || right.empty()) break;

    Swap best{-1, -1, -std::numeric_limits<double>::infinity()};
    for (const std::int32_t a : left)
      for (const std::int32_t b : right) {
        const double gain = d[static_cast<std::size_t>(a)] +
                            d[static_cast<std::size_t>(b)] -
                            2.0 * g.edge_weight(a, b);
        if (gain > best.gain) best = {a, b, gain};
      }
    if (best.a < 0) break;

    // Tentatively swap, lock, and update D values of the neighbourhood.
    locked[static_cast<std::size_t>(best.a)] = 1;
    locked[static_cast<std::size_t>(best.b)] = 1;
    const auto update_neighbors = [&](std::int32_t moved) {
      const auto neighbors = g.neighbors(moved);
      const auto weights = g.weights(moved);
      for (std::size_t k = 0; k < neighbors.size(); ++k) {
        const std::int32_t v = neighbors[k];
        if (locked[static_cast<std::size_t>(v)]) continue;
        // `moved` switches sides: a same-side neighbour's external weight
        // grows by w (and internal shrinks), the opposite for cross-side.
        const double delta =
            (p.side(v) == p.side(moved)) ? 2.0 * weights[k] : -2.0 * weights[k];
        d[static_cast<std::size_t>(v)] += delta;
      }
    };
    update_neighbors(best.a);
    p.flip(best.a);
    update_neighbors(best.b);
    p.flip(best.b);
    swaps.push_back(best);
  }

  // Keep the best prefix by cumulative gain.
  double cumulative = 0.0;
  double best_total = 0.0;
  std::size_t best_prefix = 0;
  for (std::size_t i = 0; i < swaps.size(); ++i) {
    cumulative += swaps[i].gain;
    if (cumulative > best_total) {
      best_total = cumulative;
      best_prefix = i + 1;
    }
  }
  for (std::size_t i = swaps.size(); i > best_prefix; --i) {
    p.flip(swaps[i - 1].a);
    p.flip(swaps[i - 1].b);
  }
  return best_total;
}

KlResult kl_bisection(const Hypergraph& h, const KlOptions& options) {
  KlResult best;
  best.partition = Partition(h.num_modules(), Side::kLeft);
  best.edge_cut = std::numeric_limits<double>::infinity();
  if (h.num_modules() < 2) {
    best.edge_cut = 0.0;
    return best;
  }

  const WeightedGraph g = clique_expansion(h);
  for (std::int32_t start = 0; start < options.num_starts; ++start) {
    Partition p = random_balanced_partition(
        h.num_modules(),
        options.seed + static_cast<std::uint64_t>(start) * 7919);
    std::int32_t passes = 0;
    for (; passes < kKlMaxPasses; ++passes)
      if (kl_pass(g, p) <= 0.0) break;
    const double cut = weighted_edge_cut(g, p);
    best.passes += passes;
    if (cut < best.edge_cut) {
      best.edge_cut = cut;
      best.partition = std::move(p);
    }
  }
  best.nets_cut = net_cut(h, best.partition);
  best.ratio = ratio_cut(h, best.partition);
  return best;
}

}  // namespace netpart
