#include "graph/net_models.hpp"

#include "graph/clique_model.hpp"

namespace netpart {

const char* to_string(NetModel model) {
  switch (model) {
    case NetModel::kClique: return "clique";
    case NetModel::kPath: return "path";
    case NetModel::kStar: return "star";
    case NetModel::kCycle: return "cycle";
  }
  return "?";
}

WeightedGraph expand_net_model(const Hypergraph& h, NetModel model) {
  if (model == NetModel::kClique) return clique_expansion(h);

  std::vector<GraphEdge> edges;
  for (NetId n = 0; n < h.num_nets(); ++n) {
    const auto pins = h.pins(n);
    const auto k = static_cast<std::int32_t>(pins.size());
    if (k < 2) continue;
    // Normalize each model's total weight to k/2 (the clique model's
    // mass), scaled by the net's multiplicity.
    const double multiplicity = static_cast<double>(h.net_weight(n));
    switch (model) {
      case NetModel::kPath: {
        const double w = multiplicity * static_cast<double>(k) /
                         (2.0 * static_cast<double>(k - 1));
        for (std::int32_t i = 0; i + 1 < k; ++i)
          edges.push_back({pins[static_cast<std::size_t>(i)],
                           pins[static_cast<std::size_t>(i + 1)], w});
        break;
      }
      case NetModel::kStar: {
        const double w = multiplicity * static_cast<double>(k) /
                         (2.0 * static_cast<double>(k - 1));
        for (std::int32_t i = 1; i < k; ++i)
          edges.push_back({pins[0], pins[static_cast<std::size_t>(i)], w});
        break;
      }
      case NetModel::kCycle: {
        if (k == 2) {
          edges.push_back({pins[0], pins[1], multiplicity});
          break;
        }
        for (std::int32_t i = 0; i < k; ++i)
          edges.push_back({pins[static_cast<std::size_t>(i)],
                           pins[static_cast<std::size_t>((i + 1) % k)],
                           0.5 * multiplicity});
        break;
      }
      case NetModel::kClique:
        break;  // handled above
    }
  }
  return WeightedGraph::from_edges(h.num_modules(), std::move(edges));
}

}  // namespace netpart
