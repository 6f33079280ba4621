#include "spectral/eig1.hpp"

#include "graph/clique_model.hpp"
#include "graph/net_models.hpp"
#include "obs/metrics.hpp"

namespace netpart {

Eig1Result eig1_partition(const Hypergraph& h,
                          const linalg::LanczosOptions& options) {
  return eig1_partition_with_model(h, NetModel::kClique, options);
}

Eig1Result eig1_partition_with_model(const Hypergraph& h, NetModel model,
                                     const linalg::LanczosOptions& options) {
  NETPART_SPAN("eig1");
  const WeightedGraph g = expand_net_model(h, model);
  const linalg::FiedlerResult fiedler =
      linalg::fiedler_pair(g.laplacian(), options);
  const std::vector<std::int32_t> order = linalg::sorted_order(fiedler.vector);

  Eig1Result out;
  out.sweep = best_ratio_cut_split(h, order);
  out.lambda2 = fiedler.lambda2;
  out.lanczos_iterations = fiedler.lanczos_iterations;
  out.eigen_converged = fiedler.converged;
  out.ratio_cut_lower_bound =
      h.num_modules() > 0 ? fiedler.lambda2 / h.num_modules() : 0.0;
  return out;
}

NetOrdering spectral_net_ordering(const Hypergraph& h, IgWeighting weighting,
                                  const linalg::LanczosOptions& options,
                                  std::int32_t threshold_net_size) {
  const WeightedGraph ig = intersection_graph(h, weighting);
  return spectral_net_ordering_of_ig(h, ig, options, threshold_net_size);
}

NetOrdering spectral_net_ordering_of_ig(const Hypergraph& h,
                                        const WeightedGraph& ig,
                                        const linalg::LanczosOptions& options,
                                        std::int32_t threshold_net_size) {
  NETPART_SPAN("ordering");
  const std::int32_t m = h.num_nets();
  if (ig.num_vertices() != m)
    throw std::invalid_argument(
        "spectral_net_ordering_of_ig: intersection graph mismatch");

  // Partition nets into "small" (kept in the eigenproblem) and "large"
  // (thresholded away, re-inserted by interpolation afterwards).
  std::vector<std::int32_t> small_index(static_cast<std::size_t>(m), -1);
  std::vector<std::int32_t> small_nets;
  if (threshold_net_size > 0) {
    for (NetId n = 0; n < m; ++n)
      if (h.net_size(n) <= threshold_net_size) {
        small_index[static_cast<std::size_t>(n)] =
            static_cast<std::int32_t>(small_nets.size());
        small_nets.push_back(n);
      }
  }
  const bool thresholding =
      threshold_net_size > 0 &&
      static_cast<std::int32_t>(small_nets.size()) < m &&
      small_nets.size() >= 2;

  NetOrdering out;
  if (!thresholding) {
    const linalg::FiedlerResult fiedler =
        linalg::fiedler_pair(ig.laplacian(), options);
    out.order = linalg::sorted_order(fiedler.vector);
    out.lambda2 = fiedler.lambda2;
    out.lanczos_iterations = fiedler.lanczos_iterations;
    out.eigen_converged = fiedler.converged;
    return out;
  }

  // Induced intersection graph over the small nets only.
  std::vector<GraphEdge> edges;
  for (const NetId a : small_nets) {
    const auto neighbors = ig.neighbors(a);
    const auto weights = ig.weights(a);
    for (std::size_t k = 0; k < neighbors.size(); ++k) {
      const std::int32_t b = neighbors[k];
      if (b <= a) continue;  // each undirected edge once
      const std::int32_t bi = small_index[static_cast<std::size_t>(b)];
      if (bi < 0) continue;
      edges.push_back({small_index[static_cast<std::size_t>(a)], bi,
                       weights[k]});
    }
  }
  const WeightedGraph small_ig = WeightedGraph::from_edges(
      static_cast<std::int32_t>(small_nets.size()), std::move(edges));
  const linalg::FiedlerResult fiedler =
      linalg::fiedler_pair(small_ig.laplacian(), options);
  out.lambda2 = fiedler.lambda2;
  out.lanczos_iterations = fiedler.lanczos_iterations;
  out.eigen_converged = fiedler.converged;
  out.nets_thresholded =
      m - static_cast<std::int32_t>(small_nets.size());
  NETPART_COUNTER_ADD("ordering.nets_thresholded", out.nets_thresholded);

  // Rank the small nets by Fiedler component, then place each large net at
  // the mean rank of its small IG neighbours (middle when it has none).
  const std::vector<std::int32_t> small_order =
      linalg::sorted_order(fiedler.vector);
  std::vector<double> position(static_cast<std::size_t>(m), 0.0);
  for (std::size_t rank = 0; rank < small_order.size(); ++rank) {
    const NetId net = small_nets[static_cast<std::size_t>(small_order[rank])];
    position[static_cast<std::size_t>(net)] = static_cast<double>(rank);
  }
  for (NetId n = 0; n < m; ++n) {
    if (small_index[static_cast<std::size_t>(n)] >= 0) continue;
    double sum = 0.0;
    std::int32_t count = 0;
    for (const std::int32_t b : ig.neighbors(n)) {
      if (small_index[static_cast<std::size_t>(b)] < 0) continue;
      sum += position[static_cast<std::size_t>(b)];
      ++count;
    }
    position[static_cast<std::size_t>(n)] =
        count > 0 ? sum / count
                  : static_cast<double>(small_nets.size()) / 2.0;
  }
  out.order = linalg::sorted_order(position);
  return out;
}

}  // namespace netpart
