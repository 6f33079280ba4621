#pragma once

#include "graph/weighted_graph.hpp"
#include "hypergraph/hypergraph.hpp"

/// \file net_models.hpp
/// The alternative net models surveyed in Section 2.1: besides the
/// standard weighted clique (clique_model.hpp), "spanning paths, spanning
/// cycles, spanning trees, star topologies, etc." have been proposed, and
/// several "suffer from nondeterministic asymmetry in the connection
/// weights" — a fragility this module makes measurable (see
/// bench/ablation_net_models).
///
/// All models here give a k-pin net total edge weight k/2, matching the
/// clique model's per-net mass so cut values are comparable.

namespace netpart {

/// Net-to-graph conversion models.
enum class NetModel {
  kClique,  ///< C(k,2) edges of weight 1/(k-1) (the standard model)
  kPath,    ///< k-1 edges chaining the pins in index order, weight k/(2(k-1))
  kStar,    ///< k-1 edges from the first pin to the rest, same weight
  kCycle,   ///< k edges closing the path into a ring, weight 1/2
};

/// Printable name.
[[nodiscard]] const char* to_string(NetModel model);

/// Expand the hypergraph into a weighted module graph under `model`.
/// 1-pin nets contribute nothing; 2-pin nets are a single unit edge under
/// every model.  The path/star models depend on pin order (sorted module
/// ids) — the very "nondeterministic asymmetry" the paper criticizes,
/// reproduced deliberately.
[[nodiscard]] WeightedGraph expand_net_model(const Hypergraph& h,
                                             NetModel model);

}  // namespace netpart
