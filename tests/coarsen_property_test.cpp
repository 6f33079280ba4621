#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "circuits/generator.hpp"
#include "cluster/clustering.hpp"
#include "hypergraph/cut_metrics.hpp"
#include "hypergraph/hypergraph.hpp"
#include "hypergraph/partition.hpp"

/// \file coarsen_property_test.cpp
/// Property tests for the multilevel coarsening substrate: random
/// hypergraphs under several net weightings, checked against the exact
/// conservation laws contract_with_info() promises.  These invariants are
/// what make the V-cycle engine's "refinement never hurts" guarantee exact
/// rather than heuristic, so they are tested exhaustively rather than
/// spot-checked.

namespace netpart {
namespace {

/// Deterministic in-test generator (split-mix style) so failures replay.
class TestRng {
 public:
  explicit TestRng(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    state_ += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

  std::int32_t below(std::int32_t bound) {
    return static_cast<std::int32_t>(next() % static_cast<std::uint64_t>(bound));
  }

 private:
  std::uint64_t state_;
};

/// A random connected-ish hypergraph: a module chain for connectivity plus
/// random nets of size 2..6.
Hypergraph random_hypergraph(std::uint64_t seed, std::int32_t modules,
                             std::int32_t extra_nets, int weighting) {
  TestRng rng(seed);
  HypergraphBuilder b(modules);
  const auto weight_of = [&](std::int32_t index, std::int32_t size) {
    switch (weighting) {
      case 0: return 1;                       // unit
      case 1: return index % 7 + 1;           // cyclic small weights
      case 2: return size;                    // weight tracks net size
      default: return 1 + rng.below(100);     // random heavy weights
    }
  };
  std::int32_t index = 0;
  for (ModuleId m = 0; m + 1 < modules; ++m, ++index)
    b.add_net({m, m + 1}, weight_of(index, 2));
  for (std::int32_t i = 0; i < extra_nets; ++i, ++index) {
    const std::int32_t size = 2 + rng.below(5);
    std::vector<ModuleId> pins;
    for (std::int32_t p = 0; p < size; ++p) pins.push_back(rng.below(modules));
    // The builder requires distinct pins per net; dedup and skip tiny rests.
    std::sort(pins.begin(), pins.end());
    pins.erase(std::unique(pins.begin(), pins.end()), pins.end());
    if (pins.size() < 2) continue;
    b.add_net(pins, weight_of(index, static_cast<std::int32_t>(pins.size())));
  }
  return b.build();
}

std::vector<std::int64_t> random_weights(std::uint64_t seed,
                                         std::int32_t modules) {
  TestRng rng(seed);
  std::vector<std::int64_t> weights(static_cast<std::size_t>(modules));
  for (auto& w : weights) w = 1 + rng.below(9);
  return weights;
}

/// The whole invariant battery for one (hypergraph, options, weights) case.
void check_contraction(const Hypergraph& h, const MatchingOptions& options,
                       std::span<const std::int64_t> fine_weights,
                       std::uint64_t partition_seed) {
  const Clustering c = heavy_edge_clustering(h, options);

  // Membership round-trip: dense cluster ids, sizes consistent, every
  // module inside a valid cluster.
  ASSERT_EQ(c.num_modules(), h.num_modules());
  std::vector<std::int32_t> sizes(static_cast<std::size_t>(c.num_clusters()));
  for (ModuleId m = 0; m < h.num_modules(); ++m) {
    ASSERT_GE(c.cluster_of(m), 0);
    ASSERT_LT(c.cluster_of(m), c.num_clusters());
    ++sizes[static_cast<std::size_t>(c.cluster_of(m))];
  }
  for (std::int32_t k = 0; k < c.num_clusters(); ++k) {
    ASSERT_GT(sizes[static_cast<std::size_t>(k)], 0) << "empty cluster " << k;
    ASSERT_EQ(sizes[static_cast<std::size_t>(k)], c.cluster_size(k));
  }

  // Weight cap: multi-module clusters never exceed max_cluster_weight.
  if (options.max_cluster_weight > 0) {
    std::vector<std::int64_t> cluster_weight(
        static_cast<std::size_t>(c.num_clusters()), 0);
    for (ModuleId m = 0; m < h.num_modules(); ++m)
      cluster_weight[static_cast<std::size_t>(c.cluster_of(m))] +=
          fine_weights.empty() ? 1
                               : fine_weights[static_cast<std::size_t>(m)];
    for (std::int32_t k = 0; k < c.num_clusters(); ++k)
      if (c.cluster_size(k) > 1)
        ASSERT_LE(cluster_weight[static_cast<std::size_t>(k)],
                  options.max_cluster_weight);
  }

  // Side purity under a constraint.
  if (options.constraint != nullptr)
    for (ModuleId m = 0; m < h.num_modules(); ++m)
      for (ModuleId o = m + 1; o < h.num_modules(); ++o)
        if (c.cluster_of(m) == c.cluster_of(o))
          ASSERT_EQ(options.constraint->side(m), options.constraint->side(o));

  const Contraction ct = contract_with_info(h, c, fine_weights);

  // Module-weight conservation: total and per cluster.
  const std::int64_t fine_total =
      fine_weights.empty()
          ? h.num_modules()
          : std::accumulate(fine_weights.begin(), fine_weights.end(),
                            std::int64_t{0});
  ASSERT_EQ(std::accumulate(ct.module_weights.begin(),
                            ct.module_weights.end(), std::int64_t{0}),
            fine_total);
  std::vector<std::int64_t> expected_weight(
      static_cast<std::size_t>(c.num_clusters()), 0);
  for (ModuleId m = 0; m < h.num_modules(); ++m)
    expected_weight[static_cast<std::size_t>(c.cluster_of(m))] +=
        fine_weights.empty() ? 1 : fine_weights[static_cast<std::size_t>(m)];
  ASSERT_EQ(ct.module_weights, expected_weight);

  // Pin conservation, exactly as documented.
  ASSERT_EQ(ct.coarse.num_pins(), h.num_pins() - ct.pins_merged -
                                      ct.pins_dropped -
                                      ct.parallel_pins_merged);

  // Net preimages: every coarse net is hit by at least one fine net, maps
  // stay in range, and each coarse net's weight is the exact sum of its
  // preimage's weights.
  ASSERT_EQ(static_cast<std::int32_t>(ct.net_of_fine.size()), h.num_nets());
  std::vector<std::int64_t> preimage_weight(
      static_cast<std::size_t>(ct.coarse.num_nets()), 0);
  std::vector<std::int32_t> preimage_count(
      static_cast<std::size_t>(ct.coarse.num_nets()), 0);
  for (NetId n = 0; n < h.num_nets(); ++n) {
    const NetId cn = ct.net_of_fine[static_cast<std::size_t>(n)];
    if (cn == -1) continue;
    ASSERT_GE(cn, 0);
    ASSERT_LT(cn, ct.coarse.num_nets());
    preimage_weight[static_cast<std::size_t>(cn)] += h.net_weight(n);
    ++preimage_count[static_cast<std::size_t>(cn)];
    // The coarse pin set must be the deduplicated image of the fine one.
    for (const ModuleId m : h.pins(n)) {
      const auto pins = ct.coarse.pins(cn);
      ASSERT_NE(std::find(pins.begin(), pins.end(), c.cluster_of(m)),
                pins.end());
    }
  }
  for (NetId cn = 0; cn < ct.coarse.num_nets(); ++cn) {
    ASSERT_GT(preimage_count[static_cast<std::size_t>(cn)], 0)
        << "coarse net " << cn << " has no fine preimage";
    ASSERT_EQ(preimage_weight[static_cast<std::size_t>(cn)],
              ct.coarse.net_weight(cn));
  }

  // Projected-cut equality on random coarse partitions: the coarse
  // weighted cut IS the fine weighted cut of the projection.  This is the
  // property that makes coarse-level refinement exact.
  TestRng rng(partition_seed);
  for (int trial = 0; trial < 8; ++trial) {
    Partition coarse_p(ct.coarse.num_modules());
    for (ModuleId k = 0; k < ct.coarse.num_modules(); ++k)
      coarse_p.assign(k, rng.below(2) == 0 ? Side::kLeft : Side::kRight);
    const Partition fine_p = c.project(coarse_p);
    for (ModuleId m = 0; m < h.num_modules(); ++m)
      ASSERT_EQ(fine_p.side(m), coarse_p.side(c.cluster_of(m)));
    ASSERT_EQ(weighted_net_cut(ct.coarse, coarse_p),
              weighted_net_cut(h, fine_p));
  }
}

TEST(CoarsenProperty, RandomHypergraphsAllWeightings) {
  for (int weighting = 0; weighting < 4; ++weighting) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      const std::int32_t modules = 40 + static_cast<std::int32_t>(seed) * 37;
      const Hypergraph h =
          random_hypergraph(seed * 977 + static_cast<std::uint64_t>(weighting),
                            modules, modules * 2, weighting);
      MatchingOptions options;
      check_contraction(h, options, {}, seed * 31 + 7);
    }
  }
}

TEST(CoarsenProperty, WeightCapAndModuleWeightsRespected) {
  for (int weighting = 0; weighting < 4; ++weighting) {
    const Hypergraph h =
        random_hypergraph(static_cast<std::uint64_t>(1234 + weighting), 160,
                          320, weighting);
    const std::vector<std::int64_t> weights = random_weights(99, 160);
    MatchingOptions options;
    options.module_weights = weights;
    options.max_cluster_weight = 24;
    check_contraction(h, options, weights, 555);
  }
}

TEST(CoarsenProperty, ConstrainedClusteringStaysSidePure) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const Hypergraph h = random_hypergraph(seed * 7919, 120, 240, 1);
    TestRng rng(seed);
    Partition p(120);
    for (ModuleId m = 0; m < 120; ++m)
      p.assign(m, rng.below(2) == 0 ? Side::kLeft : Side::kRight);
    MatchingOptions options;
    options.constraint = &p;
    check_contraction(h, options, {}, seed);
  }
}

TEST(CoarsenProperty, CommunityRestrictionNeverCrossesLabels) {
  const Hypergraph h = random_hypergraph(4242, 150, 300, 2);
  const std::vector<std::int32_t> labels =
      community_labels(h, /*rounds=*/2, /*net_size_limit=*/64);
  MatchingOptions options;
  options.communities = labels;
  const Clustering c = heavy_edge_clustering(h, options);
  for (ModuleId m = 0; m < h.num_modules(); ++m)
    for (ModuleId o = m + 1; o < h.num_modules(); ++o)
      if (c.cluster_of(m) == c.cluster_of(o))
        ASSERT_EQ(labels[static_cast<std::size_t>(m)],
                  labels[static_cast<std::size_t>(o)]);
  check_contraction(h, options, {}, 4242);
}

TEST(CoarsenProperty, GeneratedCircuitsSurviveRepeatedContraction) {
  // Chain two contraction levels on a clustered circuit, threading the
  // accumulated weights through — the exact shape the V-cycle hierarchy
  // builds — and re-check every invariant at the second level.
  GeneratorConfig config;
  config.name = "coarsen-prop";
  config.num_modules = 400;
  config.num_nets = 440;
  const Hypergraph h = generate_circuit(config).hypergraph;
  MatchingOptions options;
  options.max_cluster_weight = 8;
  const Clustering c1 = heavy_edge_clustering(h, options);
  const Contraction l1 = contract_with_info(h, c1);
  MatchingOptions level2 = options;
  level2.module_weights = l1.module_weights;
  check_contraction(l1.coarse, level2, l1.module_weights, 31337);
}

}  // namespace
}  // namespace netpart
