#include "cluster/multilevel.hpp"

#include <gtest/gtest.h>

#include "circuits/generator.hpp"
#include "hypergraph/cut_metrics.hpp"

namespace netpart {
namespace {

Hypergraph clustered_circuit(const char* name, std::int32_t n) {
  GeneratorConfig c;
  c.name = name;
  c.num_modules = n;
  c.num_nets = n + n / 10;
  c.leaf_max = 16;
  return generate_circuit(c).hypergraph;
}

TEST(Multilevel, ProducesConsistentResult) {
  const Hypergraph h = clustered_circuit("ml-basic", 600);
  MultilevelOptions options;
  options.coarsen_to = 200;
  options.direct_pair_budget = 0;  // force a hierarchy despite the small input
  const MultilevelResult r = multilevel_partition(h, options);
  EXPECT_TRUE(r.partition.is_proper());
  EXPECT_EQ(r.nets_cut, net_cut(h, r.partition));
  EXPECT_DOUBLE_EQ(r.ratio, ratio_cut(h, r.partition));
  EXPECT_GT(r.levels, 0);
  EXPECT_LE(r.coarsest_modules, 200 + 200);  // clustering may stall early
}

TEST(Multilevel, CoarsensToRequestedSize) {
  const Hypergraph h = clustered_circuit("ml-coarsen", 800);
  MultilevelOptions options;
  options.coarsen_to = 100;
  options.direct_pair_budget = 0;
  const MultilevelResult r = multilevel_partition(h, options);
  // Heavy-edge clustering at least halves per level, so the coarsest
  // instance is within a factor ~2 of the target.
  EXPECT_LE(r.coarsest_modules, 200);
  EXPECT_TRUE(r.partition.is_proper());
}

TEST(Multilevel, SmallInputSkipsCoarsening) {
  const Hypergraph h = clustered_circuit("ml-small", 80);
  MultilevelOptions options;
  options.coarsen_to = 200;
  const MultilevelResult r = multilevel_partition(h, options);
  EXPECT_EQ(r.levels, 0);
  EXPECT_EQ(r.coarsest_modules, h.num_modules());
  EXPECT_TRUE(r.partition.is_proper());
}

TEST(Multilevel, InputWithinPairBudgetIsSolvedDirectly) {
  // 600 modules of sparse netlist sit well inside the direct-solve pair
  // budget, so the default options build no hierarchy — contracting an
  // affordable instance only destroys structure the solver would have used.
  const Hypergraph h = clustered_circuit("ml-direct", 600);
  std::int64_t pairs = 0;
  for (ModuleId m = 0; m < h.num_modules(); ++m) {
    const auto d = static_cast<std::int64_t>(h.nets_of(m).size());
    pairs += d * (d - 1) / 2;
  }
  ASSERT_LE(pairs, MultilevelOptions{}.direct_pair_budget);
  const MultilevelResult r = multilevel_partition(h);
  EXPECT_EQ(r.levels, 0);
  EXPECT_EQ(r.coarsest_modules, h.num_modules());
  EXPECT_TRUE(r.partition.is_proper());
}

TEST(Multilevel, LevelStatsDescribeTheHierarchy) {
  const Hypergraph h = clustered_circuit("ml-stats", 900);
  MultilevelOptions options;
  options.coarsen_to = 50;
  options.direct_pair_budget = 0;
  const MultilevelResult r = multilevel_partition(h, options);
  ASSERT_GT(r.levels, 1);
  ASSERT_EQ(static_cast<std::int32_t>(r.level_stats.size()), r.levels + 1);
  EXPECT_EQ(r.level_stats.front().modules, h.num_modules());
  EXPECT_EQ(r.level_stats.front().nets, h.num_nets());
  EXPECT_EQ(r.level_stats.front().pins, h.num_pins());
  EXPECT_EQ(r.level_stats.back().modules, r.coarsest_modules);
  for (std::size_t i = 1; i < r.level_stats.size(); ++i) {
    EXPECT_LT(r.level_stats[i].modules, r.level_stats[i - 1].modules);
    EXPECT_GT(r.level_stats[i].coarsen_ratio, 0.0);
    EXPECT_LT(r.level_stats[i].coarsen_ratio, 1.0);
    EXPECT_DOUBLE_EQ(r.level_stats[i].coarsen_ratio,
                     static_cast<double>(r.level_stats[i].modules) /
                         static_cast<double>(r.level_stats[i - 1].modules));
    // Refinement is improvement-guarded at every level.
    EXPECT_GE(r.level_stats[i].refine_gain, 0.0);
  }
  EXPECT_GE(r.level_stats.front().refine_gain, 0.0);
}

TEST(Multilevel, FixedSeedRunsAreBitIdentical) {
  // Two full runs with extra V-cycles on the same instance must agree on
  // every module assignment, not just the ratio: the whole engine is
  // deterministic by construction.
  const Hypergraph h = clustered_circuit("ml-deterministic", 700);
  MultilevelOptions options;
  options.coarsen_to = 64;
  options.direct_pair_budget = 0;
  options.vcycles = 2;
  const MultilevelResult a = multilevel_partition(h, options);
  const MultilevelResult b = multilevel_partition(h, options);
  ASSERT_EQ(a.partition.num_modules(), b.partition.num_modules());
  for (ModuleId m = 0; m < h.num_modules(); ++m)
    ASSERT_EQ(a.partition.side(m), b.partition.side(m)) << "module " << m;
  EXPECT_EQ(a.nets_cut, b.nets_cut);
  EXPECT_DOUBLE_EQ(a.ratio, b.ratio);
  EXPECT_EQ(a.levels, b.levels);
  EXPECT_EQ(a.vcycles_run, b.vcycles_run);
  for (ModuleId m = 0; m < a.coarsest_partition.num_modules(); ++m)
    ASSERT_EQ(a.coarsest_partition.side(m), b.coarsest_partition.side(m));
}

TEST(Multilevel, GeneratedCircuitAnswerIsPinned) {
  // The default engine on a generated netlist large enough for community
  // coarsening, boundary-only refinement and an improving extra V-cycle,
  // pinned bit for bit (FNV-1a digest of the sides included).  The hot
  // loops of clustering, contraction and FM are tuned for memory traffic;
  // such tuning must leave every answer unchanged.
  GeneratorConfig config;
  config.name = "ml-pin";
  config.num_modules = 20000;
  config.num_nets = 22000;
  const Hypergraph h = generate_circuit(config).hypergraph;
  MultilevelOptions options;
  options.vcycles = 2;
  const MultilevelResult r = multilevel_partition(h, options);
  std::uint64_t digest = 1469598103934665603ull;
  for (ModuleId m = 0; m < h.num_modules(); ++m) {
    digest ^= r.partition.side(m) == Side::kLeft ? 0u : 1u;
    digest *= 1099511628211ull;
  }
  EXPECT_EQ(r.levels, 10);
  EXPECT_EQ(r.coarsest_modules, 7);
  EXPECT_EQ(r.vcycles_run, 1);
  EXPECT_EQ(r.nets_cut, 781);
  EXPECT_EQ(r.partition.size(Side::kLeft), 6821);
  EXPECT_EQ(r.ratio, 8.6880142858097945e-06);
  EXPECT_EQ(digest, 0xc80cbf9d7af06bbeull);
}

TEST(Multilevel, SeparatesDumbbell) {
  HypergraphBuilder b(12);
  for (std::int32_t i = 0; i < 6; ++i)
    for (std::int32_t j = i + 1; j < 6; ++j) {
      b.add_net({i, j});
      b.add_net({6 + i, 6 + j});
    }
  b.add_net({5, 6});
  const Hypergraph h = b.build();
  MultilevelOptions options;
  options.coarsen_to = 6;
  options.direct_pair_budget = 0;
  const MultilevelResult r = multilevel_partition(h, options);
  EXPECT_EQ(r.nets_cut, 1);
  EXPECT_EQ(r.partition.size(Side::kLeft), 6);
}

TEST(Multilevel, RefinementNeverHurtsVersusCoarseProjection) {
  // The multilevel result must be at least as good as solving the coarsest
  // level and projecting straight up without refinement.
  const Hypergraph h = clustered_circuit("ml-refine", 500);
  MultilevelOptions no_refine;
  no_refine.refine_passes = 0;
  no_refine.direct_pair_budget = 0;
  MultilevelOptions with_refine;
  with_refine.refine_passes = 8;
  with_refine.direct_pair_budget = 0;
  const MultilevelResult a = multilevel_partition(h, no_refine);
  const MultilevelResult b = multilevel_partition(h, with_refine);
  EXPECT_LE(b.ratio, a.ratio + 1e-12);
}

TEST(Multilevel, VcyclesNeverHurt) {
  const Hypergraph h = clustered_circuit("ml-vcycle", 500);
  MultilevelOptions plain;
  plain.direct_pair_budget = 0;
  MultilevelOptions cycled;
  cycled.direct_pair_budget = 0;
  cycled.vcycles = 3;
  const MultilevelResult a = multilevel_partition(h, plain);
  const MultilevelResult b = multilevel_partition(h, cycled);
  EXPECT_LE(b.ratio, a.ratio + 1e-12);
  EXPECT_TRUE(b.partition.is_proper());
  EXPECT_EQ(b.nets_cut, net_cut(h, b.partition));
}

TEST(ConstrainedMatching, NeverMergesAcrossSides) {
  const Hypergraph h = clustered_circuit("ml-constrained", 200);
  Partition p(200);
  for (ModuleId m = 100; m < 200; ++m) p.assign(m, Side::kRight);
  MatchingOptions options;
  options.constraint = &p;
  const Clustering c = heavy_edge_clustering(h, options);
  EXPECT_LT(c.num_clusters(), 200);
  for (ModuleId m = 0; m < 200; ++m)
    for (ModuleId other = 0; other < 200; ++other)
      if (other != m && c.cluster_of(m) == c.cluster_of(other))
        ASSERT_EQ(p.side(m), p.side(other));
  const Partition wrong_size(5);
  options.constraint = &wrong_size;
  EXPECT_THROW((void)heavy_edge_clustering(h, options), std::invalid_argument);
}

TEST(Multilevel, RejectsBadOptions) {
  const Hypergraph h = clustered_circuit("ml-bad", 50);
  MultilevelOptions options;
  options.coarsen_to = 1;
  EXPECT_THROW(multilevel_partition(h, options), std::invalid_argument);
}

TEST(Multilevel, TrivialInstanceSafe) {
  HypergraphBuilder b(1);
  b.add_net({0});
  const MultilevelResult r = multilevel_partition(b.build());
  EXPECT_EQ(r.nets_cut, 0);
}

}  // namespace
}  // namespace netpart
