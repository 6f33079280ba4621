#include "core/multiway.hpp"

#include <gtest/gtest.h>

#include "circuits/generator.hpp"

namespace netpart {
namespace {

Hypergraph circuit(std::int32_t n, const char* name) {
  GeneratorConfig c;
  c.name = name;
  c.num_modules = n;
  c.num_nets = n + n / 10;
  c.leaf_max = 16;
  return generate_circuit(c).hypergraph;
}

TEST(MultiwayPartition, ConstructionAndAccessors) {
  const MultiwayPartition p({0, 1, 0, 2, 1});
  EXPECT_EQ(p.num_modules(), 5);
  EXPECT_EQ(p.num_blocks(), 3);
  EXPECT_EQ(p.block_of(3), 2);
  EXPECT_EQ(p.block_size(0), 2);
  EXPECT_EQ(p.block_size(2), 1);
}

TEST(MultiwayPartition, RejectsBadIds) {
  EXPECT_THROW(MultiwayPartition({0, 2}), std::invalid_argument);
  EXPECT_THROW(MultiwayPartition({-1}), std::invalid_argument);
}

TEST(MultiwayMetrics, HandComputed) {
  HypergraphBuilder b(6);
  b.add_net({0, 1});     // inside block 0
  b.add_net({2, 3});     // inside block 1
  b.add_net({1, 2});     // spans blocks 0,1
  b.add_net({0, 2, 4});  // spans blocks 0,1,2
  const Hypergraph h = b.build();
  const MultiwayPartition p({0, 0, 1, 1, 2, 2});
  EXPECT_EQ(spanning_net_count(h, p), 2);
  EXPECT_EQ(connectivity_minus_one(h, p), 1 + 2);
}

TEST(Multiway, BlocksRespectSizeBudget) {
  const Hypergraph h = circuit(400, "mw-budget");
  MultiwayOptions options;
  options.max_block_size = 60;
  const MultiwayResult r = multiway_partition(h, options);
  for (std::int32_t b = 0; b < r.partition.num_blocks(); ++b)
    EXPECT_LE(r.partition.block_size(b), 60) << "block " << b;
  EXPECT_GE(r.partition.num_blocks(), 400 / 60);
  EXPECT_EQ(r.nets_spanning, spanning_net_count(h, r.partition));
  EXPECT_EQ(r.connectivity_cost, connectivity_minus_one(h, r.partition));
}

TEST(Multiway, EveryModuleAssigned) {
  const Hypergraph h = circuit(200, "mw-coverage");
  MultiwayOptions options;
  options.max_block_size = 50;
  const MultiwayResult r = multiway_partition(h, options);
  std::int32_t total = 0;
  for (std::int32_t b = 0; b < r.partition.num_blocks(); ++b)
    total += r.partition.block_size(b);
  EXPECT_EQ(total, h.num_modules());
}

TEST(Multiway, LargeBudgetMeansNoSplit) {
  const Hypergraph h = circuit(100, "mw-nosplit");
  MultiwayOptions options;
  options.max_block_size = 200;
  const MultiwayResult r = multiway_partition(h, options);
  EXPECT_EQ(r.partition.num_blocks(), 1);
  EXPECT_EQ(r.splits_performed, 0);
  EXPECT_EQ(r.nets_spanning, 0);
  EXPECT_EQ(r.connectivity_cost, 0);
}

TEST(Multiway, ConnectivityAtLeastSpanning) {
  // connectivity-1 counts each spanning net at least once.
  const Hypergraph h = circuit(250, "mw-metrics");
  MultiwayOptions options;
  options.max_block_size = 40;
  const MultiwayResult r = multiway_partition(h, options);
  EXPECT_GE(r.connectivity_cost, r.nets_spanning);
}

TEST(Multiway, RejectsBadBudget) {
  const Hypergraph h = circuit(50, "mw-bad");
  MultiwayOptions options;
  options.max_block_size = 1;
  EXPECT_THROW(multiway_partition(h, options), std::invalid_argument);
}

TEST(Multiway, FmSplitterAlsoWorks) {
  const Hypergraph h = circuit(150, "mw-fm");
  MultiwayOptions options;
  options.max_block_size = 40;
  options.bipartitioner.algorithm = Algorithm::kRatioCutFm;
  options.bipartitioner.fm.num_starts = 2;
  const MultiwayResult r = multiway_partition(h, options);
  for (std::int32_t b = 0; b < r.partition.num_blocks(); ++b)
    EXPECT_LE(r.partition.block_size(b), 40);
}

}  // namespace
}  // namespace netpart
