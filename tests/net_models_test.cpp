#include "graph/net_models.hpp"

#include <gtest/gtest.h>

#include "spectral/eig1.hpp"

namespace netpart {
namespace {

Hypergraph one_net(std::int32_t k) {
  HypergraphBuilder b(k);
  std::vector<ModuleId> pins;
  for (std::int32_t i = 0; i < k; ++i) pins.push_back(i);
  b.add_net(pins);
  return b.build();
}

TEST(NetModels, Names) {
  EXPECT_STREQ(to_string(NetModel::kPath), "path");
}

TEST(NetModels, TwoPinNetIdenticalUnderAllModels) {
  const Hypergraph h = one_net(2);
  for (const NetModel model : {NetModel::kClique, NetModel::kPath,
                               NetModel::kStar, NetModel::kCycle}) {
    const WeightedGraph g = expand_net_model(h, model);
    EXPECT_EQ(g.num_edges(), 1) << to_string(model);
    EXPECT_DOUBLE_EQ(g.edge_weight(0, 1), 1.0) << to_string(model);
  }
}

TEST(NetModels, PathTopology) {
  const WeightedGraph g = expand_net_model(one_net(5), NetModel::kPath);
  EXPECT_EQ(g.num_edges(), 4);
  EXPECT_GT(g.edge_weight(0, 1), 0.0);
  EXPECT_GT(g.edge_weight(3, 4), 0.0);
  EXPECT_DOUBLE_EQ(g.edge_weight(0, 4), 0.0);
  EXPECT_DOUBLE_EQ(g.edge_weight(0, 2), 0.0);
}

TEST(NetModels, StarTopology) {
  const WeightedGraph g = expand_net_model(one_net(5), NetModel::kStar);
  EXPECT_EQ(g.num_edges(), 4);
  for (std::int32_t i = 1; i < 5; ++i)
    EXPECT_GT(g.edge_weight(0, i), 0.0) << i;
  EXPECT_DOUBLE_EQ(g.edge_weight(1, 2), 0.0);
}

TEST(NetModels, CycleTopology) {
  const WeightedGraph g = expand_net_model(one_net(5), NetModel::kCycle);
  EXPECT_EQ(g.num_edges(), 5);
  EXPECT_GT(g.edge_weight(0, 4), 0.0);  // the closing edge
  EXPECT_GT(g.edge_weight(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(g.edge_weight(0, 2), 0.0);
}

TEST(NetModels, TotalWeightNormalizedToHalfK) {
  // Every model gives a k-pin net total edge weight k/2, so cut values are
  // comparable across models.
  for (const NetModel model : {NetModel::kClique, NetModel::kPath,
                               NetModel::kStar, NetModel::kCycle}) {
    for (const std::int32_t k : {2, 3, 5, 9}) {
      const WeightedGraph g = expand_net_model(one_net(k), model);
      double total = 0.0;
      for (std::int32_t v = 0; v < k; ++v) total += g.degree_weight(v);
      EXPECT_NEAR(total / 2.0, static_cast<double>(k) / 2.0, 1e-12)
          << to_string(model) << " k=" << k;
    }
  }
}

TEST(NetModels, SinglePinNetIgnored) {
  HypergraphBuilder b(2);
  b.add_net({0});
  for (const NetModel model : {NetModel::kPath, NetModel::kStar,
                               NetModel::kCycle})
    EXPECT_EQ(expand_net_model(b.build(), model).num_edges(), 0);
}

TEST(NetModels, Eig1RunsUnderEveryModel) {
  // Dumbbell of 2-pin nets: identical under all models, so every variant
  // must find the 1-net cut.
  HypergraphBuilder b(8);
  for (std::int32_t i = 0; i < 4; ++i)
    for (std::int32_t j = i + 1; j < 4; ++j) {
      b.add_net({i, j});
      b.add_net({4 + i, 4 + j});
    }
  b.add_net({3, 4});
  const Hypergraph h = b.build();
  for (const NetModel model : {NetModel::kClique, NetModel::kPath,
                               NetModel::kStar, NetModel::kCycle}) {
    const Eig1Result r = eig1_partition_with_model(h, model);
    EXPECT_EQ(r.sweep.nets_cut, 1) << to_string(model);
  }
}

}  // namespace
}  // namespace netpart
