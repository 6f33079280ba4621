#include "graph/intersection_graph.hpp"

#include <gtest/gtest.h>

namespace netpart {
namespace {

/// Worked example in the style of Figure 1: five modules, four nets.
///   s0 = {0, 1}, s1 = {1, 2, 3}, s2 = {3, 4}, s3 = {0, 3}
/// Module degrees: d(0)=2, d(1)=2, d(2)=1, d(3)=3, d(4)=1.
Hypergraph figure_style_example() {
  HypergraphBuilder b(5);
  b.add_net({0, 1});
  b.add_net({1, 2, 3});
  b.add_net({3, 4});
  b.add_net({0, 3});
  return b.build();
}

TEST(IntersectionGraph, AdjacencyPattern) {
  const WeightedGraph ig = intersection_graph(figure_style_example());
  EXPECT_EQ(ig.num_vertices(), 4);  // one vertex per net
  // s0-s2 share no module; every other pair shares one.
  EXPECT_DOUBLE_EQ(ig.edge_weight(0, 2), 0.0);
  EXPECT_GT(ig.edge_weight(0, 1), 0.0);
  EXPECT_GT(ig.edge_weight(0, 3), 0.0);
  EXPECT_GT(ig.edge_weight(1, 2), 0.0);
  EXPECT_GT(ig.edge_weight(1, 3), 0.0);
  EXPECT_GT(ig.edge_weight(2, 3), 0.0);
  EXPECT_EQ(ig.num_edges(), 5);
}

TEST(IntersectionGraph, PaperWeightsHandComputed) {
  // A'_ab = sum over shared modules v_k of (1/(d_k-1)) (1/|s_a| + 1/|s_b|).
  const WeightedGraph ig = intersection_graph(figure_style_example());
  // s0 ^ s1 = {1}, d(1)=2: 1/1 * (1/2 + 1/3) = 5/6.
  EXPECT_NEAR(ig.edge_weight(0, 1), 5.0 / 6.0, 1e-14);
  // s0 ^ s3 = {0}, d(0)=2: 1/1 * (1/2 + 1/2) = 1.
  EXPECT_NEAR(ig.edge_weight(0, 3), 1.0, 1e-14);
  // s1 ^ s2 = {3}, d(3)=3: 1/2 * (1/3 + 1/2) = 5/12.
  EXPECT_NEAR(ig.edge_weight(1, 2), 5.0 / 12.0, 1e-14);
  // s1 ^ s3 = {3}: same as above.
  EXPECT_NEAR(ig.edge_weight(1, 3), 5.0 / 12.0, 1e-14);
  // s2 ^ s3 = {3}: 1/2 * (1/2 + 1/2) = 1/2.
  EXPECT_NEAR(ig.edge_weight(2, 3), 0.5, 1e-14);
}

TEST(IntersectionGraph, MultipleSharedModulesAccumulate) {
  // Nets {0,1,2} and {0,1,3}: modules 0 and 1 both have degree 2, so
  // A' = 2 * (1/1) * (1/3 + 1/3) = 4/3.
  HypergraphBuilder b(4);
  b.add_net({0, 1, 2});
  b.add_net({0, 1, 3});
  const Hypergraph h = b.build();
  EXPECT_NEAR(intersection_graph(h).edge_weight(0, 1), 4.0 / 3.0, 1e-14);
  EXPECT_DOUBLE_EQ(
      intersection_graph(h, IgWeighting::kOverlap).edge_weight(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(
      intersection_graph(h, IgWeighting::kUniform).edge_weight(0, 1), 1.0);
  // Jaccard: 2 / (3 + 3 - 2) = 1/2.
  EXPECT_NEAR(
      intersection_graph(h, IgWeighting::kJaccard).edge_weight(0, 1), 0.5,
      1e-14);
}

TEST(IntersectionGraph, PatternIdenticalAcrossWeightings) {
  const Hypergraph h = figure_style_example();
  const WeightedGraph paper = intersection_graph(h, IgWeighting::kPaper);
  for (const IgWeighting w : {IgWeighting::kUniform, IgWeighting::kOverlap,
                              IgWeighting::kJaccard}) {
    const WeightedGraph other = intersection_graph(h, w);
    ASSERT_EQ(other.num_edges(), paper.num_edges()) << to_string(w);
    for (std::int32_t v = 0; v < paper.num_vertices(); ++v) {
      const auto a = paper.neighbors(v);
      const auto b = other.neighbors(v);
      ASSERT_EQ(a.size(), b.size());
      for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
    }
  }
}

TEST(IntersectionGraph, DisjointNetsGiveEmptyGraph) {
  HypergraphBuilder b(4);
  b.add_net({0, 1});
  b.add_net({2, 3});
  const WeightedGraph ig = intersection_graph(b.build());
  EXPECT_EQ(ig.num_vertices(), 2);
  EXPECT_EQ(ig.num_edges(), 0);
}

TEST(IntersectionGraph, WeightingNames) {
  EXPECT_STREQ(to_string(IgWeighting::kPaper), "paper");
  EXPECT_STREQ(to_string(IgWeighting::kJaccard), "jaccard");
}

TEST(IntersectionGraph, LargeSharedNetWeightsSmaller) {
  // The weighting is designed so overlaps between large nets count less
  // than overlaps between small nets (Section 2.2).
  HypergraphBuilder b(12);
  // Two small nets sharing module 0.
  b.add_net({0, 1});
  b.add_net({0, 2});
  // Two large nets sharing module 3.
  b.add_net({3, 4, 5, 6, 7});
  b.add_net({3, 8, 9, 10, 11});
  const WeightedGraph ig = intersection_graph(b.build());
  EXPECT_GT(ig.edge_weight(0, 1), ig.edge_weight(2, 3));
}

}  // namespace
}  // namespace netpart
