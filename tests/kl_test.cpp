#include "fm/kl.hpp"

#include <gtest/gtest.h>

#include "circuits/generator.hpp"
#include "fm/fm_partition.hpp"
#include "graph/clique_model.hpp"
#include "hypergraph/cut_metrics.hpp"

namespace netpart {
namespace {

Hypergraph dumbbell() {
  HypergraphBuilder b(8);
  for (std::int32_t i = 0; i < 4; ++i)
    for (std::int32_t j = i + 1; j < 4; ++j) {
      b.add_net({i, j});
      b.add_net({4 + i, 4 + j});
    }
  b.add_net({3, 4});
  return b.build();
}

TEST(WeightedEdgeCut, HandComputed) {
  const WeightedGraph g = WeightedGraph::from_edges(
      4, {{0, 1, 1.0}, {1, 2, 2.0}, {2, 3, 0.5}});
  Partition p(4);
  p.assign(2, Side::kRight);
  p.assign(3, Side::kRight);
  EXPECT_DOUBLE_EQ(weighted_edge_cut(g, p), 2.0);
  p.flip(3);
  EXPECT_DOUBLE_EQ(weighted_edge_cut(g, p), 2.5);
}

TEST(KlPass, NeverWorsensCut) {
  const Hypergraph h = dumbbell();
  const WeightedGraph g = clique_expansion(h);
  Partition p = random_balanced_partition(8, 3);
  const double before = weighted_edge_cut(g, p);
  kl_pass(g, p);
  EXPECT_LE(weighted_edge_cut(g, p), before + 1e-12);
}

TEST(KlPass, PreservesBalanceExactly) {
  const Hypergraph h = dumbbell();
  const WeightedGraph g = clique_expansion(h);
  Partition p = random_balanced_partition(8, 5);
  const std::int32_t left_before = p.size(Side::kLeft);
  kl_pass(g, p);
  EXPECT_EQ(p.size(Side::kLeft), left_before);
}

TEST(KlPass, ReportedGainMatchesCutDelta) {
  const Hypergraph h = dumbbell();
  const WeightedGraph g = clique_expansion(h);
  Partition p = random_balanced_partition(8, 9);
  const double before = weighted_edge_cut(g, p);
  const double gain = kl_pass(g, p);
  EXPECT_NEAR(before - weighted_edge_cut(g, p), gain, 1e-12);
}

TEST(KlBisection, RecoversDumbbellOptimum) {
  const KlResult r = kl_bisection(dumbbell());
  EXPECT_EQ(r.nets_cut, 1);
  EXPECT_EQ(r.partition.size(Side::kLeft), 4);
  EXPECT_NEAR(r.edge_cut, 1.0, 1e-12);
}

TEST(KlBisection, ConsistentOnGeneratedCircuit) {
  GeneratorConfig c;
  c.name = "kl-driver";
  c.num_modules = 120;
  c.num_nets = 140;
  c.leaf_max = 12;
  const Hypergraph h = generate_circuit(c).hypergraph;
  KlOptions options;
  options.num_starts = 2;
  const KlResult r = kl_bisection(h, options);
  EXPECT_TRUE(r.partition.is_proper());
  EXPECT_EQ(r.nets_cut, net_cut(h, r.partition));
  EXPECT_DOUBLE_EQ(r.ratio, ratio_cut(h, r.partition));
  EXPECT_NEAR(r.edge_cut,
              weighted_edge_cut(clique_expansion(h), r.partition), 1e-9);
  // Near-bisection: sizes differ by at most 1 (KL swaps preserve counts).
  EXPECT_LE(std::abs(r.partition.size(Side::kLeft) -
                     r.partition.size(Side::kRight)),
            1);
}

TEST(KlBisection, BeatsRandomStart) {
  GeneratorConfig c;
  c.name = "kl-improves";
  c.num_modules = 100;
  c.num_nets = 120;
  c.leaf_max = 10;
  const Hypergraph h = generate_circuit(c).hypergraph;
  const WeightedGraph g = clique_expansion(h);
  const double random_cut =
      weighted_edge_cut(g, random_balanced_partition(100, 0xBEEFULL));
  KlOptions options;
  options.num_starts = 2;
  const KlResult r = kl_bisection(h, options);
  EXPECT_LT(r.edge_cut, random_cut);
}

TEST(KlBisection, TrivialInstanceSafe) {
  HypergraphBuilder b(1);
  b.add_net({0});
  const KlResult r = kl_bisection(b.build());
  EXPECT_EQ(r.nets_cut, 0);
  EXPECT_DOUBLE_EQ(r.edge_cut, 0.0);
}

}  // namespace
}  // namespace netpart
