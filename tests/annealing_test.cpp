#include "fm/annealing.hpp"

#include <gtest/gtest.h>

#include "circuits/generator.hpp"
#include "fm/fm_partition.hpp"
#include "hypergraph/cut_metrics.hpp"

namespace netpart {
namespace {

Hypergraph dumbbell() {
  HypergraphBuilder b(10);
  for (std::int32_t i = 0; i < 5; ++i)
    for (std::int32_t j = i + 1; j < 5; ++j) {
      b.add_net({i, j});
      b.add_net({5 + i, 5 + j});
    }
  b.add_net({4, 5});
  return b.build();
}

TEST(Annealing, FindsDumbbellOptimum) {
  const AnnealingResult r = anneal_ratio_cut(dumbbell());
  EXPECT_EQ(r.nets_cut, 1);
  EXPECT_EQ(r.partition.size(Side::kLeft), 5);
}

TEST(Annealing, ResultInternallyConsistent) {
  GeneratorConfig c;
  c.name = "sa-consistency";
  c.num_modules = 120;
  c.num_nets = 140;
  c.leaf_max = 12;
  const Hypergraph h = generate_circuit(c).hypergraph;
  const AnnealingResult r = anneal_ratio_cut(h);
  EXPECT_TRUE(r.partition.is_proper());
  EXPECT_EQ(r.nets_cut, net_cut(h, r.partition));
  EXPECT_DOUBLE_EQ(r.ratio, ratio_cut(h, r.partition));
  EXPECT_GT(r.sweeps, 0);
  EXPECT_GT(r.accepted_moves, 0);
}

TEST(Annealing, BeatsItsRandomStart) {
  GeneratorConfig c;
  c.name = "sa-improves";
  c.num_modules = 100;
  c.num_nets = 120;
  c.leaf_max = 10;
  const Hypergraph h = generate_circuit(c).hypergraph;
  AnnealingOptions options;
  options.seed = 99;
  const double start_ratio =
      ratio_cut(h, random_balanced_partition(100, options.seed));
  const AnnealingResult r = anneal_ratio_cut(h, options);
  EXPECT_LT(r.ratio, start_ratio);
}

TEST(Annealing, DeterministicForFixedSeed) {
  const Hypergraph h = dumbbell();
  AnnealingOptions options;
  options.seed = 1234;
  const AnnealingResult a = anneal_ratio_cut(h, options);
  const AnnealingResult b = anneal_ratio_cut(h, options);
  EXPECT_EQ(a.partition, b.partition);
  EXPECT_EQ(a.accepted_moves, b.accepted_moves);
}

TEST(Annealing, DifferentSeedsMayDiffer) {
  GeneratorConfig c;
  c.name = "sa-seeds";
  c.num_modules = 150;
  c.num_nets = 170;
  c.leaf_max = 12;
  const Hypergraph h = generate_circuit(c).hypergraph;
  AnnealingOptions o1;
  o1.seed = 1;
  AnnealingOptions o2;
  o2.seed = 2;
  const AnnealingResult a = anneal_ratio_cut(h, o1);
  const AnnealingResult b = anneal_ratio_cut(h, o2);
  // Stochastic method: runs are independent; both must still be valid.
  EXPECT_TRUE(a.partition.is_proper());
  EXPECT_TRUE(b.partition.is_proper());
}

TEST(Annealing, TrivialInstanceSafe) {
  HypergraphBuilder b(1);
  b.add_net({0});
  const AnnealingResult r = anneal_ratio_cut(b.build());
  EXPECT_EQ(r.nets_cut, 0);
}

}  // namespace
}  // namespace netpart
