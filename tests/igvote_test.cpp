#include "igvote/igvote.hpp"

#include <gtest/gtest.h>

#include "circuits/generator.hpp"
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

TEST(IgVote, SeparatesDumbbell) {
  const IgVoteResult r = igvote_partition(dumbbell());
  EXPECT_TRUE(r.eigen_converged);
  EXPECT_EQ(r.nets_cut, 1);
  EXPECT_EQ(r.partition.size(Side::kLeft), 5);
}

TEST(IgVote, ResultInternallyConsistent) {
  GeneratorConfig c;
  c.name = "igvote-consistency";
  c.num_modules = 140;
  c.num_nets = 160;
  c.leaf_max = 12;
  const Hypergraph h = generate_circuit(c).hypergraph;
  const IgVoteResult r = igvote_partition(h);
  EXPECT_TRUE(r.partition.is_proper());
  EXPECT_EQ(r.nets_cut, net_cut(h, r.partition));
  EXPECT_DOUBLE_EQ(r.ratio, ratio_cut(h, r.partition));
}

TEST(IgVote, VoteMechanicsOnTinyExample) {
  // Modules 0,1; nets a={0,1}, b={0}, c={1}.  Module 0's total weight is
  // 1/2 + 1 = 3/2; module 1's likewise.  Processing order (a, b, c):
  // after net a both modules have moved weight 1/2 < 3/4, nobody moves;
  // after net b module 0 reaches 3/2 >= 3/4 and defects; the partition
  // {1} | {0} then cuts only net a: ratio 1.
  HypergraphBuilder builder(2);
  builder.add_net({0, 1});
  builder.add_net({0});
  builder.add_net({1});
  const Hypergraph h = builder.build();
  const std::vector<std::int32_t> order{0, 1, 2};
  const IgVoteResult r = igvote_with_ordering(h, order);
  EXPECT_EQ(r.nets_cut, 1);
  EXPECT_DOUBLE_EQ(r.ratio, 1.0);
}

TEST(IgVote, RejectsWrongOrderSize) {
  const Hypergraph h = dumbbell();
  const std::vector<std::int32_t> order{0, 1};
  EXPECT_THROW(igvote_with_ordering(h, order), std::invalid_argument);
}

TEST(IgVote, BothSweepDirectionsConsidered) {
  // On a symmetric instance the two directions tie; on generated circuits
  // the reported winner must match the better of the two directions, which
  // we can only observe through consistency of the final ratio.  Check the
  // flag is at least set deterministically.
  const Hypergraph h = dumbbell();
  const IgVoteResult a = igvote_partition(h);
  const IgVoteResult b = igvote_partition(h);
  EXPECT_EQ(a.forward_sweep_won, b.forward_sweep_won);
  EXPECT_EQ(a.partition, b.partition);
}

TEST(IgVote, TrivialInstances) {
  HypergraphBuilder b(1);
  b.add_net({0});
  const IgVoteResult r = igvote_partition(b.build());
  EXPECT_EQ(r.nets_cut, 0);
}

}  // namespace
}  // namespace netpart
