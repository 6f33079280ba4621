/// Tests for the Section 5 thresholding sparsification of the spectral
/// net-ordering computation.

#include <gtest/gtest.h>

#include <algorithm>

#include "circuits/benchmarks.hpp"
#include "circuits/generator.hpp"
#include "hypergraph/cut_metrics.hpp"
#include "igmatch/igmatch.hpp"
#include "spectral/eig1.hpp"

namespace netpart {
namespace {

Hypergraph circuit_with_rails() {
  GeneratorConfig c;
  c.name = "threshold-test";
  c.num_modules = 300;
  c.num_nets = 340;
  c.leaf_max = 16;
  c.rail_sizes = {60, 40};
  return generate_circuit(c).hypergraph;
}

/// IG-Match swept over the thresholded ordering (the composition
/// bench/ablation_threshold measures).
IgMatchResult igmatch_thresholded(const Hypergraph& h, std::int32_t t) {
  const NetOrdering ordering = spectral_net_ordering(
      h, IgWeighting::kPaper, linalg::LanczosOptions{}, t);
  return igmatch_with_ordering(h, ordering.order);
}

TEST(Threshold, DisabledMatchesPlainOrdering) {
  const Hypergraph h = circuit_with_rails();
  const NetOrdering plain = spectral_net_ordering(h);
  const NetOrdering zero = spectral_net_ordering(
      h, IgWeighting::kPaper, linalg::LanczosOptions{}, 0);
  EXPECT_EQ(plain.order, zero.order);
  EXPECT_EQ(zero.nets_thresholded, 0);
}

TEST(Threshold, OrderingIsStillAPermutation) {
  const Hypergraph h = circuit_with_rails();
  const NetOrdering t = spectral_net_ordering(
      h, IgWeighting::kPaper, linalg::LanczosOptions{}, 10);
  EXPECT_TRUE(t.eigen_converged);
  ASSERT_EQ(static_cast<std::int32_t>(t.order.size()), h.num_nets());
  std::vector<char> seen(static_cast<std::size_t>(h.num_nets()), 0);
  for (const std::int32_t n : t.order) {
    ASSERT_GE(n, 0);
    ASSERT_LT(n, h.num_nets());
    ASSERT_FALSE(seen[static_cast<std::size_t>(n)]);
    seen[static_cast<std::size_t>(n)] = 1;
  }
}

TEST(Threshold, CountsThresholdedNets) {
  const Hypergraph h = circuit_with_rails();
  const NetOrdering t = spectral_net_ordering(
      h, IgWeighting::kPaper, linalg::LanczosOptions{}, 10);
  std::int32_t large = 0;
  for (NetId n = 0; n < h.num_nets(); ++n)
    if (h.net_size(n) > 10) ++large;
  EXPECT_EQ(t.nets_thresholded, large);
  EXPECT_GT(large, 0);
}

TEST(Threshold, ThresholdAboveMaxSizeIsNoOp) {
  const Hypergraph h = circuit_with_rails();
  const NetOrdering plain = spectral_net_ordering(h);
  const NetOrdering t = spectral_net_ordering(
      h, IgWeighting::kPaper, linalg::LanczosOptions{}, 10000);
  EXPECT_EQ(t.nets_thresholded, 0);
  EXPECT_EQ(plain.order, t.order);
}

TEST(Threshold, LargeNetsPlacedNearTheirNeighbours) {
  // A large net whose small neighbours all sit at one end of the ordering
  // must be interpolated near that end, not at the middle.
  HypergraphBuilder b(12);
  // Two clusters of 2-pin nets.
  b.add_net({0, 1});
  b.add_net({1, 2});
  b.add_net({2, 3});
  b.add_net({8, 9});
  b.add_net({9, 10});
  b.add_net({10, 11});
  b.add_net({3, 8});  // weak bridge
  // Large net living entirely in the first cluster.
  b.add_net({0, 1, 2, 3, 4, 5, 6, 7});
  const Hypergraph h = b.build();
  const NetOrdering t = spectral_net_ordering(
      h, IgWeighting::kPaper, linalg::LanczosOptions{}, 4);
  EXPECT_EQ(t.nets_thresholded, 1);
  const NetId large = 7;
  const auto pos = std::find(t.order.begin(), t.order.end(), large) -
                   t.order.begin();
  // First-cluster nets occupy one end; the large net must land within the
  // first half of whichever end holds nets 0-2.
  const auto pos_net0 =
      std::find(t.order.begin(), t.order.end(), 0) - t.order.begin();
  const bool cluster_at_front = pos_net0 < 4;
  if (cluster_at_front)
    EXPECT_LT(pos, 5);
  else
    EXPECT_GE(pos, 3);
}

TEST(Threshold, IgMatchStillProducesValidPartition) {
  const Hypergraph h = circuit_with_rails();
  const IgMatchResult r = igmatch_thresholded(h, 10);
  EXPECT_TRUE(r.partition.is_proper());
  EXPECT_EQ(r.nets_cut, net_cut(h, r.partition));
}

TEST(Threshold, QualityStaysReasonableOnBenchmarks) {
  // The thresholded ordering may lose some quality but must stay within a
  // sane factor of the exact one on a clustered circuit (the paper sells
  // thresholding as a speedup with modest quality impact; footnote 2
  // warns the information loss is real).
  const GeneratedCircuit g = make_benchmark("Prim1");
  const IgMatchResult full = igmatch_partition(g.hypergraph);
  const IgMatchResult fast = igmatch_thresholded(g.hypergraph, 15);
  EXPECT_TRUE(fast.partition.is_proper());
  EXPECT_LT(fast.ratio, full.ratio * 4.0);
}

}  // namespace
}  // namespace netpart
