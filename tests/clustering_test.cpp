#include "cluster/clustering.hpp"

#include <gtest/gtest.h>

#include "circuits/generator.hpp"
#include "hypergraph/cut_metrics.hpp"

namespace netpart {
namespace {

TEST(Clustering, IdentityByDefault) {
  const Clustering c(4);
  EXPECT_EQ(c.num_modules(), 4);
  EXPECT_EQ(c.num_clusters(), 4);
  for (ModuleId m = 0; m < 4; ++m) {
    EXPECT_EQ(c.cluster_of(m), m);
    EXPECT_EQ(c.cluster_size(m), 1);
  }
}

TEST(Clustering, ExplicitMapCountsSizes) {
  const Clustering c({0, 1, 0, 1, 2});
  EXPECT_EQ(c.num_clusters(), 3);
  EXPECT_EQ(c.cluster_size(0), 2);
  EXPECT_EQ(c.cluster_size(1), 2);
  EXPECT_EQ(c.cluster_size(2), 1);
}

TEST(Clustering, RejectsNonDenseIds) {
  EXPECT_THROW(Clustering({0, 2}), std::invalid_argument);
  EXPECT_THROW(Clustering({-1, 0}), std::invalid_argument);
}

TEST(Clustering, ProjectLiftsPartition) {
  const Clustering c({0, 0, 1, 1, 2});
  Partition coarse(3);
  coarse.assign(1, Side::kRight);
  const Partition fine = c.project(coarse);
  EXPECT_EQ(fine.side(0), Side::kLeft);
  EXPECT_EQ(fine.side(1), Side::kLeft);
  EXPECT_EQ(fine.side(2), Side::kRight);
  EXPECT_EQ(fine.side(3), Side::kRight);
  EXPECT_EQ(fine.side(4), Side::kLeft);
}

TEST(Clustering, ProjectRejectsSizeMismatch) {
  const Clustering c({0, 0, 1});
  EXPECT_THROW(c.project(Partition(3)), std::invalid_argument);
}

TEST(HeavyEdgeClustering, JoinsStronglyConnectedModules) {
  // Modules 0-1 tied by two 2-pin nets; 2-3 by one; 4 dangling via a
  // 3-pin net.  Clustering must join (0,1) and (2,3), and keep them apart.
  HypergraphBuilder b(5);
  b.add_net({0, 1});
  b.add_net({0, 1});
  b.add_net({2, 3});
  b.add_net({1, 2, 4});
  const Clustering c = heavy_edge_clustering(b.build(), {});
  EXPECT_EQ(c.cluster_of(0), c.cluster_of(1));
  EXPECT_EQ(c.cluster_of(2), c.cluster_of(3));
  EXPECT_NE(c.cluster_of(0), c.cluster_of(2));
}

TEST(HeavyEdgeClustering, WeightCapOfTwoLeavesPairs) {
  GeneratorConfig config;
  config.name = "hem-test";
  config.num_modules = 300;
  config.num_nets = 330;
  config.leaf_max = 16;
  const Hypergraph h = generate_circuit(config).hypergraph;
  MatchingOptions options;
  options.max_cluster_weight = 2;
  const Clustering c = heavy_edge_clustering(h, options);
  EXPECT_LT(c.num_clusters(), h.num_modules());
  EXPECT_GE(c.num_clusters(), (h.num_modules() + 1) / 2);
  for (std::int32_t cl = 0; cl < c.num_clusters(); ++cl)
    EXPECT_LE(c.cluster_size(cl), 2);
}

TEST(Contract, MergesPinsAndDropsInternalNets) {
  HypergraphBuilder b(4);
  b.add_net({0, 1});     // inside cluster 0: dropped
  b.add_net({0, 2});     // becomes {0, 1}
  b.add_net({0, 1, 3});  // becomes {0, 1} after dedup (0,1 -> 0; 3 -> 1)
  const Hypergraph h = b.build();
  const Clustering c({0, 0, 1, 1});
  const Contraction r = contract_with_info(h, c);
  // The two identical {0, 1} nets fold into one net of weight 2.
  EXPECT_EQ(r.coarse.num_modules(), 2);
  ASSERT_EQ(r.coarse.num_nets(), 1);
  EXPECT_EQ(r.coarse.net_size(0), 2);
  EXPECT_EQ(r.coarse.net_weight(0), 2);
  EXPECT_EQ(r.net_of_fine, (std::vector<NetId>{-1, 0, 0}));
  EXPECT_EQ(r.pins_merged, 2);
  EXPECT_EQ(r.pins_dropped, 1);
  EXPECT_EQ(r.parallel_nets_merged, 1);
  EXPECT_EQ(r.parallel_pins_merged, 2);
}

TEST(Contract, CutIsPreservedUnderProjection) {
  // The weighted cut of the coarse hypergraph equals the weighted cut of
  // the projected fine partition: dropped nets are internal to clusters and
  // can never be cut, and folded parallel nets carry their summed weight.
  GeneratorConfig config;
  config.name = "contract-cut";
  config.num_modules = 200;
  config.num_nets = 230;
  config.leaf_max = 16;
  const Hypergraph h = generate_circuit(config).hypergraph;
  const Clustering c = heavy_edge_clustering(h, {});
  const Hypergraph coarse = contract_with_info(h, c).coarse;

  Partition coarse_partition(coarse.num_modules());
  for (std::int32_t cl = 0; cl < coarse.num_modules(); cl += 2)
    coarse_partition.assign(cl, Side::kRight);
  const Partition fine_partition = c.project(coarse_partition);
  EXPECT_EQ(weighted_net_cut(coarse, coarse_partition),
            weighted_net_cut(h, fine_partition));
}

TEST(Contract, RejectsSizeMismatch) {
  HypergraphBuilder b(3);
  b.add_net({0, 1, 2});
  EXPECT_THROW((void)contract_with_info(b.build(), Clustering(2)),
               std::invalid_argument);
}

}  // namespace
}  // namespace netpart
