#include "hypergraph/hypergraph.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace netpart {
namespace {

Hypergraph triangle() {
  // Three modules, three 2-pin nets forming a triangle.
  HypergraphBuilder b(3);
  b.add_net({0, 1});
  b.add_net({1, 2});
  b.add_net({0, 2});
  return b.build();
}

TEST(Hypergraph, EmptyByDefault) {
  const Hypergraph h;
  EXPECT_EQ(h.num_modules(), 0);
  EXPECT_EQ(h.num_nets(), 0);
  EXPECT_EQ(h.num_pins(), 0);
  EXPECT_TRUE(h.is_connected());
}

TEST(Hypergraph, BasicCounts) {
  const Hypergraph h = triangle();
  EXPECT_EQ(h.num_modules(), 3);
  EXPECT_EQ(h.num_nets(), 3);
  EXPECT_EQ(h.num_pins(), 6);
  EXPECT_EQ(h.max_net_size(), 2);
  EXPECT_EQ(h.max_module_degree(), 2);
}

TEST(Hypergraph, PinsAreSorted) {
  HypergraphBuilder b(5);
  b.add_net({4, 2, 0});
  const Hypergraph h = b.build();
  const auto pins = h.pins(0);
  ASSERT_EQ(pins.size(), 3u);
  EXPECT_EQ(pins[0], 0);
  EXPECT_EQ(pins[1], 2);
  EXPECT_EQ(pins[2], 4);
}

TEST(Hypergraph, DuplicatePinsMerged) {
  HypergraphBuilder b(3);
  b.add_net({1, 1, 2, 1});
  const Hypergraph h = b.build();
  EXPECT_EQ(h.net_size(0), 2);
  EXPECT_TRUE(h.contains(0, 1));
  EXPECT_TRUE(h.contains(0, 2));
  EXPECT_FALSE(h.contains(0, 0));
}

TEST(Hypergraph, IncidenceTransposeConsistent) {
  const Hypergraph h = triangle();
  for (ModuleId m = 0; m < h.num_modules(); ++m)
    for (const NetId n : h.nets_of(m)) EXPECT_TRUE(h.contains(n, m));
  std::int64_t total = 0;
  for (ModuleId m = 0; m < h.num_modules(); ++m)
    total += h.module_degree(m);
  EXPECT_EQ(total, h.num_pins());
}

TEST(Hypergraph, ModuleNetsSorted) {
  HypergraphBuilder b(2);
  b.add_net({0, 1});
  b.add_net({0, 1});
  b.add_net({0});
  const Hypergraph h = b.build();
  const auto nets = h.nets_of(0);
  ASSERT_EQ(nets.size(), 3u);
  EXPECT_EQ(nets[0], 0);
  EXPECT_EQ(nets[1], 1);
  EXPECT_EQ(nets[2], 2);
}

TEST(Hypergraph, SinglePinNetAllowed) {
  HypergraphBuilder b(2);
  b.add_net({1});
  const Hypergraph h = b.build();
  EXPECT_EQ(h.net_size(0), 1);
  EXPECT_EQ(h.module_degree(0), 0);
  EXPECT_EQ(h.module_degree(1), 1);
}

TEST(HypergraphBuilder, RejectsBadPin) {
  HypergraphBuilder b(2);
  EXPECT_THROW(b.add_net({0, 2}), std::out_of_range);
  EXPECT_THROW(b.add_net({-1}), std::out_of_range);
}

TEST(HypergraphBuilder, RejectsNegativeModuleCount) {
  EXPECT_THROW(HypergraphBuilder(-1), std::invalid_argument);
}

TEST(HypergraphBuilder, NamePropagates) {
  HypergraphBuilder b(1);
  b.set_name("testchip");
  const Hypergraph h = b.build();
  EXPECT_EQ(h.name(), "testchip");
}

TEST(HypergraphBuilder, ReusableAfterBuild) {
  HypergraphBuilder b(3);
  b.add_net({0, 1});
  const Hypergraph first = b.build();
  EXPECT_EQ(first.num_nets(), 1);
  b.add_net({1, 2});
  b.add_net({0, 2});
  const Hypergraph second = b.build();
  EXPECT_EQ(second.num_nets(), 2);
  EXPECT_TRUE(second.contains(0, 2));
}

TEST(HypergraphBuilder, CanonicalNetsEqualAddingThemOneByOne) {
  HypergraphBuilder b(5);
  b.set_name("csr");
  b.add_net({0, 3, 4}, 2);
  b.add_net({1, 2});
  b.add_net({4}, 7);
  b.add_net({0, 1, 2, 3});
  const Hypergraph expected = b.build();
  const Hypergraph h = HypergraphBuilder::from_canonical_nets(
      5, "csr", {0, 3, 5, 6, 10}, {0, 3, 4, 1, 2, 4, 0, 1, 2, 3},
      {2, 1, 7, 1});
  EXPECT_EQ(h.name(), "csr");
  ASSERT_EQ(h.num_modules(), expected.num_modules());
  ASSERT_EQ(h.num_nets(), expected.num_nets());
  for (NetId n = 0; n < h.num_nets(); ++n) {
    const auto got = h.pins(n);
    const auto want = expected.pins(n);
    EXPECT_EQ(std::vector<ModuleId>(got.begin(), got.end()),
              std::vector<ModuleId>(want.begin(), want.end()));
    EXPECT_EQ(h.net_weight(n), expected.net_weight(n));
  }
  for (ModuleId m = 0; m < h.num_modules(); ++m) {
    const auto got = h.nets_of(m);
    const auto want = expected.nets_of(m);
    EXPECT_EQ(std::vector<NetId>(got.begin(), got.end()),
              std::vector<NetId>(want.begin(), want.end()));
  }
}

TEST(HypergraphBuilder, CanonicalNetsRejectBrokenForm) {
  using B = HypergraphBuilder;
  EXPECT_THROW((void)B::from_canonical_nets(-1, "", {0}, {}, {}),
               std::invalid_argument);
  // Offsets must start at 0, end at the pin count and match the weights.
  EXPECT_THROW((void)B::from_canonical_nets(3, "", {}, {}, {}),
               std::invalid_argument);
  EXPECT_THROW((void)B::from_canonical_nets(3, "", {1, 2}, {0, 1}, {1}),
               std::invalid_argument);
  EXPECT_THROW((void)B::from_canonical_nets(3, "", {0, 1}, {0, 1}, {1}),
               std::invalid_argument);
  EXPECT_THROW((void)B::from_canonical_nets(3, "", {0, 2}, {0, 1}, {}),
               std::invalid_argument);
  EXPECT_THROW(
      (void)B::from_canonical_nets(3, "", {0, 2, 1, 2}, {0, 1}, {1, 1, 1}),
      std::invalid_argument);
  // Pins strictly increasing and in range; weights >= 1.
  EXPECT_THROW((void)B::from_canonical_nets(3, "", {0, 2}, {1, 0}, {1}),
               std::invalid_argument);
  EXPECT_THROW((void)B::from_canonical_nets(3, "", {0, 2}, {1, 1}, {1}),
               std::invalid_argument);
  EXPECT_THROW((void)B::from_canonical_nets(3, "", {0, 2}, {0, 3}, {1}),
               std::out_of_range);
  EXPECT_THROW((void)B::from_canonical_nets(3, "", {0, 2}, {-1, 0}, {1}),
               std::out_of_range);
  EXPECT_THROW((void)B::from_canonical_nets(3, "", {0, 2}, {0, 1}, {0}),
               std::invalid_argument);
  // No nets at all is a valid (empty-netlist) form.
  EXPECT_EQ(B::from_canonical_nets(3, "", {0}, {}, {}).num_modules(), 3);
}

TEST(Hypergraph, ConnectivityDetection) {
  HypergraphBuilder b(4);
  b.add_net({0, 1});
  b.add_net({2, 3});
  const Hypergraph split = b.build();
  EXPECT_FALSE(split.is_connected());

  HypergraphBuilder b2(4);
  b2.add_net({0, 1});
  b2.add_net({2, 3});
  b2.add_net({1, 2});
  EXPECT_TRUE(b2.build().is_connected());
}

TEST(Hypergraph, IsolatedModuleBreaksConnectivity) {
  HypergraphBuilder b(3);
  b.add_net({0, 1});
  EXPECT_FALSE(b.build().is_connected());
}

TEST(InduceSubhypergraph, RenumbersAndFiltersNets) {
  HypergraphBuilder b(6);
  b.add_net({0, 1, 2});  // two pins survive -> {0, 1}
  b.add_net({3, 4});     // no pins survive -> dropped
  b.add_net({0, 5});     // one pin survives -> dropped
  b.add_net({1, 2});     // both survive -> {1, 2}... renumbered
  const Hypergraph h = b.build();
  const std::vector<ModuleId> keep{0, 1, 2};
  const Hypergraph sub = induce_subhypergraph(h, keep);
  EXPECT_EQ(sub.num_modules(), 3);
  EXPECT_EQ(sub.num_nets(), 2);
  EXPECT_TRUE(sub.contains(0, 0));
  EXPECT_TRUE(sub.contains(0, 1));
  EXPECT_TRUE(sub.contains(0, 2));
  EXPECT_TRUE(sub.contains(1, 1));
  EXPECT_TRUE(sub.contains(1, 2));
}

TEST(InduceSubhypergraph, ReorderedModulesRemap) {
  HypergraphBuilder b(4);
  b.add_net({1, 3});
  const Hypergraph h = b.build();
  const std::vector<ModuleId> keep{3, 1};  // 3 -> 0, 1 -> 1
  const Hypergraph sub = induce_subhypergraph(h, keep);
  EXPECT_EQ(sub.num_nets(), 1);
  EXPECT_TRUE(sub.contains(0, 0));
  EXPECT_TRUE(sub.contains(0, 1));
}

TEST(InduceSubhypergraph, MinNetSizeOneKeepsSingletons) {
  HypergraphBuilder b(3);
  b.add_net({0, 2});
  const Hypergraph h = b.build();
  const std::vector<ModuleId> keep{0};
  EXPECT_EQ(induce_subhypergraph(h, keep, 1).num_nets(), 1);
  EXPECT_EQ(induce_subhypergraph(h, keep, 2).num_nets(), 0);
}

TEST(InduceSubhypergraph, RejectsBadInput) {
  HypergraphBuilder b(3);
  b.add_net({0, 1});
  const Hypergraph h = b.build();
  const std::vector<ModuleId> bad{0, 7};
  EXPECT_THROW(induce_subhypergraph(h, bad), std::out_of_range);
  const std::vector<ModuleId> dup{1, 1};
  EXPECT_THROW(induce_subhypergraph(h, dup), std::invalid_argument);
}

}  // namespace
}  // namespace netpart
