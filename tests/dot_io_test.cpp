#include "io/dot_io.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace netpart::io {
namespace {

Hypergraph small() {
  HypergraphBuilder b(3);
  b.add_net({0, 1});
  b.add_net({1, 2}, 4);
  return b.build();
}

TEST(DotNetlist, EmitsModulesNetsAndPins) {
  std::ostringstream os;
  write_dot_netlist(os, small());
  const std::string dot = os.str();
  EXPECT_NE(dot.find("graph netlist {"), std::string::npos);
  EXPECT_NE(dot.find("m0 [shape=circle"), std::string::npos);
  EXPECT_NE(dot.find("n0 [shape=box"), std::string::npos);
  EXPECT_NE(dot.find("n0 -- m0;"), std::string::npos);
  EXPECT_NE(dot.find("n1 -- m2;"), std::string::npos);
  // Weighted net rendered thicker.
  EXPECT_NE(dot.find("n1 [shape=box, label=\"n1\", penwidth=2]"),
            std::string::npos);
}

TEST(DotNetlist, PartitionColorsModules) {
  Partition p(3);
  p.assign(2, Side::kRight);
  DotOptions options;
  options.partition = &p;
  std::ostringstream os;
  write_dot_netlist(os, small(), options);
  const std::string dot = os.str();
  EXPECT_NE(dot.find("fillcolor=lightblue"), std::string::npos);
  EXPECT_NE(dot.find("fillcolor=lightsalmon"), std::string::npos);
}

TEST(DotNetlist, MaxNetSizeFiltersLargeNets) {
  HypergraphBuilder b(5);
  b.add_net({0, 1});
  b.add_net({0, 1, 2, 3, 4});
  DotOptions options;
  options.max_net_size = 3;
  std::ostringstream os;
  write_dot_netlist(os, b.build(), options);
  const std::string dot = os.str();
  EXPECT_NE(dot.find("n0 "), std::string::npos);
  EXPECT_EQ(dot.find("n1 "), std::string::npos);
}

}  // namespace
}  // namespace netpart::io
