#include "io/dot_io.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <sstream>
#include <vector>

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

TEST(DotNetlist, MaxNetSizeFiltersLargeNets) {
  // One net at the kDotMaxNetSize bound, one just above it.
  HypergraphBuilder b(kDotMaxNetSize + 1);
  std::vector<ModuleId> pins(static_cast<std::size_t>(kDotMaxNetSize) + 1);
  std::iota(pins.begin(), pins.end(), 0);
  b.add_net(std::vector<ModuleId>(pins.begin(), pins.end() - 1));
  b.add_net(pins);
  std::ostringstream os;
  write_dot_netlist(os, b.build());
  const std::string dot = os.str();
  EXPECT_NE(dot.find("n0 "), std::string::npos);
  EXPECT_EQ(dot.find("n1 "), std::string::npos);
}

}  // namespace
}  // namespace netpart::io
