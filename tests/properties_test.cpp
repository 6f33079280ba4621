/// Cross-module property tests: randomized instances checked against
/// brute-force oracles and against the paper's theorems.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "circuits/generator.hpp"
#include "circuits/rng.hpp"
#include "core/partitioner.hpp"
#include "graph/clique_model.hpp"
#include "hypergraph/cut_metrics.hpp"
#include "io/netlist_io.hpp"
#include "linalg/fiedler.hpp"
#include "spectral/eig1.hpp"

#include <sstream>

namespace netpart {
namespace {

/// Random small hypergraph with only 2-pin nets (graph case), connected by
/// construction via a spanning path.
Hypergraph random_graph_netlist(std::int32_t n, std::int32_t extra_nets,
                                std::uint64_t seed) {
  Xoshiro256 rng(seed);
  HypergraphBuilder b(n);
  for (std::int32_t i = 0; i + 1 < n; ++i) b.add_net({i, i + 1});
  for (std::int32_t e = 0; e < extra_nets; ++e) {
    const auto u = static_cast<ModuleId>(rng.below(static_cast<std::uint64_t>(n)));
    auto v = static_cast<ModuleId>(rng.below(static_cast<std::uint64_t>(n)));
    if (u == v) v = (v + 1) % n;
    b.add_net({u, v});
  }
  return b.build();
}

/// Exhaustive optimal ratio cut over all 2^(n-1) proper bipartitions.
double brute_force_optimal_ratio(const Hypergraph& h) {
  const std::int32_t n = h.num_modules();
  double best = std::numeric_limits<double>::infinity();
  for (std::uint32_t mask = 1; mask + 1 < (1u << (n - 1)) * 2; ++mask) {
    Partition p(n);
    for (std::int32_t m = 0; m < n; ++m)
      if ((mask >> m) & 1u) p.assign(m, Side::kRight);
    if (!p.is_proper()) continue;
    best = std::min(best, ratio_cut(h, p));
  }
  return best;
}

class SmallInstanceTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SmallInstanceTest, HeuristicsNeverBeatBruteForce) {
  const std::uint64_t seed = GetParam();
  const Hypergraph h = random_graph_netlist(9, 8, seed);
  const double optimal = brute_force_optimal_ratio(h);
  for (const Algorithm a :
       {Algorithm::kIgMatch, Algorithm::kIgVote, Algorithm::kEig1,
        Algorithm::kRatioCutFm}) {
    PartitionerConfig config;
    config.algorithm = a;
    config.fm.num_starts = 3;
    const PartitionResult r = run_partitioner(h, config);
    EXPECT_GE(r.ratio, optimal - 1e-12) << to_string(a) << " seed " << seed;
  }
}

TEST_P(SmallInstanceTest, Theorem1LowerBoundOnGraphNetlists) {
  // For 2-pin-net netlists the hypergraph net cut equals the clique-model
  // weighted edge cut, so Theorem 1 (c >= lambda_2 / n) applies verbatim
  // to the brute-force optimum.
  const std::uint64_t seed = GetParam();
  const Hypergraph h = random_graph_netlist(9, 6, seed);
  const double optimal = brute_force_optimal_ratio(h);
  const WeightedGraph g = clique_expansion(h);
  const linalg::FiedlerResult f = linalg::fiedler_pair(g.laplacian());
  ASSERT_TRUE(f.converged);
  EXPECT_LE(f.lambda2 / h.num_modules(), optimal + 1e-9) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, SmallInstanceTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88, 99,
                                           110));

/// Whole-pipeline invariants on generated circuits of several sizes.
struct CircuitParam {
  std::int32_t modules;
  std::int32_t nets;
  const char* name;
};

// Print a case as its circuit name.  gtest's default, a byte dump of the
// struct, would include the address of `name`, which moves with every run
// and would make the test names ctest discovers differ from build to build.
void PrintTo(const CircuitParam& param, std::ostream* os) { *os << param.name; }

class GeneratedCircuitTest : public ::testing::TestWithParam<CircuitParam> {};

TEST_P(GeneratedCircuitTest, AllAlgorithmsReportTruthfully) {
  const CircuitParam param = GetParam();
  GeneratorConfig c;
  c.name = param.name;
  c.num_modules = param.modules;
  c.num_nets = param.nets;
  c.leaf_max = 16;
  const Hypergraph h = generate_circuit(c).hypergraph;
  for (const Algorithm a : {Algorithm::kIgMatch, Algorithm::kIgVote,
                            Algorithm::kEig1, Algorithm::kRatioCutFm}) {
    PartitionerConfig config;
    config.algorithm = a;
    config.fm.num_starts = 2;
    const PartitionResult r = run_partitioner(h, config);
    ASSERT_TRUE(r.partition.is_proper()) << to_string(a);
    ASSERT_EQ(r.nets_cut, net_cut(h, r.partition)) << to_string(a);
    // Cut is invariant under swapping side labels.
    Partition swapped = r.partition;
    for (ModuleId m = 0; m < h.num_modules(); ++m) swapped.flip(m);
    ASSERT_EQ(net_cut(h, swapped), r.nets_cut) << to_string(a);
  }
}

TEST_P(GeneratedCircuitTest, HgrRoundTripPreservesCutValues) {
  const CircuitParam param = GetParam();
  GeneratorConfig c;
  c.name = param.name;
  c.num_modules = param.modules;
  c.num_nets = param.nets;
  c.leaf_max = 16;
  const Hypergraph h = generate_circuit(c).hypergraph;
  std::stringstream buffer;
  io::write_hgr(buffer, h);
  const Hypergraph parsed = io::read_hgr(buffer);
  const Partition p = random_balanced_partition(h.num_modules(), 5);
  EXPECT_EQ(net_cut(h, p), net_cut(parsed, p));
}

TEST_P(GeneratedCircuitTest, IncrementalCutAgreesOnRandomWalk) {
  const CircuitParam param = GetParam();
  GeneratorConfig c;
  c.name = param.name;
  c.num_modules = param.modules;
  c.num_nets = param.nets;
  c.leaf_max = 16;
  const Hypergraph h = generate_circuit(c).hypergraph;
  Xoshiro256 rng(1234);
  IncrementalCut tracker(h, random_balanced_partition(h.num_modules(), 9));
  for (int step = 0; step < 200; ++step) {
    const auto m = static_cast<ModuleId>(
        rng.below(static_cast<std::uint64_t>(h.num_modules())));
    tracker.flip(m);
    if (step % 50 == 49)
      ASSERT_EQ(tracker.cut(), net_cut(h, tracker.partition())) << step;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, GeneratedCircuitTest,
    ::testing::Values(CircuitParam{60, 80, "prop-tiny"},
                      CircuitParam{150, 170, "prop-small"},
                      CircuitParam{400, 440, "prop-medium"}));

TEST(SpectralQuality, IgMatchGoodOnClusteredCircuits) {
  // On a strongly clustered circuit, the spectral IG pipeline must find a
  // partition close to the generator's ground-truth hierarchy: its ratio
  // cut should be dramatically better than a random balanced cut.
  GeneratorConfig c;
  c.name = "prop-clustered";
  c.num_modules = 300;
  c.num_nets = 330;
  c.leaf_max = 20;
  c.descend_probability = 0.9;
  const Hypergraph h = generate_circuit(c).hypergraph;
  PartitionerConfig config;
  config.algorithm = Algorithm::kIgMatch;
  const PartitionResult r = run_partitioner(h, config);
  const double random_ratio =
      ratio_cut(h, random_balanced_partition(h.num_modules(), 77));
  EXPECT_LT(r.ratio, random_ratio / 4.0);
}

}  // namespace
}  // namespace netpart
