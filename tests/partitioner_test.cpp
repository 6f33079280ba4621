#include "core/partitioner.hpp"

#include <gtest/gtest.h>

#include "circuits/generator.hpp"
#include "hypergraph/cut_metrics.hpp"

namespace netpart {
namespace {

Hypergraph test_circuit() {
  GeneratorConfig c;
  c.name = "partitioner-test";
  c.num_modules = 130;
  c.num_nets = 150;
  c.leaf_max = 12;
  return generate_circuit(c).hypergraph;
}

TEST(Partitioner, ParseAlgorithmRoundTrip) {
  EXPECT_EQ(parse_algorithm("igmatch"), Algorithm::kIgMatch);
  EXPECT_EQ(parse_algorithm("igmatch-recursive"),
            Algorithm::kIgMatchRecursive);
  EXPECT_EQ(parse_algorithm("igmatch-refined"), Algorithm::kIgMatchRefined);
  EXPECT_EQ(parse_algorithm("igvote"), Algorithm::kIgVote);
  EXPECT_EQ(parse_algorithm("eig1"), Algorithm::kEig1);
  EXPECT_EQ(parse_algorithm("rcut"), Algorithm::kRatioCutFm);
  EXPECT_EQ(parse_algorithm("fm"), Algorithm::kMinCutFm);
  EXPECT_EQ(parse_algorithm("kl"), Algorithm::kKl);
  EXPECT_EQ(parse_algorithm("multilevel"), Algorithm::kMultilevel);
  EXPECT_THROW(parse_algorithm("simulated-annealing"),
               std::invalid_argument);
  EXPECT_STREQ(to_string(Algorithm::kIgMatch), "IG-Match");
  EXPECT_STREQ(to_string(Algorithm::kRatioCutFm), "RCut-FM");
  EXPECT_STREQ(to_string(Algorithm::kMultilevel), "Multilevel");
}

TEST(Partitioner, AllAlgorithmsProduceConsistentResults) {
  const Hypergraph h = test_circuit();
  for (const Algorithm a :
       {Algorithm::kIgMatch, Algorithm::kIgMatchRecursive,
        Algorithm::kIgMatchRefined, Algorithm::kIgVote, Algorithm::kEig1,
        Algorithm::kRatioCutFm, Algorithm::kMinCutFm, Algorithm::kKl,
        Algorithm::kMultilevel}) {
    PartitionerConfig config;
    config.algorithm = a;
    config.fm.num_starts = 2;
    const PartitionResult r = run_partitioner(h, config);
    EXPECT_EQ(r.algorithm_name, to_string(a));
    EXPECT_TRUE(r.partition.is_proper()) << r.algorithm_name;
    EXPECT_EQ(r.nets_cut, net_cut(h, r.partition)) << r.algorithm_name;
    EXPECT_DOUBLE_EQ(r.ratio, ratio_cut(h, r.partition)) << r.algorithm_name;
    EXPECT_EQ(r.left_size + r.right_size, h.num_modules());
    EXPECT_GE(r.runtime_ms, 0.0);
  }
}

TEST(Partitioner, SpectralDiagnosticsFilled) {
  const Hypergraph h = test_circuit();
  PartitionerConfig config;
  config.algorithm = Algorithm::kIgMatch;
  const PartitionResult r = run_partitioner(h, config);
  ASSERT_TRUE(r.eigen_converged.has_value());
  EXPECT_TRUE(*r.eigen_converged);
  ASSERT_TRUE(r.lambda2.has_value());
  EXPECT_GT(*r.lambda2, 0.0);  // connected circuit
  EXPECT_GE(r.matching_bound, r.nets_cut);
}

TEST(Partitioner, SpectralDiagnosticsEmptyForCombinatorialAlgorithms) {
  const Hypergraph h = test_circuit();
  for (const Algorithm a : {Algorithm::kRatioCutFm, Algorithm::kMinCutFm,
                            Algorithm::kKl}) {
    PartitionerConfig config;
    config.algorithm = a;
    config.fm.num_starts = 2;
    const PartitionResult r = run_partitioner(h, config);
    EXPECT_FALSE(r.lambda2.has_value()) << r.algorithm_name;
    EXPECT_FALSE(r.eigen_converged.has_value()) << r.algorithm_name;
  }
}

TEST(Partitioner, MetricsSnapshotCapturedWhenEnabled) {
  const Hypergraph h = test_circuit();
  obs::MetricsRegistry& registry = obs::MetricsRegistry::instance();
  registry.reset();
  registry.set_enabled(true);
  PartitionerConfig config;
  config.algorithm = Algorithm::kIgMatch;
  const PartitionResult r = run_partitioner(h, config);
  registry.set_enabled(false);
  registry.reset();
  EXPECT_FALSE(r.metrics.empty());
  EXPECT_EQ(r.metrics.counter("igmatch.runs"), 1);
  ASSERT_FALSE(r.metrics.spans.empty());
  EXPECT_EQ(r.metrics.spans.front().name, "run-partitioner");
  EXPECT_GT(r.metrics.spans.front().wall_ms, 0.0);
}

TEST(Partitioner, RefinedNeverWorseThanPlainIgMatch) {
  const Hypergraph h = test_circuit();
  PartitionerConfig plain;
  plain.algorithm = Algorithm::kIgMatch;
  PartitionerConfig refined;
  refined.algorithm = Algorithm::kIgMatchRefined;
  const PartitionResult a = run_partitioner(h, plain);
  const PartitionResult b = run_partitioner(h, refined);
  EXPECT_LE(b.ratio, a.ratio + 1e-12);
}

TEST(Partitioner, ThresholdOptionIsHonoured) {
  const Hypergraph h = test_circuit();
  PartitionerConfig config;
  config.algorithm = Algorithm::kIgMatch;
  config.threshold_net_size = 8;
  const PartitionResult r = run_partitioner(h, config);
  EXPECT_TRUE(r.partition.is_proper());
  EXPECT_EQ(r.nets_cut, net_cut(h, r.partition));
}

TEST(Partitioner, DeterministicAcrossRuns) {
  const Hypergraph h = test_circuit();
  PartitionerConfig config;
  config.algorithm = Algorithm::kIgMatch;
  const PartitionResult a = run_partitioner(h, config);
  const PartitionResult b = run_partitioner(h, config);
  EXPECT_EQ(a.partition, b.partition);
  EXPECT_EQ(a.nets_cut, b.nets_cut);
}

}  // namespace
}  // namespace netpart
