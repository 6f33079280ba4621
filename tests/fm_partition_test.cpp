#include "fm/fm_partition.hpp"

#include <gtest/gtest.h>

#include "circuits/generator.hpp"
#include "hypergraph/cut_metrics.hpp"

namespace netpart {
namespace {

Hypergraph small_circuit(const char* name) {
  GeneratorConfig c;
  c.name = name;
  c.num_modules = 120;
  c.num_nets = 140;
  c.leaf_max = 12;
  return generate_circuit(c).hypergraph;
}

TEST(RandomBalancedPartition, IsBalancedAndSeeded) {
  const Partition a = random_balanced_partition(101, 5);
  EXPECT_EQ(a.size(Side::kLeft), 51);
  EXPECT_EQ(a.size(Side::kRight), 50);
  const Partition b = random_balanced_partition(101, 5);
  EXPECT_EQ(a, b);
  const Partition c = random_balanced_partition(101, 6);
  EXPECT_FALSE(a == c);
}

TEST(RatioCutFm, ProducesConsistentResult) {
  const Hypergraph h = small_circuit("fm-driver-ratio");
  FmOptions options;
  options.num_starts = 4;
  const FmRunResult r = ratio_cut_fm(h, options);
  EXPECT_TRUE(r.partition.is_proper());
  EXPECT_EQ(r.nets_cut, net_cut(h, r.partition));
  EXPECT_DOUBLE_EQ(r.ratio, ratio_cut(h, r.partition));
  EXPECT_EQ(r.starts_run, 4);
  EXPECT_GE(r.total_passes, 4);
}

TEST(RatioCutFm, MoreStartsNeverWorse) {
  const Hypergraph h = small_circuit("fm-driver-starts");
  FmOptions few;
  few.num_starts = 1;
  FmOptions many;
  many.num_starts = 6;
  const FmRunResult a = ratio_cut_fm(h, few);
  const FmRunResult b = ratio_cut_fm(h, many);
  // The first start of `many` is identical to `few`'s single start, so the
  // best over six starts cannot be worse.
  EXPECT_LE(b.ratio, a.ratio + 1e-12);
}

TEST(MinCutBisection, RespectsBalanceWindow) {
  const Hypergraph h = small_circuit("fm-driver-bisect");
  FmOptions options;
  options.num_starts = 3;
  const FmRunResult r = fm_min_cut_bisection(h, options);
  const std::int32_t n = h.num_modules();
  const std::int32_t deviation = std::max(
      1, static_cast<std::int32_t>(kFmBalanceTolerance * n / 2.0));
  EXPECT_GE(r.partition.size(Side::kLeft), n / 2 - deviation);
  EXPECT_LE(r.partition.size(Side::kLeft), (n + 1) / 2 + deviation);
  EXPECT_EQ(r.nets_cut, net_cut(h, r.partition));
}

TEST(MinCutBisection, BeatsRandomStart) {
  const Hypergraph h = small_circuit("fm-driver-improves");
  const Partition random_start = random_balanced_partition(
      h.num_modules(), 0xC0FFEEULL);
  const std::int32_t random_cut = net_cut(h, random_start);
  FmOptions options;
  options.num_starts = 3;
  const FmRunResult r = fm_min_cut_bisection(h, options);
  EXPECT_LT(r.nets_cut, random_cut);
}

TEST(FmDrivers, DeterministicForFixedSeed) {
  const Hypergraph h = small_circuit("fm-driver-det");
  FmOptions options;
  options.num_starts = 2;
  options.seed = 42;
  const FmRunResult a = ratio_cut_fm(h, options);
  const FmRunResult b = ratio_cut_fm(h, options);
  EXPECT_EQ(a.partition, b.partition);
  EXPECT_EQ(a.nets_cut, b.nets_cut);
}

TEST(FmDrivers, ParallelStartsIdenticalToSequential) {
  // The multi-start result must not depend on the thread count: starts are
  // independently seeded and ties break by start index.
  const Hypergraph h = small_circuit("fm-driver-parallel");
  FmOptions sequential;
  sequential.num_starts = 6;
  sequential.num_threads = 1;
  FmOptions parallel = sequential;
  parallel.num_threads = 4;
  const FmRunResult a = ratio_cut_fm(h, sequential);
  const FmRunResult b = ratio_cut_fm(h, parallel);
  EXPECT_EQ(a.partition, b.partition);
  EXPECT_EQ(a.nets_cut, b.nets_cut);
  EXPECT_EQ(a.total_passes, b.total_passes);

  const FmRunResult c = fm_min_cut_bisection(h, sequential);
  const FmRunResult d = fm_min_cut_bisection(h, parallel);
  EXPECT_EQ(c.partition, d.partition);
}

TEST(FmDrivers, MoreThreadsThanStartsIsSafe) {
  const Hypergraph h = small_circuit("fm-driver-overthread");
  FmOptions options;
  options.num_starts = 2;
  options.num_threads = 16;
  const FmRunResult r = ratio_cut_fm(h, options);
  EXPECT_EQ(r.starts_run, 2);
  EXPECT_TRUE(r.partition.is_proper());
}

TEST(FmDrivers, TinyInstanceSafe) {
  HypergraphBuilder b(1);
  b.add_net({0});
  const FmRunResult r = ratio_cut_fm(b.build());
  EXPECT_EQ(r.nets_cut, 0);
}

}  // namespace
}  // namespace netpart
