/// Oracle-backed IG-Match tests on tiny random circuits.
///
/// For circuits with at most 12 modules the optimal ratio cut is computable
/// by brute force: enumerate all 2^(n-1) - 1 proper bipartitions (module 0
/// pinned to Left kills the mirror symmetry).  Against that exact oracle we
/// check two things at every random instance:
///
///  * IG-Match is a heuristic — it must never report a ratio BETTER than
///    the optimum (that would mean a metric bug), and
///  * the Theorem 4/5 guarantee holds at every one of the m-1 splits of the
///    sweep: the nets cut by the chosen completion never exceed the size of
///    the maximum matching of the split's bipartite conflict graph.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "circuits/rng.hpp"
#include "hypergraph/cut_metrics.hpp"
#include "hypergraph/hypergraph.hpp"
#include "igmatch/igmatch.hpp"

namespace netpart {
namespace {

/// Random connected-ish circuit: n in [4, 12] modules, nets of size
/// 2..min(5, n).  Every module appears in at least one net (a chain seed
/// guarantees it) so no row of the oracle is trivially uncuttable.
Hypergraph tiny_circuit(std::uint64_t seed) {
  Xoshiro256 rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  const auto n = static_cast<std::int32_t>(rng.range(4, 12));
  HypergraphBuilder builder(n);
  // Chain seed: modules i, i+1 share a net, so the circuit is connected.
  for (std::int32_t i = 0; i + 1 < n; i += 2)
    builder.add_net({i, i + 1});
  const auto extra = static_cast<std::int32_t>(rng.range(3, 10));
  for (std::int32_t e = 0; e < extra; ++e) {
    const auto size = static_cast<std::int32_t>(
        rng.range(2, std::min<std::int64_t>(5, n)));
    std::vector<ModuleId> pins;
    for (std::int32_t i = 0; i < size; ++i)
      pins.push_back(
          static_cast<ModuleId>(rng.below(static_cast<std::uint64_t>(n))));
    std::sort(pins.begin(), pins.end());
    pins.erase(std::unique(pins.begin(), pins.end()), pins.end());
    if (pins.size() >= 2) builder.add_net(pins);
  }
  return builder.build();
}

/// Exact minimum ratio cut by exhaustive enumeration.  Module 0 is pinned
/// to Left; masks run over modules 1..n-1, skipping the improper all-left /
/// all-right assignments.
double oracle_min_ratio(const Hypergraph& h) {
  const std::int32_t n = h.num_modules();
  double best = std::numeric_limits<double>::infinity();
  const std::uint32_t limit = 1u << (n - 1);
  for (std::uint32_t mask = 1; mask < limit; ++mask) {
    Partition p(n, Side::kLeft);
    for (std::int32_t m = 1; m < n; ++m)
      if ((mask >> (m - 1)) & 1u) p.assign(m, Side::kRight);
    const double r =
        ratio_cut_value(net_cut(h, p), p.size(Side::kLeft),
                        p.size(Side::kRight));
    if (r < best) best = r;
  }
  return best;
}

TEST(IgMatchOracleTest, NeverBeatsExhaustiveOracleAndBoundHoldsPerSplit) {
  constexpr std::uint64_t kInstances = 60;
  std::int32_t optimal_hits = 0;
  std::int32_t proper_results = 0;
  for (std::uint64_t seed = 0; seed < kInstances; ++seed) {
    const Hypergraph h = tiny_circuit(seed);
    const double oracle = oracle_min_ratio(h);
    ASSERT_TRUE(std::isfinite(oracle)) << "seed " << seed;

    IgMatchOptions options;
    options.record_splits = true;
    const IgMatchResult r = igmatch_partition(h, options);

    if (r.partition.is_proper()) {
      ++proper_results;
      // Reported metrics must be self-consistent...
      EXPECT_EQ(r.nets_cut, net_cut(h, r.partition)) << "seed " << seed;
      EXPECT_EQ(r.ratio,
                ratio_cut_value(r.nets_cut, r.partition.size(Side::kLeft),
                                r.partition.size(Side::kRight)))
          << "seed " << seed;
      if (r.ratio <= oracle + 1e-12) ++optimal_hits;
    } else {
      // Tiny dense instances can leave every split without a proper
      // wholesale completion; the contract is then an explicit +inf, not
      // a bogus "perfect" ratio.
      EXPECT_TRUE(std::isinf(r.ratio)) << "seed " << seed;
    }
    // Either way, the result can never be better than the exhaustive
    // optimum...
    EXPECT_GE(r.ratio, oracle - 1e-12) << "seed " << seed;

    // ...and Theorem 4/5 holds: at EVERY split, cut <= |maximum matching|.
    ASSERT_EQ(r.splits.size(),
              static_cast<std::size_t>(h.num_nets() - 1))
        << "seed " << seed;
    for (const IgMatchSplitRecord& rec : r.splits)
      EXPECT_LE(rec.nets_cut, rec.matching_size)
          << "seed " << seed << " rank " << rec.rank;
  }
  // The degenerate no-proper-completion corner must stay a corner, and the
  // spectral ordering should find the true optimum on a decent share of
  // these tiny instances; if it never does, the sweep is broken even though
  // every inequality above passes.
  EXPECT_GE(proper_results, static_cast<std::int32_t>(kInstances * 3 / 4));
  EXPECT_GE(optimal_hits, static_cast<std::int32_t>(kInstances / 4));
}

// The Theorem 4/5 bound is a property of the sweep, not of the spectral
// ordering: it must hold for arbitrary (e.g. shuffled) net orderings too.
TEST(IgMatchOracleTest, MatchingBoundHoldsForShuffledOrderings) {
  for (std::uint64_t seed = 100; seed < 130; ++seed) {
    const Hypergraph h = tiny_circuit(seed);
    const double oracle = oracle_min_ratio(h);
    std::vector<std::int32_t> order(static_cast<std::size_t>(h.num_nets()));
    std::iota(order.begin(), order.end(), 0);
    Xoshiro256 rng(seed ^ 0xdeadbeefULL);
    for (std::size_t i = order.size(); i > 1; --i)
      std::swap(order[i - 1],
                order[static_cast<std::size_t>(rng.below(i))]);

    IgMatchOptions options;
    options.record_splits = true;
    const IgMatchResult r = igmatch_with_ordering(h, order, options);
    EXPECT_GE(r.ratio, oracle - 1e-12) << "seed " << seed;
    if (!r.partition.is_proper())
      EXPECT_TRUE(std::isinf(r.ratio)) << "seed " << seed;
    for (const IgMatchSplitRecord& rec : r.splits)
      EXPECT_LE(rec.nets_cut, rec.matching_size)
          << "seed " << seed << " rank " << rec.rank;
  }
}

}  // namespace
}  // namespace netpart
