#include "igmatch/dynamic_matcher.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "circuits/rng.hpp"
#include "obs/metrics.hpp"

namespace netpart {
namespace {

/// From-scratch maximum matching (Kuhn's algorithm) on the bipartite graph
/// induced by the current side assignment — the reference the incremental
/// matcher is validated against.
std::int32_t reference_matching_size(const WeightedGraph& g,
                                     const std::vector<NetSide>& side) {
  const std::int32_t n = g.num_vertices();
  std::vector<std::int32_t> match(static_cast<std::size_t>(n), -1);
  std::vector<char> used(static_cast<std::size_t>(n), 0);

  // Recursive try-kuhn from a left vertex.
  const auto try_augment = [&](auto&& self, std::int32_t x) -> bool {
    for (const std::int32_t y : g.neighbors(x)) {
      if (side[static_cast<std::size_t>(y)] != NetSide::kRight) continue;
      if (used[static_cast<std::size_t>(y)]) continue;
      used[static_cast<std::size_t>(y)] = 1;
      if (match[static_cast<std::size_t>(y)] == -1 ||
          self(self, match[static_cast<std::size_t>(y)])) {
        match[static_cast<std::size_t>(y)] = x;
        return true;
      }
    }
    return false;
  };

  std::int32_t size = 0;
  for (std::int32_t x = 0; x < n; ++x) {
    if (side[static_cast<std::size_t>(x)] != NetSide::kLeft) continue;
    std::fill(used.begin(), used.end(), 0);
    if (try_augment(try_augment, x)) ++size;
  }
  return size;
}

/// Random conflict graph over `n` vertices with edge probability `p`.
WeightedGraph random_graph(std::int32_t n, double p, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<GraphEdge> edges;
  for (std::int32_t i = 0; i < n; ++i)
    for (std::int32_t j = i + 1; j < n; ++j)
      if (rng.uniform() < p) edges.push_back({i, j, 1.0});
  return WeightedGraph::from_edges(n, std::move(edges));
}

TEST(DynamicMatcher, StartsAllLeftEmptyMatching) {
  const WeightedGraph g = random_graph(6, 0.5, 1);
  const DynamicBipartiteMatcher matcher(g);
  EXPECT_EQ(matcher.matching_size(), 0);
  EXPECT_EQ(matcher.left_count(), 6);
  for (std::int32_t v = 0; v < 6; ++v) {
    EXPECT_EQ(matcher.side_of(v), NetSide::kLeft);
    EXPECT_EQ(matcher.match_of(v), -1);
  }
}

TEST(DynamicMatcher, SingleEdgeMatches) {
  const WeightedGraph g = WeightedGraph::from_edges(2, {{0, 1, 1.0}});
  DynamicBipartiteMatcher matcher(g);
  matcher.move_to_right(1);
  EXPECT_EQ(matcher.matching_size(), 1);
  EXPECT_EQ(matcher.match_of(0), 1);
  EXPECT_EQ(matcher.match_of(1), 0);
}

TEST(DynamicMatcher, MoveOfMatchedVertexRepairs) {
  // Path 0-1-2: move 1 right (matches 0 or 2), then move its partner.
  const WeightedGraph g =
      WeightedGraph::from_edges(3, {{0, 1, 1.0}, {1, 2, 1.0}});
  DynamicBipartiteMatcher matcher(g);
  matcher.move_to_right(1);
  EXPECT_EQ(matcher.matching_size(), 1);
  const std::int32_t partner = matcher.match_of(1);
  matcher.move_to_right(partner);
  // The other L-neighbor of 1 must now be matched to it.
  EXPECT_EQ(matcher.matching_size(), 1);
  EXPECT_NE(matcher.match_of(1), -1);
  EXPECT_NE(matcher.match_of(1), partner);
}

TEST(DynamicMatcher, RejectsDoubleMoveAndBadIndex) {
  const WeightedGraph g = WeightedGraph::from_edges(2, {{0, 1, 1.0}});
  DynamicBipartiteMatcher matcher(g);
  matcher.move_to_right(0);
  EXPECT_THROW(matcher.move_to_right(0), std::logic_error);
  EXPECT_THROW(matcher.move_to_right(5), std::out_of_range);
}

TEST(DynamicMatcher, AllMovedRightEmptiesBipartiteGraph) {
  const WeightedGraph g = random_graph(8, 0.6, 2);
  DynamicBipartiteMatcher matcher(g);
  for (std::int32_t v = 0; v < 8; ++v) matcher.move_to_right(v);
  EXPECT_EQ(matcher.matching_size(), 0);
  EXPECT_EQ(matcher.left_count(), 0);
}

/// Parametrized sweep: the incremental matching must equal a from-scratch
/// maximum matching after EVERY move, across random graphs of different
/// densities.
class MatcherSweepTest
    : public ::testing::TestWithParam<std::tuple<std::int32_t, double>> {};

TEST_P(MatcherSweepTest, IncrementalEqualsFromScratchEverywhere) {
  const auto [n, density] = GetParam();
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const WeightedGraph g = random_graph(n, density, seed * 77 + 13);
    DynamicBipartiteMatcher matcher(g);
    std::vector<NetSide> side(static_cast<std::size_t>(n), NetSide::kLeft);
    // Move in a seed-dependent order.
    Xoshiro256 rng(seed);
    std::vector<std::int32_t> order(static_cast<std::size_t>(n));
    for (std::int32_t i = 0; i < n; ++i)
      order[static_cast<std::size_t>(i)] = i;
    for (std::size_t i = order.size(); i > 1; --i)
      std::swap(order[i - 1], order[static_cast<std::size_t>(rng.below(i))]);

    for (const std::int32_t v : order) {
      matcher.move_to_right(v);
      side[static_cast<std::size_t>(v)] = NetSide::kRight;
      ASSERT_EQ(matcher.matching_size(), reference_matching_size(g, side))
          << "n=" << n << " density=" << density << " seed=" << seed
          << " after moving " << v;
      // The matching stored must be a valid matching in B.
      for (std::int32_t x = 0; x < n; ++x) {
        const std::int32_t y = matcher.match_of(x);
        if (y == -1) continue;
        ASSERT_EQ(matcher.match_of(y), x);
        ASSERT_NE(matcher.side_of(x), matcher.side_of(y));
        ASSERT_GT(g.edge_weight(x, y), 0.0);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Densities, MatcherSweepTest,
    ::testing::Combine(::testing::Values(6, 10, 16),
                       ::testing::Values(0.15, 0.35, 0.7)));

/// Classification invariants (König / Theorem 4-5 machinery) on random
/// graphs at random split points.
class ClassifyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ClassifyTest, WinnerLoserCoreInvariants) {
  const std::uint64_t seed = GetParam();
  const std::int32_t n = 14;
  const WeightedGraph g = random_graph(n, 0.3, seed);
  DynamicBipartiteMatcher matcher(g);
  for (std::int32_t moved = 0; moved < n; ++moved) {
    matcher.move_to_right(moved);
    const std::vector<NetLabel> label = matcher.classify();

    std::int32_t losers = 0;
    std::int32_t core_left = 0;
    std::int32_t core_right = 0;
    for (std::int32_t v = 0; v < n; ++v) {
      const NetLabel l = label[static_cast<std::size_t>(v)];
      // Side consistency.
      if (matcher.side_of(v) == NetSide::kLeft)
        ASSERT_TRUE(l == NetLabel::kWinnerLeft || l == NetLabel::kLoserLeft ||
                    l == NetLabel::kCoreLeft);
      else
        ASSERT_TRUE(l == NetLabel::kWinnerRight ||
                    l == NetLabel::kLoserRight || l == NetLabel::kCoreRight);
      if (l == NetLabel::kLoserLeft || l == NetLabel::kLoserRight) ++losers;
      if (l == NetLabel::kCoreLeft) ++core_left;
      if (l == NetLabel::kCoreRight) ++core_right;
      // Losers and core vertices are always matched.
      if (l != NetLabel::kWinnerLeft && l != NetLabel::kWinnerRight)
        ASSERT_NE(matcher.match_of(v), -1);
    }
    // The core is perfectly matched within itself.
    ASSERT_EQ(core_left, core_right);
    for (std::int32_t v = 0; v < n; ++v) {
      if (label[static_cast<std::size_t>(v)] == NetLabel::kCoreLeft)
        ASSERT_EQ(label[static_cast<std::size_t>(matcher.match_of(v))],
                  NetLabel::kCoreRight);
    }
    // Theorem 5 accounting: losers + core pairs = matching size.
    ASSERT_EQ(losers + core_left, matcher.matching_size());

    // Winners form an independent set in B: no conflict edge between
    // a left winner and a right winner.
    for (std::int32_t x = 0; x < n; ++x) {
      if (label[static_cast<std::size_t>(x)] != NetLabel::kWinnerLeft)
        continue;
      for (const std::int32_t y : g.neighbors(x))
        ASSERT_NE(label[static_cast<std::size_t>(y)], NetLabel::kWinnerRight)
            << "B-edge between winners " << x << "," << y;
    }
    // Vertex-cover property (Theorem 4): every B-edge touches a loser or a
    // core vertex on each wholesale option.
    for (std::int32_t x = 0; x < n; ++x) {
      if (matcher.side_of(x) != NetSide::kLeft) continue;
      for (const std::int32_t y : g.neighbors(x)) {
        if (matcher.side_of(y) != NetSide::kRight) continue;
        const NetLabel lx = label[static_cast<std::size_t>(x)];
        const NetLabel ly = label[static_cast<std::size_t>(y)];
        const bool covered_by_losers = lx == NetLabel::kLoserLeft ||
                                       ly == NetLabel::kLoserRight;
        const bool covered_if_core_left_loses = covered_by_losers ||
                                                lx == NetLabel::kCoreLeft;
        const bool covered_if_core_right_loses = covered_by_losers ||
                                                 ly == NetLabel::kCoreRight;
        ASSERT_TRUE(covered_if_core_left_loses);
        ASSERT_TRUE(covered_if_core_right_loses);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClassifyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

/// Theorem 6 accounting: a full left-to-right sweep performs at most two
/// augmenting-path searches per move, so the total work over all |V| moves
/// is O(|V| * (|V| + |E|)) — NOT a from-scratch matching per split.  The
/// matcher exposes its own tallies precisely so this bound is testable.
TEST(DynamicMatcher, FullSweepWorkIsLinearInMovesTheorem6) {
  for (const auto& [n, density] :
       {std::pair<std::int32_t, double>{24, 0.15},
        std::pair<std::int32_t, double>{40, 0.3},
        std::pair<std::int32_t, double>{64, 0.6}}) {
    const WeightedGraph g = random_graph(n, density, 42);
    std::int64_t directed_edges = 0;
    for (std::int32_t v = 0; v < n; ++v)
      directed_edges += static_cast<std::int64_t>(g.neighbors(v).size());

    DynamicBipartiteMatcher matcher(g);
    EXPECT_EQ(matcher.augmenting_searches(), 0);
    for (std::int32_t v = 0; v < n; ++v) matcher.move_to_right(v);

    // At most two searches per move (one for the un-matching of the moved
    // vertex's partner, one for the moved vertex on its new side).
    EXPECT_LE(matcher.augmenting_searches(), 2 * std::int64_t{n})
        << "n=" << n << " density=" << density;
    // Each search finds at most one augmenting path.
    EXPECT_LE(matcher.augmenting_paths_found(), matcher.augmenting_searches());
    // One BFS scans each right vertex's adjacency at most once, plus the
    // root's: per-search work is O(|V| + |E|).
    EXPECT_LE(matcher.edges_scanned(),
              matcher.augmenting_searches() * (directed_edges + n))
        << "n=" << n << " density=" << density;
  }
}

/// The obs counters must agree with the matcher's own tallies.
TEST(DynamicMatcher, ObsCountersMatchMatcherTallies) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::instance();
  registry.reset();
  registry.set_enabled(true);
  const std::int32_t n = 32;
  const WeightedGraph g = random_graph(n, 0.4, 7);
  DynamicBipartiteMatcher matcher(g);
  for (std::int32_t v = 0; v < n; ++v) matcher.move_to_right(v);
  const obs::MetricsSnapshot snap = registry.snapshot();
  registry.set_enabled(false);
  registry.reset();
  EXPECT_EQ(snap.counter("igmatch.matching_repairs"), n);
  EXPECT_EQ(snap.counter("igmatch.augmenting_paths"),
            matcher.augmenting_paths_found());
  EXPECT_EQ(snap.counter("igmatch.bfs_edges_scanned"),
            matcher.edges_scanned());
}

}  // namespace
}  // namespace netpart
