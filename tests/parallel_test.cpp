/// Unit tests for the shared deterministic parallel runtime: pool
/// scheduling (every index executed exactly once, lanes in range, nested
/// regions inline) and the fixed-chunk deterministic reductions that make
/// dot products bit-identical for any lane count.

#include "parallel/parallel_for.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "linalg/csr_matrix.hpp"
#include "linalg/vector_ops.hpp"

namespace netpart::parallel {
namespace {

/// Restores the pool to a single lane after each test so test order cannot
/// leak configuration.
class ParallelTest : public ::testing::Test {
 protected:
  void TearDown() override { ThreadPool::instance().configure(1); }
};

TEST_F(ParallelTest, DefaultLanesIsPositive) {
  EXPECT_GE(ThreadPool::default_lanes(), 1);
}

TEST_F(ParallelTest, ConfigureRoundTrips) {
  ThreadPool& pool = ThreadPool::instance();
  pool.configure(3);
  EXPECT_EQ(pool.lanes(), 3);
  pool.configure(1);
  EXPECT_EQ(pool.lanes(), 1);
  pool.configure(0);  // auto
  EXPECT_EQ(pool.lanes(), ThreadPool::default_lanes());
}

TEST(ThreadPool, ConfigureRefusesMoreThanMaxLanes) {
  // Refused before any worker is stopped or started.
  ThreadPool& pool = ThreadPool::instance();
  const std::int32_t before = pool.lanes();
  EXPECT_THROW(pool.configure(kMaxLanes + 1), std::invalid_argument);
  EXPECT_EQ(pool.lanes(), before);
}

TEST_F(ParallelTest, RunChunksCoversEveryIndexExactlyOnce) {
  for (const std::int32_t lanes : {1, 2, 8}) {
    ThreadPool& pool = ThreadPool::instance();
    pool.configure(lanes);
    constexpr std::int64_t kN = 10007;  // prime: uneven final chunk
    std::vector<std::atomic<std::int32_t>> hits(kN);
    pool.run_chunks(0, kN, 64, 0,
                    [&](std::int64_t lo, std::int64_t hi, std::size_t lane) {
                      EXPECT_LT(lane, static_cast<std::size_t>(pool.lanes()));
                      for (std::int64_t i = lo; i < hi; ++i)
                        hits[static_cast<std::size_t>(i)].fetch_add(1);
                    });
    for (std::int64_t i = 0; i < kN; ++i)
      ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1)
          << "index " << i << " at lanes=" << lanes;
  }
}

TEST_F(ParallelTest, MaxLanesCapsParticipation) {
  ThreadPool& pool = ThreadPool::instance();
  pool.configure(8);
  std::atomic<std::int64_t> covered{0};
  pool.run_chunks(0, 1000, 10, 2,
                  [&](std::int64_t lo, std::int64_t hi, std::size_t lane) {
                    EXPECT_LT(lane, std::size_t{2});
                    covered.fetch_add(hi - lo);
                  });
  EXPECT_EQ(covered.load(), 1000);
}

TEST_F(ParallelTest, NestedRegionsRunInline) {
  ThreadPool& pool = ThreadPool::instance();
  pool.configure(4);
  std::vector<std::atomic<std::int32_t>> hits(256);
  pool.run_chunks(0, 4, 1, 0,
                  [&](std::int64_t task, std::int64_t, std::size_t lane) {
                    // Inside a region: a nested parallel_for must complete
                    // inline on this lane without deadlocking the pool.
                    parallel_for(task * 64, (task + 1) * 64, 8,
                                 [&](std::int64_t lo, std::int64_t hi) {
                                   EXPECT_EQ(ThreadPool::current_lane(),
                                             static_cast<std::int32_t>(lane));
                                   for (std::int64_t i = lo; i < hi; ++i)
                                     hits[static_cast<std::size_t>(i)]
                                         .fetch_add(1);
                                 });
                  });
  for (std::size_t i = 0; i < hits.size(); ++i)
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
}

/// The serial reference for deterministic_sum: per-chunk serial partials
/// combined in ascending chunk order.
double chunked_reference_sum(const std::vector<double>& v) {
  const auto n = static_cast<std::int64_t>(v.size());
  double acc = 0.0;
  bool first = true;
  for (std::int64_t lo = 0; lo < n; lo += kReductionChunk) {
    const std::int64_t hi = std::min(lo + kReductionChunk, n);
    double partial = 0.0;
    for (std::int64_t i = lo; i < hi; ++i)
      partial += v[static_cast<std::size_t>(i)];
    acc = first ? partial : acc + partial;
    first = false;
  }
  return acc;
}

std::vector<double> awkward_values(std::size_t n) {
  // Values spanning many magnitudes so summation order matters: any
  // deviation from the fixed chunk order shows up in the low bits.
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = std::ldexp(1.0 + static_cast<double>(i % 997) * 1e-5,
                      static_cast<int>(i % 41) - 20);
  return v;
}

TEST_F(ParallelTest, DeterministicSumMatchesChunkedReferenceAtEveryLaneCount) {
  const std::vector<double> v = awkward_values(3 * 4096 + 1234);
  const double reference = chunked_reference_sum(v);
  for (const std::int32_t lanes : {1, 2, 8}) {
    ThreadPool::instance().configure(lanes);
    const double got = deterministic_sum(
        static_cast<std::int64_t>(v.size()),
        [&](std::int64_t lo, std::int64_t hi) {
          double acc = 0.0;
          for (std::int64_t i = lo; i < hi; ++i)
            acc += v[static_cast<std::size_t>(i)];
          return acc;
        });
    EXPECT_EQ(got, reference) << "lanes=" << lanes;  // bitwise
  }
}

TEST_F(ParallelTest, SingleChunkSumEqualsPlainSerialLoop) {
  const std::vector<double> v = awkward_values(kReductionChunk - 7);
  double serial = 0.0;
  for (const double x : v) serial += x;
  ThreadPool::instance().configure(8);
  const double got = deterministic_sum(
      static_cast<std::int64_t>(v.size()),
      [&](std::int64_t lo, std::int64_t hi) {
        double acc = 0.0;
        for (std::int64_t i = lo; i < hi; ++i)
          acc += v[static_cast<std::size_t>(i)];
        return acc;
      });
  EXPECT_EQ(got, serial);
}

TEST_F(ParallelTest, DotIsBitIdenticalAcrossLaneCounts) {
  const std::vector<double> x = awkward_values(3 * 4096 + 19);
  std::vector<double> y = awkward_values(x.size());
  for (std::size_t i = 0; i < y.size(); ++i) y[i] = 1.0 / (y[i] + 2.0);
  ThreadPool::instance().configure(1);
  const double reference = linalg::dot(x, y);
  for (const std::int32_t lanes : {2, 8}) {
    ThreadPool::instance().configure(lanes);
    EXPECT_EQ(linalg::dot(x, y), reference) << "lanes=" << lanes;
  }
}

TEST_F(ParallelTest, SpmvIsBitIdenticalAcrossLaneCounts) {
  // A banded matrix large enough to span many row chunks.
  constexpr std::int32_t kN = 6000;
  std::vector<linalg::Triplet> triplets;
  for (std::int32_t r = 0; r < kN; ++r)
    for (std::int32_t offset = -3; offset <= 3; ++offset) {
      const std::int32_t c = r + offset;
      if (c < 0 || c >= kN) continue;
      triplets.push_back(
          {r, c, 1.0 / (1.0 + std::abs(offset)) + 1e-9 * r});
    }
  const linalg::CsrMatrix a =
      linalg::CsrMatrix::from_triplets(kN, std::move(triplets));
  const std::vector<double> x = awkward_values(kN);
  std::vector<double> reference(kN);
  ThreadPool::instance().configure(1);
  a.multiply(x, reference);
  for (const std::int32_t lanes : {2, 8}) {
    ThreadPool::instance().configure(lanes);
    std::vector<double> y(kN);
    a.multiply(x, y);
    EXPECT_EQ(y, reference) << "lanes=" << lanes;
  }
}

}  // namespace
}  // namespace netpart::parallel
