#pragma once

#include <cstdint>

#include "hypergraph/hypergraph.hpp"
#include "hypergraph/partition.hpp"

/// \file fm_partition.hpp
/// Multi-start iterative-improvement drivers on top of the FM engine.
///
/// `ratio_cut_fm` is this library's stand-in for the RCut1.0 program of Wei
/// and Cheng [32] (unavailable): random starting partitions, FM-style
/// shifting/group-swap passes judged by the ratio-cut metric, best of
/// `num_starts` runs — exactly the recipe [32] describes and the paper
/// compares against in Table 2.
///
/// `fm_min_cut_bisection` is the classic balance-constrained min-cut FM
/// (the r-bipartition of Fiduccia-Mattheyses), used by the Table 1
/// experiment and as a further baseline.

namespace netpart {

/// FM passes per start; passes stop earlier when one fails to improve.
inline constexpr std::int32_t kFmMaxPasses = 40;
/// Bisection only: allowed deviation of |U| from n/2 as a fraction of n
/// (the r-bipartition slack).
inline constexpr double kFmBalanceTolerance = 0.10;

/// Options shared by the FM drivers.
struct FmOptions {
  std::int32_t num_starts = 10;   ///< random restarts ([32] uses 10)
  std::uint64_t seed = 0xC0FFEEULL;
  /// Worker threads for the independent random starts, executed on the
  /// shared pool (src/parallel).  0 = auto: use every pool lane (the pool
  /// defaults to hardware concurrency, overridable via NETPART_THREADS or
  /// the CLI --threads flag).  Values > 0 cap the lanes used; negative
  /// values are treated as 1 (serial).  Never more threads than
  /// num_starts.  The result is identical for every thread count: starts
  /// are seeded individually, each start writes its own outcome slot, and
  /// ties are broken by start index.
  std::int32_t num_threads = 0;
};

/// Result of a multi-start FM run.
struct FmRunResult {
  Partition partition;
  std::int32_t nets_cut = 0;       ///< cardinality cut
  std::int64_t weighted_cut = 0;   ///< multiplicity-weighted cut
  double ratio = 0.0;              ///< weighted ratio cut
  std::int32_t starts_run = 0;
  std::int32_t total_passes = 0;
};

/// Best-of-num_starts ratio-cut FM (RCut1.0 stand-in).
[[nodiscard]] FmRunResult ratio_cut_fm(const Hypergraph& h,
                                       const FmOptions& options = {});

/// Best-of-num_starts balance-constrained min-cut bisection.
[[nodiscard]] FmRunResult fm_min_cut_bisection(const Hypergraph& h,
                                               const FmOptions& options = {});

/// A uniformly random balanced partition (|left| = ceil(n/2)), seeded.
[[nodiscard]] Partition random_balanced_partition(std::int32_t num_modules,
                                                  std::uint64_t seed);

}  // namespace netpart
