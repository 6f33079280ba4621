#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "fm/fm_partition.hpp"
#include "graph/intersection_graph.hpp"
#include "hypergraph/hypergraph.hpp"
#include "hypergraph/partition.hpp"
#include "igmatch/igmatch.hpp"
#include "igvote/igvote.hpp"

/// \file partitioner.hpp
/// One-call facade over every partitioning algorithm in the library.  This
/// is the API the examples and benches consume; each algorithm is also
/// available directly through its own module for finer control.

namespace netpart {

/// Algorithm selector.
enum class Algorithm {
  kIgMatch,           ///< the paper's contribution (Section 3)
  kIgMatchRecursive,  ///< IG-Match + recursive completion (future work)
  kIgMatchRefined,    ///< IG-Match + ratio-cut FM polish (Section 5)
  kIgVote,            ///< Hagen-Kahng EIG1-IG voting heuristic (Appendix B)
  kEig1,              ///< Hagen-Kahng spectral with the clique model [13]
  kRatioCutFm,        ///< multi-start ratio-cut FM (RCut1.0 stand-in [32])
  kMinCutFm,          ///< balance-constrained min-cut FM bisection [7]
  kKl,                ///< Kernighan-Lin pair swaps on the clique graph [19]
  kMultilevel,        ///< clustering-condensed hybrid (Section 5)
  kAnnealing,         ///< simulated-annealing ratio cut [20] [28]
};

/// Parse "igmatch" / "igmatch-recursive" / "igmatch-refined" / "igvote" /
/// "eig1" / "rcut" / "fm" / "kl" / "multilevel" / "sa"; throws
/// std::invalid_argument otherwise.
[[nodiscard]] Algorithm parse_algorithm(std::string_view name);

/// Printable name.
[[nodiscard]] const char* to_string(Algorithm a);

/// Configuration shared by all algorithms (fields irrelevant to the chosen
/// algorithm are ignored).
struct PartitionerConfig {
  Algorithm algorithm = Algorithm::kIgMatch;
  /// Intersection-graph weighting for IG-Match (every kIgMatch* value) and
  /// the multilevel engine's coarsest solve.  IG-Vote always orders on the
  /// paper's weighting.  Every spectral algorithm runs Lanczos with the
  /// default LanczosOptions.
  IgWeighting weighting = IgWeighting::kPaper;
  FmOptions fm;
  /// kMultilevel: stop coarsening at this many modules (instances within
  /// the engine's direct-solve pair budget stop earlier).
  std::int32_t multilevel_coarsen_to = 8;
  /// kMultilevel (and the auto V-cycle path below): improvement-guarded
  /// extra V-cycles after the first uncoarsening.
  std::int32_t multilevel_vcycles = 1;
  /// Production cold-path default: kIgMatch on instances with at least
  /// this many modules routes through the multilevel V-cycle engine (flat
  /// Lanczos + the full m-1 sweep stop scaling long before a million
  /// modules).  The flat algorithm is preserved below the threshold, when
  /// 0 disables the switch, and through every other Algorithm value.
  std::int32_t vcycle_threshold = 100000;
};

/// Uniform result record.
struct PartitionResult {
  std::string algorithm_name;
  Partition partition;
  std::int32_t nets_cut = 0;
  double ratio = 0.0;
  std::int32_t left_size = 0;
  std::int32_t right_size = 0;
  double runtime_ms = 0.0;
  // Spectral diagnostics: engaged only for algorithms that computed an
  // eigenvector (igmatch*, igvote, eig1); nullopt for the combinatorial
  // algorithms, which used to report stale zeros here.
  std::optional<double> lambda2;
  std::optional<bool> eigen_converged;
  std::int32_t matching_bound = -1;  ///< IG-Match: |MM| at the winning split
  /// The run went through the multilevel V-cycle engine (always for
  /// kMultilevel; for kIgMatch when the instance crossed vcycle_threshold).
  bool via_multilevel = false;
};

/// Run the configured algorithm on `h` and time it.  When the metrics
/// registry is enabled, the run's cut, ratio, runtime and lambda2 are also
/// set as `partition.*` gauges.
[[nodiscard]] PartitionResult run_partitioner(
    const Hypergraph& h, const PartitionerConfig& config = {});

}  // namespace netpart
