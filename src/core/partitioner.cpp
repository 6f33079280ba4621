#include "core/partitioner.hpp"

#include <chrono>
#include <stdexcept>

#include "cluster/multilevel.hpp"
#include "fm/fm_engine.hpp"
#include "fm/annealing.hpp"
#include "fm/kl.hpp"
#include "hypergraph/cut_metrics.hpp"
#include "obs/metrics.hpp"
#include "spectral/eig1.hpp"

namespace netpart {

Algorithm parse_algorithm(std::string_view name) {
  if (name == "igmatch") return Algorithm::kIgMatch;
  if (name == "igmatch-recursive") return Algorithm::kIgMatchRecursive;
  if (name == "igmatch-refined") return Algorithm::kIgMatchRefined;
  if (name == "igvote") return Algorithm::kIgVote;
  if (name == "eig1") return Algorithm::kEig1;
  if (name == "rcut") return Algorithm::kRatioCutFm;
  if (name == "fm") return Algorithm::kMinCutFm;
  if (name == "kl") return Algorithm::kKl;
  if (name == "multilevel") return Algorithm::kMultilevel;
  if (name == "sa") return Algorithm::kAnnealing;
  throw std::invalid_argument("unknown algorithm '" + std::string(name) + "'");
}

const char* to_string(Algorithm a) {
  switch (a) {
    case Algorithm::kIgMatch: return "IG-Match";
    case Algorithm::kIgMatchRecursive: return "IG-Match(rec)";
    case Algorithm::kIgMatchRefined: return "IG-Match+FM";
    case Algorithm::kIgVote: return "IG-Vote";
    case Algorithm::kEig1: return "EIG1";
    case Algorithm::kRatioCutFm: return "RCut-FM";
    case Algorithm::kMinCutFm: return "FM-bisect";
    case Algorithm::kKl: return "KL";
    case Algorithm::kMultilevel: return "Multilevel";
    case Algorithm::kAnnealing: return "SimAnneal";
  }
  return "?";
}

PartitionResult run_partitioner(const Hypergraph& h,
                                const PartitionerConfig& config) {
  PartitionResult out;
  out.algorithm_name = to_string(config.algorithm);

  NETPART_SPAN("run-partitioner");
  // Production cold path: kMultilevel, and kIgMatch at or above the
  // threshold, where the flat spectral pipeline (full-graph Lanczos + the
  // full m-1 sweep) is replaced by the multilevel V-cycle, which runs
  // IG-Match only on the coarsest instance.
  const bool via_multilevel =
      config.algorithm == Algorithm::kMultilevel ||
      (config.algorithm == Algorithm::kIgMatch &&
       config.vcycle_threshold > 0 &&
       h.num_modules() >= config.vcycle_threshold);
  const auto start = std::chrono::steady_clock::now();
  switch (via_multilevel ? Algorithm::kMultilevel : config.algorithm) {
    case Algorithm::kIgMatch:
    case Algorithm::kIgMatchRecursive:
    case Algorithm::kIgMatchRefined: {
      IgMatchOptions options;
      options.weighting = config.weighting;
      options.recursive = config.algorithm == Algorithm::kIgMatchRecursive;
      const IgMatchResult r = igmatch_partition(h, options);
      out.partition = r.partition;
      out.lambda2 = r.lambda2;
      out.eigen_converged = r.eigen_converged;
      out.matching_bound = r.matching_bound_at_best;
      if (config.algorithm == Algorithm::kIgMatchRefined &&
          out.partition.is_proper()) {
        // Section 5: "the ratio cuts so obtained may optionally be
        // improved by using standard iterative techniques".
        FmEngine engine(h);
        engine.reset(out.partition);
        for (std::int32_t pass = 0; pass < kFmMaxPasses; ++pass)
          if (!engine.pass_ratio_cut().improved) break;
        out.partition = engine.partition();
      }
      break;
    }
    case Algorithm::kIgVote: {
      const IgVoteResult r = igvote_partition(h);
      out.partition = r.partition;
      out.lambda2 = r.lambda2;
      out.eigen_converged = r.eigen_converged;
      break;
    }
    case Algorithm::kEig1: {
      const Eig1Result r = eig1_partition(h);
      out.partition = r.sweep.partition;
      out.lambda2 = r.lambda2;
      out.eigen_converged = r.eigen_converged;
      break;
    }
    case Algorithm::kRatioCutFm: {
      const FmRunResult r = ratio_cut_fm(h, config.fm);
      out.partition = r.partition;
      break;
    }
    case Algorithm::kMinCutFm: {
      const FmRunResult r = fm_min_cut_bisection(h, config.fm);
      out.partition = r.partition;
      break;
    }
    case Algorithm::kKl: {
      KlOptions options;
      options.num_starts = config.fm.num_starts;
      options.seed = config.fm.seed;
      const KlResult r = kl_bisection(h, options);
      out.partition = r.partition;
      break;
    }
    case Algorithm::kMultilevel: {
      MultilevelOptions options;
      options.coarsen_to = config.multilevel_coarsen_to;
      options.vcycles = config.multilevel_vcycles;
      options.igmatch.weighting = config.weighting;
      const MultilevelResult r = multilevel_partition(h, options);
      out.partition = r.partition;
      out.lambda2 = r.lambda2;
      out.eigen_converged = r.eigen_converged;
      out.via_multilevel = true;
      break;
    }
    case Algorithm::kAnnealing: {
      AnnealingOptions options;
      options.seed = config.fm.seed;
      const AnnealingResult r = anneal_ratio_cut(h, options);
      out.partition = r.partition;
      break;
    }
  }
  const auto stop = std::chrono::steady_clock::now();

  out.runtime_ms =
      std::chrono::duration<double, std::milli>(stop - start).count();
  out.nets_cut = net_cut(h, out.partition);
  out.left_size = out.partition.size(Side::kLeft);
  out.right_size = out.partition.size(Side::kRight);
  out.ratio = ratio_cut_value(out.nets_cut, out.left_size, out.right_size);

  obs::MetricsRegistry& registry = obs::MetricsRegistry::instance();
  if (registry.enabled()) {
    registry.set_gauge("partition.nets_cut", out.nets_cut);
    registry.set_gauge("partition.ratio", out.ratio);
    registry.set_gauge("partition.runtime_ms", out.runtime_ms);
    if (out.lambda2) registry.set_gauge("partition.lambda2", *out.lambda2);
  }
  return out;
}

}  // namespace netpart
