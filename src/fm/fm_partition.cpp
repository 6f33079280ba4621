#include "fm/fm_partition.hpp"

#include <algorithm>
#include <limits>
#include <memory>

#include "circuits/rng.hpp"
#include "fm/fm_engine.hpp"
#include "hypergraph/cut_metrics.hpp"
#include "obs/metrics.hpp"
#include "parallel/parallel_for.hpp"

namespace netpart {

Partition random_balanced_partition(std::int32_t num_modules,
                                    std::uint64_t seed) {
  std::vector<ModuleId> ids(static_cast<std::size_t>(num_modules));
  for (std::int32_t i = 0; i < num_modules; ++i)
    ids[static_cast<std::size_t>(i)] = i;
  Xoshiro256 rng(seed);
  // Fisher-Yates shuffle.
  for (std::size_t i = ids.size(); i > 1; --i) {
    const std::size_t j = static_cast<std::size_t>(rng.below(i));
    std::swap(ids[i - 1], ids[j]);
  }
  Partition p(num_modules, Side::kRight);
  const std::int32_t half = (num_modules + 1) / 2;
  for (std::int32_t i = 0; i < half; ++i)
    p.assign(ids[static_cast<std::size_t>(i)], Side::kLeft);
  return p;
}

namespace {

enum class Objective { kCut, kRatio };

/// Outcome of one random start, tagged for deterministic tie-breaking.
struct StartOutcome {
  std::int32_t start = 0;
  Partition partition;
  std::int32_t nets_cut = 0;
  std::int64_t weighted_cut = 0;
  double ratio = 0.0;
  std::int32_t passes = 0;
};

FmRunResult multi_start(const Hypergraph& h, const FmOptions& options,
                        Objective objective) {
  NETPART_SPAN("fm-multistart");
  NETPART_COUNTER_ADD("fm.starts", options.num_starts);
  const std::int32_t n = h.num_modules();
  FmRunResult best;
  best.partition = Partition(n, Side::kLeft);
  best.nets_cut = std::numeric_limits<std::int32_t>::max();
  best.weighted_cut = std::numeric_limits<std::int64_t>::max();
  best.ratio = std::numeric_limits<double>::infinity();
  if (n < 2) {
    best.nets_cut = 0;
    best.weighted_cut = 0;
    best.ratio = 0.0;
    return best;
  }

  std::int32_t min_left = 0;
  std::int32_t max_left = n;
  if (objective == Objective::kCut) {
    const auto deviation = std::max<std::int32_t>(
        1, static_cast<std::int32_t>(options.balance_tolerance *
                                     static_cast<double>(n) / 2.0));
    min_left = std::max(1, n / 2 - deviation);
    max_left = std::min(n - 1, (n + 1) / 2 + deviation);
  }

  // One independent run; engines are per-thread, the hypergraph is shared
  // read-only.
  const auto run_start = [&](FmEngine& engine, std::int32_t start) {
    engine.reset(random_balanced_partition(
        n, options.seed +
               static_cast<std::uint64_t>(start) * std::uint64_t{0x9E3779B9}));
    StartOutcome outcome;
    outcome.start = start;
    for (std::int32_t pass = 0; pass < kFmMaxPasses; ++pass) {
      ++outcome.passes;
      const FmPassResult pr = objective == Objective::kRatio
                                  ? engine.pass_ratio_cut()
                                  : engine.pass_min_cut(min_left, max_left);
      if (!pr.improved) break;
    }
    outcome.partition = engine.partition();
    outcome.nets_cut = engine.cut();
    outcome.weighted_cut = engine.weighted_cut();
    outcome.ratio = engine.ratio();
    return outcome;
  };
  // Strict weak order: objective first, then start index — so the winner
  // is identical for any thread count.
  const auto better_than = [&](const StartOutcome& a, const StartOutcome& b) {
    if (objective == Objective::kRatio) {
      if (a.ratio != b.ratio) return a.ratio < b.ratio;
    } else if (a.weighted_cut != b.weighted_cut) {
      return a.weighted_cut < b.weighted_cut;
    }
    return a.start < b.start;
  };

  // 0 = auto (all pool lanes); explicit values are clamped to [1, starts].
  const std::int32_t requested =
      options.num_threads == 0 ? parallel::ThreadPool::instance().lanes()
                               : std::max(options.num_threads, 1);
  const std::int32_t threads = std::min(requested, options.num_starts);
  std::vector<StartOutcome> outcomes(
      static_cast<std::size_t>(options.num_starts));
  if (threads <= 1) {
    FmEngine engine(h);
    for (std::int32_t start = 0; start < options.num_starts; ++start)
      outcomes[static_cast<std::size_t>(start)] = run_start(engine, start);
  } else {
    // One start per pool task; each lane lazily builds one engine and
    // reuses it across the starts it claims.  Outcomes are indexed by
    // start, so the schedule cannot affect the result.
    std::vector<std::unique_ptr<FmEngine>> engines(
        static_cast<std::size_t>(parallel::ThreadPool::instance().lanes()));
    parallel::parallel_tasks(
        options.num_starts, threads, [&](std::int64_t start, std::size_t lane) {
          std::unique_ptr<FmEngine>& engine = engines[lane];
          if (engine == nullptr) engine = std::make_unique<FmEngine>(h);
          outcomes[static_cast<std::size_t>(start)] =
              run_start(*engine, static_cast<std::int32_t>(start));
        });
  }

  const StartOutcome* winner = nullptr;
  for (const StartOutcome& outcome : outcomes) {
    best.total_passes += outcome.passes;
    ++best.starts_run;
    if (winner == nullptr || better_than(outcome, *winner))
      winner = &outcome;
  }
  if (winner != nullptr) {
    best.partition = winner->partition;
    best.nets_cut = winner->nets_cut;
    best.weighted_cut = winner->weighted_cut;
    best.ratio = winner->ratio;
  }
  return best;
}

}  // namespace

FmRunResult ratio_cut_fm(const Hypergraph& h, const FmOptions& options) {
  return multi_start(h, options, Objective::kRatio);
}

FmRunResult fm_min_cut_bisection(const Hypergraph& h,
                                 const FmOptions& options) {
  return multi_start(h, options, Objective::kCut);
}

}  // namespace netpart
