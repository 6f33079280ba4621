/// eco_vcycle: a closed loop over one 150k-module netlist, above the
/// session's V-cycle threshold.  Each pass constructs a
/// `RepartitionSession`, solves it cold, applies K seeded ECO batches
/// (about 20 net edits each) with a warm `repartition()` after every batch,
/// and finally re-solves the edited netlist cold in a fresh session — the
/// reference the warm answer's drift is measured against.  Every pass
/// replays the same seeded batches.

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "circuits/generator.hpp"
#include "cluster/multilevel.hpp"
#include "common.hpp"
#include "hypergraph/cut_metrics.hpp"
#include "igmatch/igmatch.hpp"
#include "repart/edit_script.hpp"
#include "repart/session.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace netpart;

constexpr std::int32_t kModules = 150000;
constexpr int kBatches = 6;
constexpr int kEditsPerBatch = 20;

/// kBatches seeded batches of kEditsPerBatch edits, each closed by commit.
std::string make_eco_script(const Hypergraph& h, Rng& rng) {
  EcoEdits edits(h);
  std::string script;
  for (int b = 0; b < kBatches; ++b) {
    for (int e = 0; e < kEditsPerBatch; ++e)
      script += edits.next("eco" + std::to_string(b) + "_" + std::to_string(e),
                           64, rng);
    script += "commit\n";
  }
  return script;
}

/// The multilevel options the session's V-cycle path runs with.
MultilevelOptions session_multilevel_options(
    const repart::RepartitionOptions& options) {
  MultilevelOptions ml = options.vcycle;
  ml.igmatch.weighting = options.weighting;
  ml.igmatch.lanczos = options.lanczos;
  return ml;
}

}  // namespace

int run_eco_vcycle(const Args& args, JsonWriter& w) {
  Checks checks;
  GeneratorConfig config;
  // The base netlist is the same for every seed (so seeds compare like with
  // like); the seed draws the ECO edits.
  config.name = "perfbench-eco";
  config.num_modules = kModules;
  config.num_nets = kModules + kModules / 10;

  // Set-up: netlist generation, ECO scripts and session construction,
  // repeated for a steady median.
  Hypergraph h;
  repart::EditScript script;
  std::vector<double> setup_s;
  std::vector<double> ctor_ms;
  for (int rep = 0; rep < args.setup_reps; ++rep) {
    const auto start = Clock::now();
    h = generate_circuit(config).hypergraph;
    Rng rng(args.seed);
    std::istringstream text(make_eco_script(h, rng));
    script = repart::read_edit_script(text);
    const auto ctor_start = Clock::now();
    const repart::RepartitionSession session(h);
    ctor_ms.push_back(ms_since(ctor_start));
    setup_s.push_back(ms_since(start) / 1e3);
  }
  w.field_array("setup_s", setup_s)
      .field_array("session_ctor_ms", ctor_ms)
      .field("modules", h.num_modules())
      .field("nets", h.num_nets())
      .field("batches", static_cast<std::int64_t>(script.batches.size()))
      .field("edits_per_batch", kEditsPerBatch);

  const repart::RepartitionOptions options;
  const MultilevelOptions ml = session_multilevel_options(options);

  // One pass; `spans` non-null for the traced pass, which also times the
  // layer calls the session makes internally by repeating them.
  auto run_pass = [&](SpanLog* spans) {
    w.begin_object();
    repart::RepartitionSession session(h, options);
    repart::EditScriptApplier applier(session.netlist());

    if (spans != nullptr) {
      SpanLog::Scope coarsen(spans, "cluster.coarsen_hierarchy");
      const MultilevelHierarchy hierarchy = coarsen_hierarchy(h, ml);
      const double coarsen_ms = coarsen.close();
      const Hypergraph& coarsest = hierarchy.coarsest(h);
      SpanLog::Scope solve(spans, "igmatch.igmatch_partition.coarsest");
      (void)igmatch_partition(coarsest, ml.igmatch);
      const double solve_ms = solve.close();
      MultilevelOptions cold_ml = ml;
      if (cold_ml.vcycles < 1) cold_ml.vcycles = 1;
      SpanLog::Scope multilevel(spans, "cluster.multilevel_partition");
      (void)multilevel_partition(h, cold_ml);
      const double multilevel_ms = multilevel.close();
      w.field("coarsen_ms", coarsen_ms)
          .field("levels", static_cast<std::int64_t>(hierarchy.levels.size()))
          .field("coarsest_modules", coarsest.num_modules())
          .field("coarsest_solve_ms", solve_ms)
          .field("multilevel_ms", multilevel_ms);
    }

    SpanLog::Scope cold_span(spans, "repart.repartition.cold");
    const repart::RepartitionResult cold = session.repartition();
    const double cold_ms = cold_span.close();
    checks.require(cold.partition.is_proper() && cold.used_vcycle &&
                       !cold.warm_started,
                   "cold solve: improper partition or wrong path");

    std::vector<double> edit_ms;
    std::vector<double> warm_ms;
    std::vector<double> warm_ratio;
    std::vector<double> refine_ms;
    std::vector<double> vcycles_improving;
    std::vector<double> used_previous;
    Partition previous = cold.partition;
    double final_ratio = cold.ratio;
    for (const repart::EditBatch& batch : script.batches) {
      SpanLog::Scope edit_span(spans, "repart.EditScriptApplier.apply");
      applier.apply(batch);
      edit_ms.push_back(edit_span.close());
      SpanLog::Scope warm_span(spans, "repart.repartition.warm");
      const repart::RepartitionResult warm = session.repartition();
      warm_ms.push_back(warm_span.close());
      const Hypergraph& edited = session.hypergraph();
      // ECO batches add and remove nets only, so module ids are stable and
      // the previous partition carries forward unchanged.
      const double carried = ratio_cut(edited, previous);
      checks.require(warm.partition.is_proper() && warm.warm_started &&
                         warm.used_vcycle,
                     "warm step: improper partition or wrong path");
      checks.require(warm.ratio <= carried,
                     "warm step worse than the carried-forward partition");
      if (spans != nullptr) {
        SpanLog::Scope refine(spans, "cluster.vcycle_refine");
        (void)vcycle_refine(edited, previous, ml);
        refine_ms.push_back(refine.close());
      }
      warm_ratio.push_back(warm.ratio);
      vcycles_improving.push_back(warm.vcycles_run > 0 ? 1.0 : 0.0);
      used_previous.push_back(warm.used_previous_partition ? 1.0 : 0.0);
      previous = warm.partition;
      final_ratio = warm.ratio;
    }

    SpanLog::Scope resolve_ctor(spans, "repart.RepartitionSession.ctor");
    repart::RepartitionSession fresh(session.hypergraph(), options);
    const double resolve_ctor_ms = resolve_ctor.close();
    SpanLog::Scope resolve_span(spans, "repart.repartition.cold");
    const repart::RepartitionResult resolve = fresh.repartition();
    const double resolve_ms = resolve_span.close();
    checks.require(resolve.partition.is_proper() && !resolve.warm_started,
                   "cold re-solve: improper partition or wrong path");

    w.field("cold_ms", cold_ms)
        .field("cold_ratio", cold.ratio)
        .field_array("edit_apply_ms", edit_ms)
        .field_array("warm_ms", warm_ms)
        .field_array("warm_ratio", warm_ratio)
        .field_array("vcycles_improving", vcycles_improving)
        .field_array("used_previous_partition", used_previous)
        .field("resolve_ctor_ms", resolve_ctor_ms)
        .field("resolve_ms", resolve_ms)
        .field("resolve_ratio", resolve.ratio)
        .field("final_warm_ratio", final_ratio);
    if (spans != nullptr) w.field_array("vcycle_refine_ms", refine_ms);
    w.end_object();
  };

  w.key("passes").begin_array();
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(args.seconds));
  for (int pass = 0; pass < 2 || Clock::now() < deadline; ++pass)
    run_pass(nullptr);
  w.end_array();
  w.field("peak_rss_mb", peak_rss_mb());

  if (args.trace) {
    SpanLog spans;
    w.key("traced_pass");
    run_pass(&spans);
    if (!args.workdir.empty())
      (void)write_file(args.workdir + "/spans_eco_vcycle.json", spans.json());
    w.field("spans", static_cast<std::int64_t>(spans.size()));
  }

  checks.write(w);
  return 0;
}

}  // namespace perfbench
