/// cold_suite: a closed loop with one caller running `run_partitioner` with
/// the default configuration (flat IG-Match) over the nine paper circuits.
/// The seed shuffles the circuit order of every pass; the circuits
/// themselves are the fixed paper suite, so every seed solves the same
/// nine inputs and reports the paper's quality numbers.
///
/// The traced run calls the pipeline's public pieces one by one (IG build,
/// spectral ordering, sweep) and requires the composed result to be
/// bit-identical to `run_partitioner`; it also times the SpMV and sweep
/// kernels on the largest circuit.

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "circuits/benchmarks.hpp"
#include "common.hpp"
#include "core/partitioner.hpp"
#include "graph/intersection_graph.hpp"
#include "hypergraph/cut_metrics.hpp"
#include "igmatch/dynamic_matcher.hpp"
#include "igmatch/igmatch.hpp"
#include "igmatch/sweep_cut.hpp"
#include "linalg/csr_matrix.hpp"
#include "linalg/vector_ops.hpp"
#include "spectral/eig1.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace netpart;

struct Circuit {
  std::string name;
  Hypergraph h;
};

/// Solve one circuit with the product call and check the answer: a proper
/// partition whose reported cut matches a recount, and nets cut
/// within the Theorem 4-5 matching bound of the winning split.
PartitionResult solve_checked(const Circuit& c, Checks& checks) {
  PartitionResult r = run_partitioner(c.h);
  const bool proper = r.partition.is_proper();
  checks.require(proper, c.name + ": improper partition");
  if (proper) {
    checks.require(net_cut(c.h, r.partition) == r.nets_cut,
                   c.name + ": reported cut differs from recount");
    checks.require(r.matching_bound >= 0 && r.nets_cut <= r.matching_bound,
                   c.name + ": nets cut exceeds the matching bound");
  }
  return r;
}

/// Seeded Fisher-Yates permutation of [0, n).
std::vector<std::size_t> shuffled(std::size_t n, Rng& rng) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  for (std::size_t i = n; i > 1; --i)
    std::swap(order[i - 1],
              order[static_cast<std::size_t>(
                  rng.below(static_cast<std::int64_t>(i)))]);
  return order;
}

}  // namespace

int run_cold_suite(const Args& args, JsonWriter& w) {
  Rng rng(args.seed);
  Checks checks;

  // Set-up: generate the suite, several times for a steady median.
  std::vector<Circuit> suite;
  std::vector<double> setup_s;
  for (int rep = 0; rep < args.setup_reps; ++rep) {
    const auto start = Clock::now();
    std::vector<Circuit> fresh;
    for (const BenchmarkSpec& spec : benchmark_suite())
      fresh.push_back({spec.name, make_benchmark(spec.name).hypergraph});
    setup_s.push_back(ms_since(start) / 1e3);
    suite = std::move(fresh);
  }

  // One untimed pass spawns the compute pool and faults in the allocator.
  for (const Circuit& c : suite) (void)run_partitioner(c.h);

  w.field_array("setup_s", setup_s);
  w.key("circuits").begin_array();
  for (const Circuit& c : suite)
    w.begin_object()
        .field("name", c.name)
        .field("modules", c.h.num_modules())
        .field("nets", c.h.num_nets())
        .end_object();
  w.end_array();

  // Measured passes: at least three, then until the time is used up.
  w.key("passes").begin_array();
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(args.seconds));
  for (int pass = 0; pass < 3 || Clock::now() < deadline; ++pass) {
    const std::vector<std::size_t> order = shuffled(suite.size(), rng);
    std::vector<double> ms(suite.size());
    std::vector<double> ratio(suite.size());
    std::vector<double> cut(suite.size());
    std::vector<double> bound(suite.size());
    const auto pass_start = Clock::now();
    for (const std::size_t i : order) {
      const auto start = Clock::now();
      const PartitionResult r = solve_checked(suite[i], checks);
      ms[i] = ms_since(start);
      ratio[i] = r.ratio;
      cut[i] = r.nets_cut;
      bound[i] = r.matching_bound;
    }
    const double wall_ms = ms_since(pass_start);
    w.begin_object()
        .field("wall_ms", wall_ms)
        .field_array("ms", ms)
        .field_array("ratio", ratio)
        .field_array("cut", cut)
        .field_array("bound", bound)
        .end_object();
  }
  w.end_array();
  w.field("peak_rss_mb", peak_rss_mb());

  if (args.trace) {
    // Traced passes: the same circuits decomposed into the pipeline's
    // public pieces, each call wrapped in a span.
    SpanLog spans;
    w.key("traced_passes").begin_array();
    const int traced_passes = 3;
    for (int pass = 0; pass < traced_passes; ++pass) {
      w.begin_array();
      for (const Circuit& c : suite) {
        SpanLog::Scope item(&spans, "core.run_partitioner", c.name);
        const PartitionResult product = run_partitioner(c.h);
        const double product_ms = item.close();

        SpanLog::Scope ig_span(&spans, "graph.intersection_graph", c.name);
        const WeightedGraph ig = intersection_graph(c.h);
        const double ig_ms = ig_span.close();

        SpanLog::Scope ord_span(&spans, "spectral.spectral_net_ordering_of_ig",
                                c.name);
        const NetOrdering ordering = spectral_net_ordering_of_ig(c.h, ig);
        const double ord_ms = ord_span.close();

        SpanLog::Scope sweep_span(&spans, "igmatch.igmatch_sweep", c.name);
        const IgMatchResult sweep = igmatch_sweep(c.h, ig, ordering.order, {});
        const double sweep_ms = sweep_span.close();

        bool identical = sweep.nets_cut == product.nets_cut &&
                         sweep.matching_bound_at_best ==
                             product.matching_bound &&
                         ordering.lambda2 == product.lambda2.value_or(-1.0);
        for (ModuleId m = 0; identical && m < c.h.num_modules(); ++m)
          identical = sweep.partition.side(m) == product.partition.side(m);
        checks.require(identical,
                       c.name + ": decomposed pipeline differs from "
                                "run_partitioner");

        w.begin_object()
            .field("name", c.name)
            .field("run_partitioner_ms", product_ms)
            .field("ig_build_ms", ig_ms)
            .field("ig_edges", ig.num_edges())
            .field("ordering_ms", ord_ms)
            .field("lanczos_iters", ordering.lanczos_iterations)
            .field("sweep_ms", sweep_ms)
            .field("splits_evaluated", c.h.num_nets() - 1)
            .field("bound_slack",
                   product.matching_bound - product.nets_cut)
            .end_object();
      }
      w.end_array();
    }
    w.end_array();

    // Kernels on Prim2, the circuit of the paper's runtime comparison.
    const auto prim2 =
        std::find_if(suite.begin(), suite.end(),
                     [](const Circuit& c) { return c.name == "Prim2"; });
    const Circuit& big = prim2 != suite.end() ? *prim2 : suite.back();
    const WeightedGraph ig = intersection_graph(big.h);
    const linalg::CsrMatrix laplacian = ig.laplacian();
    std::vector<double> x(static_cast<std::size_t>(laplacian.dim()));
    std::vector<double> y(x.size());
    linalg::fill_random(x, args.seed);
    std::vector<double> spmv_us;
    for (int rep = 0; rep < 200; ++rep)
      spmv_us.push_back(1e3 * time_ms([&] { laplacian.multiply(x, y); }));
    const NetOrdering ordering = spectral_net_ordering_of_ig(big.h, ig);
    const std::int32_t m = big.h.num_nets();
    std::vector<double> matcher_ms;
    std::vector<double> eval_ms;
    std::int64_t label_changes = 0;
    for (int rep = 0; rep < 5; ++rep) {
      SpanLog::Scope ms_span(&spans, "igmatch.matcher_sweep", big.name);
      {
        DynamicBipartiteMatcher matcher(ig);
        for (std::int32_t r = 0; r < m - 1; ++r)
          matcher.move_to_right(ordering.order[static_cast<std::size_t>(r)]);
      }
      matcher_ms.push_back(ms_span.close());
      SpanLog::Scope ev_span(&spans, "igmatch.sweep_eval", big.name);
      {
        DynamicBipartiteMatcher matcher(ig);
        SweepCutEvaluator evaluator(big.h);
        std::vector<NetLabelChange> changes;
        label_changes = 0;
        for (std::int32_t r = 0; r < m - 1; ++r) {
          matcher.move_to_right(ordering.order[static_cast<std::size_t>(r)]);
          matcher.classify_incremental(changes);
          evaluator.apply(changes);
          label_changes += static_cast<std::int64_t>(changes.size());
          (void)evaluator.evaluation();
        }
      }
      eval_ms.push_back(ev_span.close());
    }
    w.key("kernels")
        .begin_object()
        .field("circuit", big.name)
        .field("dim", laplacian.dim())
        .field("nnz", laplacian.nnz())
        .field_array("spmv_us", spmv_us)
        .field_array("matcher_sweep_ms", matcher_ms)
        .field_array("sweep_eval_ms", eval_ms)
        .field("label_changes", label_changes)
        .end_object();
    if (!args.workdir.empty())
      (void)write_file(args.workdir + "/spans_cold_suite.json", spans.json());
    w.field("spans", static_cast<std::int64_t>(spans.size()));
  }

  checks.write(w);
  return 0;
}

}  // namespace perfbench
