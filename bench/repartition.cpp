/// Incremental-repartitioning benchmark: drives a 100-batch ECO edit
/// sequence over a 12k-module generated circuit through one warm
/// RepartitionSession (warm-start Lanczos + masked sweep) and, at every
/// batch, also runs the cold `igmatch_partition` from scratch on the
/// identical netlist state.  Compares the warm and cold ratio cuts per batch
/// and exports everything as BENCH_repartition.json.
///
/// Usage: repartition [out.json] [modules] [edit-batches]
///
/// Exits nonzero when the warm session ends worse than cold, or when the
/// warm sequence falls below an absolute 1.1x speedup floor (the tight
/// bound is the bench_gate comparison against the committed baseline).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "circuits/generator.hpp"
#include "circuits/rng.hpp"
#include "core/table.hpp"
#include "igmatch/igmatch.hpp"
#include "repart/session.hpp"

namespace {

using namespace netpart;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// One deterministic ECO batch applied directly to the session's netlist:
/// mostly pin moves, with occasional net churn (remove + add).
///
/// `degree` tracks, per module, how many nets contain it (maintained here —
/// the netlist journals pins-per-net only).  Every edit is screened so it
/// never strands a module at degree zero: an isolated module makes the
/// zero-cut one-vs-rest split ratio-optimal, and once one exists every
/// subsequent batch reports ratio 0 — which is how earlier revisions of
/// this bench ended up committing warm/cold final ratios of 0.
void apply_random_batch(repart::EditableNetlist& netlist,
                        std::vector<std::int32_t>& degree, Xoshiro256& rng) {
  const auto ops = static_cast<std::int32_t>(rng.range(1, 3));
  for (std::int32_t op = 0; op < ops; ++op) {
    const std::int32_t m = netlist.num_nets();
    const std::int32_t n = netlist.num_modules();
    if (m < 3 || n < 8) return;
    if (rng.below(7) == 0) {
      // Net churn: retire one net whose loss strands nobody, then wire a
      // fresh one somewhere else.
      for (std::int32_t attempt = 0; attempt < 20; ++attempt) {
        const auto net = static_cast<NetId>(
            rng.below(static_cast<std::uint64_t>(netlist.num_nets())));
        const auto victims = netlist.pins(net);
        bool strands = false;
        for (const ModuleId p : victims)
          strands |= degree[static_cast<std::size_t>(p)] <= 1;
        if (strands) continue;
        for (const ModuleId p : victims) --degree[static_cast<std::size_t>(p)];
        netlist.remove_net(net);
        break;
      }
      std::vector<ModuleId> pins;
      const auto size = static_cast<std::int32_t>(rng.range(2, 5));
      for (std::int32_t i = 0; i < size; ++i)
        pins.push_back(static_cast<ModuleId>(
            rng.below(static_cast<std::uint64_t>(n))));
      std::sort(pins.begin(), pins.end());
      pins.erase(std::unique(pins.begin(), pins.end()), pins.end());
      for (const ModuleId p : pins) ++degree[static_cast<std::size_t>(p)];
      netlist.add_net(pins);
    } else {
      // Pin move: random pin of a random multi-pin net to a random module,
      // skipping sources whose only net this is.
      for (std::int32_t attempt = 0; attempt < 20; ++attempt) {
        const auto net = static_cast<NetId>(
            rng.below(static_cast<std::uint64_t>(netlist.num_nets())));
        const auto pins = netlist.pins(net);
        if (pins.size() < 2) continue;
        const ModuleId from =
            pins[static_cast<std::size_t>(rng.below(pins.size()))];
        const auto to = static_cast<ModuleId>(
            rng.below(static_cast<std::uint64_t>(n)));
        if (to == from) break;
        if (degree[static_cast<std::size_t>(from)] <= 1) continue;
        const bool to_present =
            std::binary_search(pins.begin(), pins.end(), to);
        --degree[static_cast<std::size_t>(from)];
        if (!to_present) ++degree[static_cast<std::size_t>(to)];
        netlist.move_pin(net, from, to);
        break;
      }
    }
  }
}

/// The edit screen above keeps every module wired, but a removed or
/// re-pinned net can still disconnect the hypergraph as a whole — and a
/// disconnected netlist makes a zero-cut component split ratio-optimal,
/// collapsing every later batch's ratio to 0 (the other way earlier
/// revisions of this bench ended up committing final ratios of 0).  After
/// each batch, splice stray components back with 2-pin repair nets, ECO
/// style.  One pass suffices: every unreached component gets its own net
/// into module 0's component.
void ensure_connected(repart::EditableNetlist& netlist,
                      std::vector<std::int32_t>& degree) {
  const std::int32_t n = netlist.num_modules();
  const std::int32_t m = netlist.num_nets();
  // module -> incident nets (CSR), rebuilt per call; the batch loop runs a
  // full cold partition right after this, so the scan is noise.
  std::vector<std::int32_t> offset(static_cast<std::size_t>(n) + 1, 0);
  for (NetId net = 0; net < m; ++net)
    for (const ModuleId p : netlist.pins(net))
      ++offset[static_cast<std::size_t>(p) + 1];
  for (std::int32_t i = 0; i < n; ++i)
    offset[static_cast<std::size_t>(i) + 1] +=
        offset[static_cast<std::size_t>(i)];
  std::vector<std::int32_t> incident(
      static_cast<std::size_t>(offset[static_cast<std::size_t>(n)]));
  std::vector<std::int32_t> cursor(offset.begin(), offset.end() - 1);
  for (NetId net = 0; net < m; ++net)
    for (const ModuleId p : netlist.pins(net))
      incident[static_cast<std::size_t>(cursor[static_cast<std::size_t>(p)]++)] =
          net;

  std::vector<char> module_seen(static_cast<std::size_t>(n), 0);
  std::vector<char> net_seen(static_cast<std::size_t>(m), 0);
  std::vector<std::int32_t> stack;
  const auto flood = [&](std::int32_t root) {
    module_seen[static_cast<std::size_t>(root)] = 1;
    stack.push_back(root);
    while (!stack.empty()) {
      const std::int32_t v = stack.back();
      stack.pop_back();
      for (std::int32_t k = offset[static_cast<std::size_t>(v)];
           k < offset[static_cast<std::size_t>(v) + 1]; ++k) {
        const std::int32_t net = incident[static_cast<std::size_t>(k)];
        if (net_seen[static_cast<std::size_t>(net)]) continue;
        net_seen[static_cast<std::size_t>(net)] = 1;
        for (const ModuleId p : netlist.pins(net))
          if (!module_seen[static_cast<std::size_t>(p)]) {
            module_seen[static_cast<std::size_t>(p)] = 1;
            stack.push_back(p);
          }
      }
    }
  };
  flood(0);
  for (std::int32_t v = 1; v < n; ++v) {
    if (module_seen[static_cast<std::size_t>(v)]) continue;
    const ModuleId repair_pins[] = {0, v};
    netlist.add_net(repair_pins);
    ++degree[0];
    ++degree[static_cast<std::size_t>(v)];
    flood(v);
  }
}

struct BatchRow {
  double warm_ms = 0.0;
  double cold_ms = 0.0;
  double warm_ratio = 0.0;
  double cold_ratio = 0.0;
  bool warm_started = false;
  std::int32_t splits_evaluated = 0;
  std::int32_t splits_total = 0;
  std::int32_t warm_iters = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_repartition.json";
  const std::int32_t modules =
      argc > 2 ? static_cast<std::int32_t>(std::atoi(argv[2])) : 12000;
  const std::int32_t batches =
      argc > 3 ? static_cast<std::int32_t>(std::atoi(argv[3])) : 100;

  GeneratorConfig config;
  config.name = "repart-bench";
  config.num_modules = modules;
  config.num_nets = modules + modules / 10;
  const Hypergraph h = generate_circuit(config).hypergraph;
  std::cout << "repartition bench: " << h.num_modules() << " modules, "
            << h.num_nets() << " nets, " << batches << " edit batches\n";

  repart::RepartitionSession session(h);
  Xoshiro256 rng = Xoshiro256::from_string("repart-bench-edits");

  // Per-module incident-net counts for the edit screen (see
  // apply_random_batch); seeded from the pristine hypergraph.
  std::vector<std::int32_t> degree(static_cast<std::size_t>(h.num_modules()),
                                   0);
  for (NetId net = 0; net < h.num_nets(); ++net)
    for (const ModuleId p : h.pins(net)) ++degree[static_cast<std::size_t>(p)];

  // Prime the caches (cold by construction; not counted in either column —
  // both the warm and the cold sequence start from this same state).
  auto start = Clock::now();
  repart::RepartitionResult primed = session.repartition();
  std::cout << "initial cold run: ratio " << format_ratio(primed.ratio)
            << ", " << primed.lanczos_iterations << " Lanczos iters, "
            << ms_since(start) << " ms\n\n";

  std::vector<BatchRow> rows;
  rows.reserve(static_cast<std::size_t>(batches));
  std::int32_t warm_better = 0, ties = 0, cold_better = 0;

  for (std::int32_t batch = 0; batch < batches; ++batch) {
    apply_random_batch(session.netlist(), degree, rng);
    ensure_connected(session.netlist(), degree);

    BatchRow row;
    start = Clock::now();
    const repart::RepartitionResult warm = session.repartition();
    row.warm_ms = ms_since(start);

    start = Clock::now();
    const IgMatchResult cold = igmatch_partition(session.hypergraph());
    row.cold_ms = ms_since(start);

    row.warm_ratio = warm.ratio;
    row.cold_ratio = cold.ratio;
    row.warm_started = warm.warm_started;
    row.splits_evaluated = warm.sweep_ranks_evaluated;
    row.splits_total = warm.sweep_ranks_total;
    row.warm_iters = warm.lanczos_iterations;
    if (warm.ratio < cold.ratio)
      ++warm_better;
    else if (warm.ratio > cold.ratio)
      ++cold_better;
    else
      ++ties;
    rows.push_back(row);

    if ((batch + 1) % 10 == 0)
      std::cout << "batch " << batch + 1 << ": warm " << row.warm_ms
                << " ms vs cold " << row.cold_ms << " ms, ratios "
                << format_ratio(row.warm_ratio) << " / "
                << format_ratio(row.cold_ratio) << '\n';
  }

  double warm_total = 0.0, cold_total = 0.0;
  std::int64_t splits_evaluated = 0, splits_total = 0;
  for (const BatchRow& row : rows) {
    warm_total += row.warm_ms;
    cold_total += row.cold_ms;
    splits_evaluated += row.splits_evaluated;
    splits_total += row.splits_total;
  }
  const double speedup = warm_total > 0.0 ? cold_total / warm_total : 0.0;
  const double warm_final = rows.back().warm_ratio;
  const double cold_final = rows.back().cold_ratio;

  TextTable table({"sequence", "total ms", "final ratio"});
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.1f", warm_total);
  table.add_row({"warm (incremental)", buffer, format_ratio(warm_final)});
  std::snprintf(buffer, sizeof buffer, "%.1f", cold_total);
  table.add_row({"cold (from scratch)", buffer, format_ratio(cold_final)});
  std::cout << '\n';
  print_table_auto(table, std::cout);
  std::cout << "\nspeedup: " << speedup << "x over " << batches
            << " batches; splits evaluated " << splits_evaluated << "/"
            << splits_total << "; quality warm-better/tie/cold-better: "
            << warm_better << "/" << ties << "/" << cold_better << '\n';

  std::string json;
  json += "{\n  \"bench\": \"repartition\",\n";
  json += "  \"modules\": " + std::to_string(modules) + ",\n";
  json += "  \"nets_initial\": " + std::to_string(h.num_nets()) + ",\n";
  json +=
      "  \"nets_final\": " + std::to_string(session.hypergraph().num_nets()) +
      ",\n";
  json += "  \"batches\": " + std::to_string(batches) + ",\n";
  std::snprintf(buffer, sizeof buffer, "%.3f", warm_total);
  json += "  \"warm_total_ms\": " + std::string(buffer) + ",\n";
  std::snprintf(buffer, sizeof buffer, "%.3f", cold_total);
  json += "  \"cold_total_ms\": " + std::string(buffer) + ",\n";
  std::snprintf(buffer, sizeof buffer, "%.3f", speedup);
  json += "  \"speedup\": " + std::string(buffer) + ",\n";
  std::snprintf(buffer, sizeof buffer, "%.9g", warm_final);
  json += "  \"warm_final_ratio\": " + std::string(buffer) + ",\n";
  std::snprintf(buffer, sizeof buffer, "%.9g", cold_final);
  json += "  \"cold_final_ratio\": " + std::string(buffer) + ",\n";
  json += "  \"warm_better\": " + std::to_string(warm_better) + ",\n";
  json += "  \"ties\": " + std::to_string(ties) + ",\n";
  json += "  \"cold_better\": " + std::to_string(cold_better) + ",\n";
  json += "  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const BatchRow& row = rows[i];
    char line[320];
    std::snprintf(line, sizeof line,
                  "    {\"batch\": %zu, \"warm_ms\": %.3f, \"cold_ms\": %.3f, "
                  "\"warm_ratio\": %.9g, \"cold_ratio\": %.9g, "
                  "\"warm_started\": %s, \"splits_evaluated\": %d, "
                  "\"lanczos_iters\": %d}%s\n",
                  i + 1, row.warm_ms, row.cold_ms, row.warm_ratio,
                  row.cold_ratio, row.warm_started ? "true" : "false",
                  row.splits_evaluated, row.warm_iters,
                  i + 1 < rows.size() ? "," : "");
    json += line;
  }
  json += "  ]\n}\n";

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot open " << out_path << '\n';
    return 1;
  }
  out << json;
  std::cout << "wrote " << out_path << '\n';

  // Warm runs are path-dependent (docs/PERFORMANCE.md), so any single
  // batch — including the last — can tip either way.  The quality contract
  // is sequence-level: the warm session must win at least as many batches
  // as it loses, and the final ratio must stay within 2% of cold.
  if (cold_better > warm_better) {
    std::cerr << "FAIL: cold won more batches than warm (" << cold_better
              << " > " << warm_better << ")\n";
    return 1;
  }
  if (warm_final > cold_final * 1.02) {
    std::cerr << "FAIL: warm sequence ended >2% worse than cold ("
              << warm_final << " vs " << cold_final << ")\n";
    return 1;
  }
  // Absolute floor only; the real regression control is scripts/check.sh's
  // bench_gate run against the committed baseline (speedup:higher:25).
  // The floor was 2x when a cold partition cost ~10s; the incremental
  // sweep/SoA-matcher kernel rework cut cold runs ~9x, so the warm path's
  // *relative* edge is structurally smaller now even though both absolute
  // columns improved severalfold.
  if (speedup < 1.1) {
    std::cerr << "FAIL: warm speedup " << speedup
              << "x below the 1.1x floor\n";
    return 1;
  }
  return 0;
}
