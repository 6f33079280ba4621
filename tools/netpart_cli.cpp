/// netpart — command-line front end for the library.
///
/// Subcommands:
///   stats     <input>                      structural statistics
///   generate  <circuit> <out.hgr>          materialize a benchmark circuit
///   partition <input> [algo] [out.part]    bipartition with any algorithm
///   multiway  <input> <max-block> [algo]   recursive k-way decomposition
///   sparsity  <input>                      clique vs IG nonzero counts
///   list                                   list built-in circuits/algorithms
///
/// <input> is either the name of a built-in benchmark circuit (bm1, 19ks,
/// Prim1, Prim2, Test02..Test06) or a path to an hMETIS .hgr file.
///
/// Flags (anywhere on the command line):
///   --threads <n>         worker threads, at most 4096 (0 = auto);
///                         default: hardware concurrency, overridable via
///                         NETPART_THREADS
///   --repartition <file>  (partition, igmatch only) apply the ECO edit
///                         script and repartition incrementally at each
///                         `commit` (IG-Match against the carried-forward
///                         partition)
///   --trace               print the phase trace tree and metrics tables
///   --trace-out <file>    write the run's span tree as Chrome trace-event
///                         JSON (load in ui.perfetto.dev / chrome://tracing)
///   --metrics-out <file>  export one metrics record for this run
///   --metrics-format <f>  encoding for --metrics-out: `json` (default,
///                         appends one NDJSON record) or `prom` (rewrites
///                         the file as a Prometheus text exposition)
///   --profile-out <file>  run the span-attributed sampling profiler for the
///                         duration of the command and write folded stacks
///                         (flamegraph.pl / speedscope input)
///   --events-out <file>   record solver convergence events (Lanczos
///                         residuals, FM pass gains, sweep curves,
///                         augmenting-path lengths) as NDJSON
///   --version             print the library version and exit
///   --help                print usage and exit

#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "circuits/benchmarks.hpp"
#include "core/metrics_report.hpp"
#include "hypergraph/content_hash.hpp"
#include "core/multiway.hpp"
#include "core/partitioner.hpp"
#include "core/table.hpp"
#include "graph/sparsity.hpp"
#include "hypergraph/cut_metrics.hpp"
#include "hypergraph/stats.hpp"
#include "io/dot_io.hpp"
#include "io/netlist_io.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/prom_export.hpp"
#include "obs/trace_export.hpp"
#include "parallel/thread_pool.hpp"
#include "repart/edit_script.hpp"
#include "repart/session.hpp"

#ifndef NETPART_VERSION
#define NETPART_VERSION "unknown"
#endif

namespace {

using namespace netpart;

// Exit codes (documented in --help): distinct classes so scripts and the
// server smoke stage can tell *why* a run failed without scraping stderr.
constexpr int kExitOk = 0;          ///< success
constexpr int kExitRuntime = 1;     ///< I/O failure, unknown circuit, ...
constexpr int kExitUsage = 2;       ///< bad command line
constexpr int kExitParse = 3;       ///< malformed input file
constexpr int kExitInfeasible = 4;  ///< improper partition / failed verify

void print_usage(std::ostream& os) {
  os << "usage: netpart <command> [args] [flags]\n"
        "  stats     <input>\n"
        "  generate  <circuit> <out.hgr>\n"
        "  partition <input> [algorithm] [out.part]\n"
        "  multiway  <input> <max-block-size> [algorithm]\n"
        "  sparsity  <input>\n"
        "  verify    <input> <partition.part>\n"
        "  dot       <input> <out.dot>\n"
        "  list\n"
        "flags:\n"
        "  --threads <n>         worker threads, at most 4096; 0 = auto\n"
        "                        (default: hardware concurrency, env\n"
        "                        override NETPART_THREADS).  Results are\n"
        "                        identical for every value.\n"
        "  --repartition <file>  (partition, igmatch only) apply the ECO\n"
        "                        edit script, repartitioning incrementally\n"
        "                        at each 'commit'\n"
        "  --trace               print phase trace tree and metrics tables\n"
        "  --trace-out <file>    write Chrome trace-event JSON for the run\n"
        "                        (open in ui.perfetto.dev)\n"
        "  --metrics-out <file>  export one metrics record per run\n"
        "  --metrics-format <f>  json (default, append NDJSON) or prom\n"
        "                        (rewrite as Prometheus text exposition)\n"
        "  --profile-out <file>  sample the run's span stacks and write\n"
        "                        folded stacks (flamegraph.pl / speedscope);\n"
        "                        '-' streams them to stdout\n"
        "  --events-out <file>   write solver convergence events (Lanczos\n"
        "                        residuals, FM gains, sweep curves) as NDJSON;\n"
        "                        '-' streams to stdout (at most one of\n"
        "                        --profile-out/--events-out may use '-')\n"
        "  --ml-coarsen-to <n>   multilevel/V-cycle: stop coarsening once\n"
        "                        the instance has at most n modules\n"
        "                        (default 8)\n"
        "  --ml-vcycles <n>      multilevel/V-cycle: improvement-guarded\n"
        "                        extra V-cycles after the first\n"
        "                        uncoarsening (default 1)\n"
        "  --ml-threshold <n>    igmatch runs on inputs with at least n\n"
        "                        modules take the multilevel V-cycle cold\n"
        "                        path (default 100000; 0 = always flat).\n"
        "                        Applies to partition, multiway splits, and\n"
        "                        --repartition sessions\n"
        "  --hash                print the input's canonical content hash\n"
        "                        (FNV-1a over pins/nets; the netpartd result\n"
        "                        cache keys by this)\n"
        "  --version             print version and exit\n"
        "  --help                print this message and exit\n"
        "<input> = built-in circuit name or .hgr file path\n"
        "exit codes:\n"
        "  0  success\n"
        "  1  runtime error (unreadable file, unknown circuit, failed edit)\n"
        "  2  usage error (bad command, flag, or argument)\n"
        "  3  parse error (malformed .hgr / partition / edit script)\n"
        "  4  infeasible result (improper partition, verify mismatch)\n";
}

int usage() {
  print_usage(std::cerr);
  return kExitUsage;
}

/// Parse the whole of `text` as a non-negative int: trailing text, a
/// negative value and an int overflow all fail.
bool parse_nonneg_int(const std::string& text, int& out) {
  try {
    std::size_t used = 0;
    out = std::stoi(text, &used);
    return used == text.size() && out >= 0;
  } catch (const std::exception&) {
    return false;
  }
}

/// Flags extracted from the command line before positional dispatch.
struct CliFlags {
  bool trace = false;
  std::string trace_out;
  std::string metrics_out;
  std::string metrics_format = "json";
  std::string profile_out;
  std::string events_out;
  std::string repartition;
};

/// --hash: every load() announces the input's content hash.
bool g_print_hash = false;

/// Multilevel V-cycle knobs (-1 = keep the library default).
struct MlFlags {
  int coarsen_to = -1;
  int vcycles = -1;
  int threshold = -1;
};
MlFlags g_ml;

/// Fold the --ml-* flags into a partitioner config.
void apply_ml_flags(PartitionerConfig& config) {
  if (g_ml.coarsen_to >= 0) config.multilevel_coarsen_to = g_ml.coarsen_to;
  if (g_ml.vcycles >= 0) config.multilevel_vcycles = g_ml.vcycles;
  if (g_ml.threshold >= 0) config.vcycle_threshold = g_ml.threshold;
}

/// Load a built-in circuit by name, or an .hgr file by path.
Hypergraph load(const std::string& input) {
  Hypergraph h = [&input] {
    for (const BenchmarkSpec& spec : benchmark_suite())
      if (spec.name == input) return make_benchmark(input).hypergraph;
    return io::read_hgr_file(input);
  }();
  if (g_print_hash)
    std::cout << "content-hash " << format_content_hash(netlist_content_hash(h))
              << " (" << input << ")\n";
  return h;
}

int cmd_stats(const std::string& input) {
  const Hypergraph h = load(input);
  std::cout << compute_stats(h);
  std::cout << "connected:   " << (h.is_connected() ? "yes" : "no") << '\n';
  return 0;
}

int cmd_generate(const std::string& circuit, const std::string& out) {
  const GeneratedCircuit g = make_benchmark(circuit);
  io::write_hgr_file(out, g.hypergraph);
  std::cout << "wrote " << circuit << " (" << g.hypergraph.num_modules()
            << " modules, " << g.hypergraph.num_nets() << " nets) to " << out
            << '\n';
  return 0;
}

/// Write a partition to `out` (empty = skip); returns 0 / 1 like main.
int write_partition_file(const Partition& p, const std::string& out) {
  if (out.empty()) return 0;
  std::ofstream stream(out);
  if (!stream) {
    std::cerr << "cannot open " << out << '\n';
    return 1;
  }
  io::write_partition(stream, p);
  std::cout << "  partition written to " << out << '\n';
  return 0;
}

/// `partition --repartition <edits>`: incremental ECO repartitioning.
int cmd_repartition(const std::string& input, const std::string& algorithm,
                    const std::string& out, const std::string& edits) {
  if (parse_algorithm(algorithm) != Algorithm::kIgMatch) {
    std::cerr << "error: --repartition supports only the igmatch algorithm\n";
    return 2;
  }
  const Hypergraph h = load(input);
  const repart::EditScript script = repart::read_edit_script_file(edits);
  repart::RepartitionOptions options;
  if (g_ml.coarsen_to >= 0) options.vcycle.coarsen_to = g_ml.coarsen_to;
  if (g_ml.vcycles >= 0) options.vcycle.vcycles = g_ml.vcycles;
  if (g_ml.threshold >= 0) options.vcycle_threshold = g_ml.threshold;
  repart::RepartitionSession session(h, options);
  repart::EditScriptApplier applier(session.netlist());

  repart::RepartitionResult r = session.repartition();
  std::cout << "incremental IG-Match on " << input << " ("
            << script.batches.size() << " edit batches from " << edits
            << "):\n"
            << "  initial   cut " << r.nets_cut << ", ratio "
            << format_ratio(r.ratio) << " (";
  if (r.used_vcycle)
    std::cout << "cold V-cycle";
  else
    std::cout << "cold, " << r.lanczos_iterations << " Lanczos iters";
  std::cout << ")\n";
  for (std::size_t i = 0; i < script.batches.size(); ++i) {
    applier.apply(script.batches[i]);
    r = session.repartition();
    std::cout << "  batch " << i + 1 << "   cut " << r.nets_cut << ", ratio "
              << format_ratio(r.ratio) << " (";
    // The V-cycle path runs no Lanczos, so it names itself instead of
    // reporting a zero count.
    if (r.used_vcycle && r.warm_started)
      std::cout << "warm V-cycle, " << r.vcycles_run << " improving cycles";
    else if (r.used_vcycle)
      std::cout << "cold V-cycle";
    else
      std::cout << (r.warm_started ? "warm" : "cold") << ", "
                << r.lanczos_iterations << " Lanczos iters";
    std::cout << (r.used_previous_partition ? ", kept previous" : "")
              << ")\n";
  }
  const Hypergraph& final_h = session.hypergraph();
  std::cout << "  final     " << final_h.num_modules() << " modules, "
            << final_h.num_nets() << " nets, areas "
            << r.partition.size(Side::kLeft) << ":"
            << r.partition.size(Side::kRight) << '\n';
  if (!r.partition.is_proper()) {
    std::cerr << "error: final partition is improper (one side empty)\n";
    return kExitInfeasible;
  }
  return write_partition_file(r.partition, out);
}

int cmd_partition(const std::string& input, const std::string& algorithm,
                  const std::string& out) {
  const Hypergraph h = load(input);
  PartitionerConfig config;
  config.algorithm = parse_algorithm(algorithm);
  apply_ml_flags(config);
  const PartitionResult r = run_partitioner(h, config);
  std::cout << r.algorithm_name << " on " << input
            << (r.via_multilevel ? " (multilevel V-cycle)" : "") << ":\n"
            << "  areas     " << r.left_size << ":" << r.right_size << '\n'
            << "  nets cut  " << r.nets_cut << '\n'
            << "  ratio cut " << format_ratio(r.ratio) << '\n'
            << "  runtime   " << r.runtime_ms << " ms\n";
  if (r.matching_bound >= 0)
    std::cout << "  MM bound  " << r.matching_bound << '\n';
  if (!r.partition.is_proper()) {
    std::cerr << "error: partition is improper (one side empty)\n";
    return kExitInfeasible;
  }
  return write_partition_file(r.partition, out);
}

int cmd_multiway(const std::string& input, std::int32_t max_block,
                 const std::string& algorithm) {
  const Hypergraph h = load(input);
  MultiwayOptions options;
  options.max_block_size = max_block;
  options.bipartitioner.algorithm = parse_algorithm(algorithm);
  apply_ml_flags(options.bipartitioner);
  const MultiwayResult r = multiway_partition(h, options);
  std::cout << "multiway decomposition of " << input << " (blocks <= "
            << max_block << " modules, " << algorithm << " splits):\n"
            << "  blocks            " << r.partition.num_blocks() << '\n'
            << "  splits performed  " << r.splits_performed << '\n'
            << "  spanning nets     " << r.nets_spanning << '\n'
            << "  connectivity-1    " << r.connectivity_cost << '\n';
  std::int32_t largest = 0;
  for (std::int32_t b = 0; b < r.partition.num_blocks(); ++b)
    largest = std::max(largest, r.partition.block_size(b));
  std::cout << "  largest block     " << largest << " modules\n";
  return 0;
}

int cmd_sparsity(const std::string& input) {
  const Hypergraph h = load(input);
  const SparsityComparison c = compare_sparsity(h);
  std::cout << "clique-model adjacency:      " << c.clique_dimension << " x "
            << c.clique_dimension << ", " << c.clique_nonzeros
            << " nonzeros\n"
            << "intersection-graph adjacency: " << c.intersection_dimension
            << " x " << c.intersection_dimension << ", "
            << c.intersection_nonzeros << " nonzeros\n"
            << "ratio: " << c.ratio() << "x\n";
  return 0;
}

int cmd_dot(const std::string& input, const std::string& out_path) {
  const Hypergraph h = load(input);
  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot open " << out_path << '\n';
    return 1;
  }
  io::write_dot_netlist(out, h);
  std::cout << "wrote DOT netlist of " << input << " to " << out_path
            << " (render: neato -Tsvg " << out_path << " -o out.svg)\n";
  return 0;
}

int cmd_verify(const std::string& input, const std::string& part_path) {
  const Hypergraph h = load(input);
  std::ifstream stream(part_path);
  if (!stream) {
    std::cerr << "cannot open " << part_path << '\n';
    return 1;
  }
  const Partition p = io::read_partition(stream);
  if (p.num_modules() != h.num_modules()) {
    std::cerr << "partition has " << p.num_modules() << " entries but "
              << input << " has " << h.num_modules() << " modules\n";
    return kExitInfeasible;
  }
  const std::int32_t cut = net_cut(h, p);
  std::cout << "partition of " << input << " from " << part_path << ":\n"
            << "  areas     " << p.size(Side::kLeft) << ":"
            << p.size(Side::kRight) << '\n'
            << "  nets cut  " << cut << '\n'
            << "  ratio cut "
            << format_ratio(ratio_cut_value(cut, p.size(Side::kLeft),
                                            p.size(Side::kRight)))
            << '\n'
            << "  proper    " << (p.is_proper() ? "yes" : "NO") << '\n';
  return p.is_proper() ? kExitOk : kExitInfeasible;
}

int cmd_list() {
  std::cout << "built-in circuits:";
  for (const BenchmarkSpec& spec : benchmark_suite())
    std::cout << ' ' << spec.name;
  std::cout << "\nalgorithms: igmatch igmatch-recursive igmatch-refined "
               "igvote eig1 rcut fm kl multilevel sa\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> raw(argv + 1, argv + argc);

  // Separate --flags (accepted anywhere) from positional arguments; any
  // unrecognized flag is a hard error so typos never silently degrade to
  // defaults.
  CliFlags flags;
  std::vector<std::string> args;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    const std::string& arg = raw[i];
    if (arg.size() < 2 || arg[0] != '-' || arg[1] != '-') {
      args.push_back(arg);
      continue;
    }
    if (arg == "--help") {
      print_usage(std::cout);
      return 0;
    }
    if (arg == "--version") {
      std::cout << "netpart " << NETPART_VERSION << '\n';
      return 0;
    }
    if (arg == "--trace") {
      flags.trace = true;
      continue;
    }
    if (arg == "--hash") {
      g_print_hash = true;
      continue;
    }
    if (arg == "--metrics-out") {
      if (i + 1 >= raw.size()) {
        std::cerr << "error: --metrics-out requires a file argument\n";
        return 2;
      }
      flags.metrics_out = raw[++i];
      continue;
    }
    if (arg == "--metrics-format") {
      if (i + 1 >= raw.size()) {
        std::cerr << "error: --metrics-format requires 'json' or 'prom'\n";
        return 2;
      }
      flags.metrics_format = raw[++i];
      if (flags.metrics_format != "json" && flags.metrics_format != "prom") {
        std::cerr << "error: --metrics-format must be 'json' or 'prom'\n";
        return 2;
      }
      continue;
    }
    if (arg == "--profile-out") {
      if (i + 1 >= raw.size()) {
        std::cerr << "error: --profile-out requires a file argument\n";
        return 2;
      }
      flags.profile_out = raw[++i];
      continue;
    }
    if (arg == "--events-out") {
      if (i + 1 >= raw.size()) {
        std::cerr << "error: --events-out requires a file argument\n";
        return 2;
      }
      flags.events_out = raw[++i];
      continue;
    }
    if (arg == "--trace-out") {
      if (i + 1 >= raw.size()) {
        std::cerr << "error: --trace-out requires a file argument\n";
        return 2;
      }
      flags.trace_out = raw[++i];
      continue;
    }
    if (arg == "--repartition") {
      if (i + 1 >= raw.size()) {
        std::cerr << "error: --repartition requires an edit-script file\n";
        return 2;
      }
      flags.repartition = raw[++i];
      continue;
    }
    if (arg == "--threads") {
      if (i + 1 >= raw.size()) {
        std::cerr << "error: --threads requires a count argument\n";
        return 2;
      }
      int threads = 0;
      if (!parse_nonneg_int(raw[++i], threads)) {
        std::cerr << "error: --threads requires a non-negative integer\n";
        return 2;
      }
      // Each lane is an OS thread: refuse before the pool starts any.
      if (threads > parallel::kMaxLanes) {
        std::cerr << "error: --threads requires an integer <= "
                  << parallel::kMaxLanes << '\n';
        return 2;
      }
      parallel::ThreadPool::instance().configure(threads);
      continue;
    }
    if (arg == "--ml-coarsen-to" || arg == "--ml-vcycles" ||
        arg == "--ml-threshold") {
      if (i + 1 >= raw.size()) {
        std::cerr << "error: " << arg << " requires an integer argument\n";
        return 2;
      }
      int value = 0;
      if (!parse_nonneg_int(raw[++i], value) ||
          (arg == "--ml-coarsen-to" && value < 4)) {
        std::cerr << "error: " << arg << " requires a non-negative integer"
                  << (arg == "--ml-coarsen-to" ? " >= 4" : "") << "\n";
        return 2;
      }
      if (arg == "--ml-coarsen-to") g_ml.coarsen_to = value;
      if (arg == "--ml-vcycles") g_ml.vcycles = value;
      if (arg == "--ml-threshold") g_ml.threshold = value;
      continue;
    }
    std::cerr << "error: unknown flag '" << arg
              << "' (see netpart --help)\n";
    return 2;
  }
  if (args.empty()) return usage();
  if (flags.profile_out == "-" && flags.events_out == "-") {
    std::cerr << "error: --profile-out - and --events-out - both stream to "
                 "stdout, interleaving folded stacks with NDJSON events; "
                 "send at most one of them to -\n";
    return 2;
  }

  const bool collect = flags.trace || !flags.metrics_out.empty() ||
                       !flags.trace_out.empty();
  obs::MetricsRegistry& registry = obs::MetricsRegistry::instance();
  if (collect) {
    registry.set_enabled(true);
    // Run label: the positionals after the command, e.g. "bm1/igmatch".
    std::string label;
    for (std::size_t i = 1; i < args.size(); ++i) {
      if (i > 1) label += '/';
      label += args[i];
    }
    registry.set_run_label(label);
  }
  // Arm the profiler / convergence-event ring around the whole command, so
  // the folded profile and the NDJSON event series cover every phase.
  if (!flags.profile_out.empty() && !obs::Profiler::instance().start()) {
    std::cerr << "error: cannot start the sampling profiler\n";
    return 1;
  }
  if (!flags.events_out.empty()) obs::EventRing::instance().arm();

  int rc = 2;
  bool dispatched = true;
  try {
    const std::string& command = args[0];
    if (command == "stats" && args.size() == 2)
      rc = cmd_stats(args[1]);
    else if (command == "generate" && args.size() == 3)
      rc = cmd_generate(args[1], args[2]);
    else if (command == "partition" && args.size() >= 2 && args.size() <= 4) {
      const std::string algorithm = args.size() > 2 ? args[2] : "igmatch";
      const std::string out = args.size() > 3 ? args[3] : "";
      rc = flags.repartition.empty()
               ? cmd_partition(args[1], algorithm, out)
               : cmd_repartition(args[1], algorithm, out, flags.repartition);
    }
    else if (command == "multiway" && args.size() >= 3 && args.size() <= 4)
      rc = cmd_multiway(args[1], std::stoi(args[2]),
                        args.size() > 3 ? args[3] : "igmatch");
    else if (command == "sparsity" && args.size() == 2)
      rc = cmd_sparsity(args[1]);
    else if (command == "verify" && args.size() == 3)
      rc = cmd_verify(args[1], args[2]);
    else if (command == "dot" && args.size() == 3)
      rc = cmd_dot(args[1], args[2]);
    else if (command == "list")
      rc = cmd_list();
    else
      dispatched = false;
  } catch (const io::ParseError& e) {
    std::cerr << "parse error: " << e.what() << '\n';
    return kExitParse;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return kExitRuntime;
  }
  if (!dispatched) return usage();

  if (!flags.profile_out.empty()) {
    obs::Profiler& profiler = obs::Profiler::instance();
    profiler.stop();
    const obs::ProfileSnapshot profile = profiler.snapshot();
    if (flags.profile_out == "-") {
      // Stream the folded stacks verbatim; the summary goes to stderr so
      // `netpart ... --profile-out - | flamegraph.pl` sees only the data.
      std::cout << profile.to_folded();
      std::cerr << "profile: " << profile.total_samples << " samples, "
                << static_cast<int>(profile.attribution() * 100.0 + 0.5)
                << "% attributed\n";
    } else {
      std::ofstream out(flags.profile_out, std::ios::trunc);
      if (!out) {
        std::cerr << "cannot open " << flags.profile_out << '\n';
        return 1;
      }
      out << profile.to_folded();
      std::cout << "profile written to " << flags.profile_out << " ("
                << profile.total_samples << " samples, "
                << static_cast<int>(profile.attribution() * 100.0 + 0.5)
                << "% attributed; feed to flamegraph.pl or speedscope)\n";
    }
  }
  if (!flags.events_out.empty()) {
    obs::EventRing& ring = obs::EventRing::instance();
    ring.disarm();
    if (flags.events_out == "-") {
      std::cout << ring.drain_ndjson();
      std::cerr << "events: " << ring.recorded() << " recorded, "
                << ring.dropped() << " dropped\n";
    } else {
      std::ofstream out(flags.events_out, std::ios::trunc);
      if (!out) {
        std::cerr << "cannot open " << flags.events_out << '\n';
        return 1;
      }
      out << ring.drain_ndjson();
      std::cout << "convergence events written to " << flags.events_out
                << " (" << ring.recorded() << " recorded, " << ring.dropped()
                << " dropped)\n";
    }
  }

  if (collect) {
    const obs::MetricsSnapshot snapshot = registry.snapshot();
    if (flags.trace) {
      std::cout << "\ntrace:\n";
      print_span_tree(snapshot, std::cout);
      print_metrics_tables(snapshot, std::cout);
    }
    if (!flags.metrics_out.empty()) {
      // JSON records append (many runs per file); a Prometheus exposition
      // is a complete scrape body, so prom mode rewrites the file.
      const bool prom = flags.metrics_format == "prom";
      std::ofstream out(flags.metrics_out,
                        prom ? std::ios::trunc : std::ios::app);
      if (!out) {
        std::cerr << "cannot open " << flags.metrics_out << '\n';
        return 1;
      }
      if (prom)
        out << obs::to_prometheus(snapshot);
      else
        out << snapshot.to_json() << '\n';
    }
    if (!flags.trace_out.empty()) {
      std::ofstream out(flags.trace_out, std::ios::trunc);
      if (!out) {
        std::cerr << "cannot open " << flags.trace_out << '\n';
        return 1;
      }
      out << obs::to_chrome_trace(snapshot) << '\n';
      std::cout << "trace written to " << flags.trace_out
                << " (open in ui.perfetto.dev)\n";
    }
  }
  return rc;
}
