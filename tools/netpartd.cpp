/// netpartd — the long-running partition server (docs/SERVER.md).
///
/// Speaks newline-delimited JSON over a Unix-domain socket.  Clients load
/// netlists into named sessions, partition them (cold runs are memoized in
/// a content-addressed result cache), apply ECO edit scripts, and
/// repartition incrementally against the carried-forward partition — the
/// CLI's `--repartition` path, over the wire.
///
/// usage: netpartd [flags]
///   --socket <path>        listen address; '@' prefix = Linux abstract
///                          namespace (default: @netpartd)
///   --listen-tcp <h:p>     also listen on TCP host:port (same protocol,
///                          same admission/drain path; port 0 = ephemeral)
///   --pool-lanes <n>       executor lanes (default 1).  Sessions pin to
///                          lanes by name hash; responses stay
///                          bit-identical at any lane count
///   --queue <n>            hit-class pending bound (default 64); the
///                          warm and cold bounds derive from it
///   --cold-slots <n>       cold-class occupancy bound (0 = derive from
///                          --queue: max(2, queue/16))
///   --warm-slots <n>       warm-class occupancy bound (0 = derive:
///                          max(4, queue/4))
///   --cache <n>            result-cache entries, 0 disables (default 128)
///   --idle-timeout <ms>    evict sessions idle this long, 0 = never
///   --default-timeout <ms> deadline for requests without timeout_ms
///   --max-frame <bytes>    per-request line limit (default 1 MiB)
///   --threads <n>          worker threads for the compute pool (0 = auto)
///   --flight-recorder <n>  keep the last n request records in the in-memory
///                          flight recorder (`debug` op / post-mortems);
///                          0 disables (default 256)
///   --postmortem <path>    install SIGSEGV/SIGABRT/SIGBUS/SIGQUIT handlers
///                          that dump the flight recorder to this NDJSON
///                          file (SIGQUIT dumps and continues)
///   --debug-ops            accept the debug `sleep` op (tests only)
///   --no-obs               do not enable the metrics registry
///   --access-log <path>    append one NDJSON line per executed request
///   --slow-ms <ms>         flag handlers at least this slow (also echoed
///                          to stderr); 0 = never (default)
///   --latency-window <ms>  rolling window for `stats` latency percentiles
///                          (default 60000)
///   --vcycle-threshold <n> sessions with >= n modules partition and
///                          repartition through the multilevel V-cycle
///                          path (default 100000, 0 = always flat)
///   --ml-coarsen-to <n>    V-cycle path: stop coarsening at n modules
///                          (default 8, at least 4)
///   --ml-vcycles <n>       V-cycle path: improvement-guarded extra cycles
///                          (default 0; every V-cycle run does at least 1)
///   The three V-cycle flags take values up to 2147483647 and apply to
///   every session; they also key the result cache.
///   --help                 print this message and exit
///
/// SIGTERM/SIGINT drain in-flight work before exiting.  Exit codes follow
/// the netpart CLI scheme: 0 clean shutdown, 1 runtime failure, 2 usage.

#include <cstdint>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "parallel/thread_pool.hpp"
#include "server/server.hpp"

namespace {

void print_usage(std::ostream& os) {
  os << "usage: netpartd [--socket <path>] [--listen-tcp <host:port>]\n"
        "                [--pool-lanes <n>] [--queue <n>] [--cache <n>]\n"
        "                [--cold-slots <n>] [--warm-slots <n>]\n"
        "                [--idle-timeout <ms>] [--default-timeout <ms>]\n"
        "                [--max-frame <bytes>] [--threads <n>]\n"
        "                [--access-log <path>] [--slow-ms <ms>]\n"
        "                [--latency-window <ms>] [--vcycle-threshold <n>]\n"
        "                [--ml-coarsen-to <n>] [--ml-vcycles <n>]\n"
        "                [--flight-recorder <n>] [--postmortem <path>]\n"
        "                [--debug-ops] [--no-obs] [--help]\n"
        "'@'-prefixed socket paths use the Linux abstract namespace.\n"
        "--listen-tcp serves the same protocol beside the unix socket.\n"
        "See docs/SERVER.md for the wire protocol.\n";
}

/// Parse the argument of a flag expecting a non-negative integer; exits
/// with the usage code on failure.
bool parse_nonneg(const std::string& flag, const std::string& text,
                  std::int64_t& out) {
  try {
    std::size_t used = 0;
    out = std::stoll(text, &used);
    if (used != text.size() || out < 0) throw std::invalid_argument(text);
  } catch (const std::exception&) {
    std::cerr << "error: " << flag << " requires a non-negative integer\n";
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using netpart::server::Server;
  using netpart::server::ServerOptions;

  ServerOptions options;
  bool enable_obs = true;
  std::string postmortem_path;
  const std::vector<std::string> args(argv + 1, argv + argc);
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    auto value = [&](std::int64_t& out) {
      if (i + 1 >= args.size()) {
        std::cerr << "error: " << arg << " requires an argument\n";
        return false;
      }
      return parse_nonneg(arg, args[++i], out);
    };
    // The same for a flag stored as int32: larger values are usage errors,
    // not wrapped.
    auto value32 = [&](std::int32_t& out) {
      std::int64_t wide = 0;
      if (!value(wide)) return false;
      if (wide > std::numeric_limits<std::int32_t>::max()) {
        std::cerr << "error: " << arg << " requires an integer <= "
                  << std::numeric_limits<std::int32_t>::max() << '\n';
        return false;
      }
      out = static_cast<std::int32_t>(wide);
      return true;
    };
    std::int64_t n = 0;
    std::int32_t n32 = 0;
    if (arg == "--help") {
      print_usage(std::cout);
      return 0;
    } else if (arg == "--socket") {
      if (i + 1 >= args.size()) {
        std::cerr << "error: --socket requires a path\n";
        return 2;
      }
      options.socket_path = args[++i];
    } else if (arg == "--listen-tcp") {
      if (i + 1 >= args.size()) {
        std::cerr << "error: --listen-tcp requires host:port\n";
        return 2;
      }
      options.tcp_listen = args[++i];
    } else if (arg == "--pool-lanes") {
      if (!value(n)) return 2;
      options.executor_lanes = static_cast<std::size_t>(n > 0 ? n : 1);
    } else if (arg == "--cold-slots") {
      if (!value(n)) return 2;
      options.cold_slots = static_cast<std::size_t>(n);
    } else if (arg == "--warm-slots") {
      if (!value(n)) return 2;
      options.warm_slots = static_cast<std::size_t>(n);
    } else if (arg == "--queue") {
      if (!value(n)) return 2;
      options.queue_capacity = static_cast<std::size_t>(n);
    } else if (arg == "--cache") {
      if (!value(n)) return 2;
      options.cache_capacity = static_cast<std::size_t>(n);
    } else if (arg == "--idle-timeout") {
      if (!value(n)) return 2;
      options.idle_timeout_ms = n;
    } else if (arg == "--default-timeout") {
      if (!value(n)) return 2;
      options.default_timeout_ms = n;
    } else if (arg == "--max-frame") {
      if (!value(n)) return 2;
      options.max_frame_bytes = static_cast<std::size_t>(n);
    } else if (arg == "--threads") {
      if (!value32(n32)) return 2;
      netpart::parallel::ThreadPool::instance().configure(n32);
    } else if (arg == "--access-log") {
      if (i + 1 >= args.size()) {
        std::cerr << "error: --access-log requires a path\n";
        return 2;
      }
      options.access_log_path = args[++i];
    } else if (arg == "--slow-ms") {
      if (!value(n)) return 2;
      options.slow_ms = n;
    } else if (arg == "--latency-window") {
      if (!value(n)) return 2;
      options.latency_window_ms = n > 0 ? n : 60000;
    } else if (arg == "--vcycle-threshold") {
      if (!value32(options.repartition.vcycle_threshold)) return 2;
    } else if (arg == "--ml-coarsen-to") {
      if (!value32(n32)) return 2;
      if (n32 < 4) {
        std::cerr << "error: --ml-coarsen-to requires an integer >= 4\n";
        return 2;
      }
      options.repartition.vcycle.coarsen_to = n32;
    } else if (arg == "--ml-vcycles") {
      if (!value32(options.repartition.vcycle.vcycles)) return 2;
    } else if (arg == "--flight-recorder") {
      if (!value(n)) return 2;
      options.flight_recorder_capacity = static_cast<std::size_t>(n);
    } else if (arg == "--postmortem") {
      if (i + 1 >= args.size()) {
        std::cerr << "error: --postmortem requires a path\n";
        return 2;
      }
      postmortem_path = args[++i];
    } else if (arg == "--debug-ops") {
      options.enable_debug_ops = true;
    } else if (arg == "--no-obs") {
      enable_obs = false;
    } else {
      std::cerr << "error: unknown flag '" << arg
                << "' (see netpartd --help)\n";
      return 2;
    }
  }
  options.enable_obs = enable_obs;

  std::string error;
  if (!postmortem_path.empty()) {
    if (!netpart::obs::FlightRecorder::install_crash_handlers(postmortem_path,
                                                              &error)) {
      std::cerr << "netpartd: " << error << '\n';
      return 1;
    }
  }
  if (!Server::install_signal_handlers(error)) {
    std::cerr << "netpartd: " << error << '\n';
    return 1;
  }
  Server server(options);
  if (!server.start(error)) {
    std::cerr << "netpartd: " << error << '\n';
    return 1;
  }
  // The smoke scripts wait for this line before connecting.
  std::cout << "netpartd listening on " << options.socket_path << std::endl;
  if (server.tcp_port() > 0)
    std::cout << "netpartd listening on tcp port " << server.tcp_port()
              << std::endl;

  server.run();

  const auto st = server.stats();
  std::cout << "netpartd: drained and stopped (" << st.requests_total
            << " requests, " << st.responses_ok << " ok, "
            << st.responses_error << " errors, " << st.cache_hits
            << " cache hits)\n";
  return 0;
}
