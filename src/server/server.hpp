#pragma once

#include <atomic>
#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "obs/rolling.hpp"
#include "obs/trace_context.hpp"
#include "repart/session.hpp"
#include "server/protocol.hpp"
#include "server/result_cache.hpp"
#include "server/runtime/admission.hpp"
#include "server/runtime/executor_pool.hpp"
#include "server/session_manager.hpp"

/// \file server.hpp
/// netpartd: the concurrent partition server (docs/SERVER.md).
///
/// Thread structure:
///  - the *I/O thread* (the caller of run()) accepts connections (unix
///    socket and, optionally, TCP), splits newline-delimited frames, parses
///    and validates requests, classifies and admits them, and evicts idle
///    sessions;
///  - an *executor pool* of N lanes (runtime/executor_pool.hpp) owns all
///    partitioning work.  Each session is pinned to one lane by name hash,
///    so per-session execution stays strictly serial — the discipline that
///    makes every response a deterministic function of the session's own
///    request sequence — while independent sessions proceed concurrently.
///    With `executor_lanes == 1` the pool degenerates to the classic
///    single-executor server.
///
/// Backpressure is class-aware (runtime/admission.hpp): requests are
/// classified cache-hit / warm-ECO / cold on the I/O thread and each class
/// has its own occupancy bound, smallest for cold, so overload sheds the
/// expensive class first.  Shed requests get a structured `overloaded`
/// response carrying the class and a retry-after hint.
/// Requests may carry a deadline; a lane rejects items whose deadline
/// passed while queued (`deadline_exceeded`).  Graceful shutdown (SIGTERM /
/// `shutdown` op / request_stop()) stops accepting, drains every lane —
/// every accepted request still gets its response — then exits.

namespace netpart::server {

struct ServerOptions {
  /// Unix-domain socket path; '@' prefix selects the Linux abstract
  /// namespace (no filesystem presence, vanishes with the process).
  std::string socket_path = "@netpartd";
  /// TCP listen spec "host:port" served *in addition to* the unix socket;
  /// empty = unix only.  Port 0 binds an ephemeral port (see tcp_port()).
  /// Same wire protocol, same admission/drain path.
  std::string tcp_listen;
  /// Executor lanes.  1 = the classic single-executor server; N > 1 pins
  /// sessions to lanes by name hash and marks each lane inline on the
  /// shared parallel runtime (responses stay bit-identical; see
  /// runtime/executor_pool.hpp).
  std::size_t executor_lanes = 1;
  /// Pending bound for the hit class; the warm and cold bounds derive from
  /// it unless set below.
  std::size_t queue_capacity = 64;
  /// Occupancy slots for cold (from-scratch) work; 0 = derive from
  /// queue_capacity (max(2, capacity/16)).
  std::size_t cold_slots = 0;
  /// Occupancy slots for warm-ECO work; 0 = derive (max(4, capacity/4)).
  std::size_t warm_slots = 0;
  /// Result-cache entries (cold runs); 0 disables caching.
  std::size_t cache_capacity = 128;
  /// Sessions idle longer than this are evicted; 0 = never.
  std::int64_t idle_timeout_ms = 0;
  /// Default per-request deadline applied when the request carries no
  /// `timeout_ms`; 0 = no deadline.
  std::int64_t default_timeout_ms = 0;
  /// A request line longer than this closes the connection.
  std::size_t max_frame_bytes = 1 << 20;
  /// Accept the debug `sleep` op (tests use it to wedge a lane).
  bool enable_debug_ops = false;
  /// Enable the process-wide obs registry on lane 0, so `metrics` /
  /// `trace:true` responses carry span trees.  Off by default: embedding
  /// processes (tests, benches) own the registry otherwise.
  bool enable_obs = false;
  /// Append one NDJSON access-log line per executed request to this file
  /// (docs/SERVER.md lists the schema); empty = no access log.
  std::string access_log_path;
  /// Requests whose handler ran at least this long are flagged
  /// `"slow":true` in the access log and echoed to stderr; 0 = never.
  std::int64_t slow_ms = 0;
  /// Rolling-latency window for per-op percentiles served by `stats`.
  std::int64_t latency_window_ms = 60000;
  /// Flight-recorder ring capacity (last N request records kept in memory
  /// for the `debug` op and crash post-mortems); 0 disables recording.
  std::size_t flight_recorder_capacity = 256;
  /// Partitioner configuration used by every session.
  repart::RepartitionOptions repartition;
};

/// Monotonic server counters, safe to read from any thread.  They are kept
/// per Server rather than in the process-wide obs registry: the registry
/// records only while enabled (`--no-obs`, tests and benches leave it off),
/// one process may run several servers, and a `trace:true` request resets
/// the registry, so its counters are not monotonic.  The traced-request
/// reset never touches these.
struct ServerStatsSnapshot {
  std::int64_t connections_accepted = 0;
  std::int64_t requests_total = 0;     ///< frames parsed into valid requests
  std::int64_t responses_ok = 0;
  std::int64_t responses_error = 0;
  std::int64_t parse_errors = 0;       ///< malformed/invalid/unknown-op frames
  std::int64_t rejected_overload = 0;  ///< total sheds, every class
  std::int64_t rejected_deadline = 0;
  std::int64_t rejected_oversized = 0;
  std::int64_t shed_hit = 0;           ///< admission sheds by class
  std::int64_t shed_warm = 0;
  std::int64_t shed_cold = 0;
  std::int64_t write_failures = 0;     ///< responses lost to dead sockets
  std::int64_t cache_hits = 0;
  std::int64_t cache_misses = 0;
  std::int64_t sessions_evicted = 0;
  std::int64_t queue_depth = 0;        ///< all lanes, at snapshot time
  std::int64_t sessions_live = 0;      ///< at snapshot time
  std::int64_t cache_size = 0;         ///< at snapshot time
  std::int64_t uptime_ms = 0;          ///< since start()
  std::int64_t rss_bytes = 0;          ///< last sample; 0 = unknown
  std::int64_t executor_lanes = 0;
  std::vector<runtime::ExecutorPool::LaneSnapshot> lanes;
};

class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind + listen (unix, plus TCP when configured) + start the executor
  /// pool.  Returns false (with `error`) on socket failures.  After a
  /// successful start() the sockets accept connections even before run()
  /// is entered.
  bool start(std::string& error);

  /// Serve until request_stop() (or a `shutdown` request, or an installed
  /// signal).  Blocks; call from the thread that should do I/O.  Returns
  /// after the drain completes.
  void run();

  /// Begin graceful shutdown from any thread: stop accepting, drain every
  /// lane, answer everything in flight, then return from run().
  void request_stop();

  /// Route SIGTERM/SIGINT to request_stop() of the server currently inside
  /// run(), via a self-pipe.  Install once per process, before run().
  static bool install_signal_handlers(std::string& error);

  [[nodiscard]] ServerStatsSnapshot stats() const;
  [[nodiscard]] const ServerOptions& options() const { return options_; }

  /// The bound TCP port after start(), or 0 when no TCP listener is
  /// configured.  With `tcp_listen` port 0 this reports the kernel-chosen
  /// ephemeral port (tests bind port 0 to avoid collisions).
  [[nodiscard]] int tcp_port() const { return tcp_port_; }

 private:
  /// One client connection (unix or TCP — identical from here on).  The fd
  /// stays open until the last reference (I/O thread or queued work) drops,
  /// so a lane can never write to a recycled descriptor; `closed` just
  /// stops further reads/writes.
  struct Conn {
    explicit Conn(int fd_in) : fd(fd_in) {}
    ~Conn();
    Conn(const Conn&) = delete;
    Conn& operator=(const Conn&) = delete;

    int fd;
    std::string inbuf;            ///< I/O thread only
    std::mutex write_mutex;       ///< serializes response writes
    std::atomic<bool> closed{false};
  };

  /// One request's record from frame read to final write.  It is the only
  /// source for the response envelope's `stages_us`, the access-log line,
  /// the flight record and the Chrome overlay, and every exit — shed,
  /// deadline, ok, error — ends in finish().
  struct QueueItem {
    std::shared_ptr<Conn> conn;
    Request req;
    runtime::RequestClass cls = runtime::RequestClass::kHit;
    std::int64_t enqueue_ms = 0;
    std::int64_t deadline_ms = 0;   ///< 0 = none
    std::int64_t wire_bytes = 0;    ///< request line length (access log)
    std::int32_t lane = -1;         ///< executor lane; -1 = never submitted
    /// Per-stage timestamp vector, started when the frame left the socket.
    obs::StageClock clock;
    /// Decoded trace identity; span_id is minted server-side on admit.
    obs::TraceContext trace;
    obs::FlightOutcome outcome = obs::FlightOutcome::kRunning;
    bool ok = false;               ///< the response is not an error
    bool cache_hit = false;        ///< served from the result cache
    std::int64_t begin_ms = 0;     ///< a lane picked it up (steady clock)
    std::int64_t end_ms = 0;       ///< its handler returned (steady clock)
    std::int64_t bytes_out = 0;    ///< response line length
  };

  // --- I/O thread ---
  void io_loop();
  void accept_ready(int listen_fd, bool tcp);
  void handle_readable(const std::shared_ptr<Conn>& conn);
  void process_line(const std::shared_ptr<Conn>& conn, std::string_view line,
                    std::int64_t read_ns);
  void enqueue(const std::shared_ptr<Conn>& conn, Request req,
               std::int64_t wire_bytes, std::int64_t read_ns);
  /// Classify a request into an admission class from lock-free session
  /// hints and a non-counting cache probe.  A stale hint mis-classifies
  /// (sheds or admits sub-optimally) but never changes an answer.
  [[nodiscard]] runtime::RequestClass classify(const Request& req);

  // --- executor lanes ---
  void handle_item(QueueItem& item);
  /// Run the request's op; sets the record's `ok` and `cache_hit`.
  std::string dispatch(QueueItem& item);
  std::string do_ping(const Request& req);
  std::string do_load(const Request& req);
  std::string do_partition(const Request& req, bool& cache_hit);
  std::string do_edit(const Request& req);
  std::string do_unload(const Request& req);
  std::string do_sessions(const Request& req);
  std::string do_metrics(const Request& req);
  std::string do_stats(const Request& req);
  std::string do_profile(const Request& req);
  std::string do_debug(const Request& req);
  std::string do_sleep(const Request& req);
  std::string do_shutdown(const Request& req);

  /// The one exit of every admitted-or-shed request: write the response,
  /// stamp the write stage, record the final flight record and, for
  /// requests that reached a lane, the access-log line.
  void finish(QueueItem& item, std::string response);
  /// The record as the flight recorder stores it.
  [[nodiscard]] static obs::FlightRecord flight_record(const QueueItem& item);
  /// Append the record's access-log line (and echo slow requests to
  /// stderr).  Lane-safe: telemetry_mutex_.
  void log_request(const QueueItem& item);
  /// Refresh the RSS gauge at most once per second (any lane; CAS-elected).
  void sample_process_gauges(std::int64_t now_ms);

  /// Fill partition-result fields on a response under construction.
  static void add_result_fields(ResponseBuilder& rb,
                                const repart::RepartitionResult& r);

  /// Write one response line; `ok` picks the ok/error response counter.
  void write_response(const std::shared_ptr<Conn>& conn, std::string line,
                      bool ok);

  ServerOptions options_;
  SessionManager sessions_;
  ResultCache cache_;
  std::uint64_t config_hash_ = 0;

  int listen_fd_ = -1;
  int tcp_listen_fd_ = -1;
  int tcp_port_ = 0;
  int wake_pipe_[2] = {-1, -1};
  std::vector<std::shared_ptr<Conn>> conns_;
  std::atomic<bool> stop_requested_{false};
  bool started_ = false;

  runtime::ExecutorPool pool_;
  runtime::AdmissionController admission_;

  // Live telemetry.  The rolling maps and the log stream are shared by the
  // lanes under telemetry_mutex_ (uncontended at 1 lane; microseconds of
  // hold time otherwise), and are kept per Server for the same reason as
  // the ServerStatsSnapshot counters.
  /// One recent traced sample a rolling histogram points at from its p99
  /// Prometheus summary line.  Refreshed under telemetry_mutex_ whenever a
  /// traced request's sample dominates the held one or the held one ages
  /// out of the rolling window.
  struct Exemplar {
    double value = -1.0;       ///< -1 = none held
    std::int64_t ts_ms = 0;    ///< unix ms when captured
    std::string trace_id;      ///< canonical 32-hex form
  };

  /// Refresh `ex` with a traced sample (telemetry_mutex_ must be held).
  void offer_exemplar(Exemplar& ex, double value,
                      const std::string& trace_id) const;

  mutable std::mutex telemetry_mutex_;
  std::map<std::string, obs::RollingHistogram> op_latency_;
  obs::RollingHistogram all_latency_{obs::RollingConfig{}};
  std::vector<obs::RollingHistogram> class_latency_;    ///< one per class
  std::vector<obs::RollingHistogram> class_queue_wait_;  ///< one per class
  std::vector<obs::RollingHistogram> lane_queue_wait_;  ///< sized in start()
  std::vector<obs::RollingHistogram> lane_execute_;     ///< sized in start()
  std::vector<Exemplar> class_latency_exemplar_;    ///< one per class
  std::vector<Exemplar> class_queue_exemplar_;      ///< one per class
  std::ofstream access_log_;
  std::int64_t start_ms_ = 0;
  std::atomic<std::int64_t> last_gauge_sample_ms_{0};
  std::atomic<std::int64_t> rss_bytes_{0};

  // Stats (see ServerStatsSnapshot).
  std::atomic<std::int64_t> connections_accepted_{0};
  std::atomic<std::int64_t> requests_total_{0};
  std::atomic<std::int64_t> responses_ok_{0};
  std::atomic<std::int64_t> responses_error_{0};
  std::atomic<std::int64_t> parse_errors_{0};
  std::atomic<std::int64_t> rejected_overload_{0};
  std::atomic<std::int64_t> rejected_deadline_{0};
  std::atomic<std::int64_t> rejected_oversized_{0};
  std::atomic<std::int64_t> sessions_evicted_{0};
  std::atomic<std::int64_t> write_failures_{0};
};

}  // namespace netpart::server
