#include "server/server.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "circuits/benchmarks.hpp"
#include "hypergraph/content_hash.hpp"
#include "io/netlist_io.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/prom_export.hpp"
#include "obs/trace_export.hpp"
#include "parallel/thread_pool.hpp"
#include "repart/edit_script.hpp"
#include "server/socket_util.hpp"

namespace netpart::server {

namespace {

/// Self-pipe written by the SIGTERM/SIGINT handler; the I/O loop of the
/// server currently inside run() polls the read end.  One per process.
int g_signal_pipe[2] = {-1, -1};

extern "C" void netpartd_signal_handler(int) {
  // async-signal-safe: one write, result ignored (pipe full is fine — the
  // loop only cares that the fd is readable).
  const char byte = 1;
  [[maybe_unused]] const ssize_t n = ::write(g_signal_pipe[1], &byte, 1);
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/// Serialize a partition as one 'L'/'R' per module — the wire form of an
/// assignment, diffable against `netpart partition` output.
std::string assignment_string(const Partition& p) {
  std::string out;
  out.reserve(static_cast<std::size_t>(p.num_modules()));
  for (const Side s : p.sides()) out.push_back(s == Side::kLeft ? 'L' : 'R');
  return out;
}

/// Wall-clock milliseconds since the epoch, for access-log timestamps (the
/// rest of the server runs on the steady clock).
std::int64_t wall_now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

/// One windowed-latency view as a JSON object fragment:
/// {"window_ms":N,"count":C,"mean":..,"p50":..,"p90":..,"p99":..,"max":..}.
std::string latency_json(const obs::HistogramEntry& h,
                         std::int64_t window_ms) {
  std::string out = "{\"window_ms\":";
  out += std::to_string(window_ms);
  out += ",\"count\":";
  out += std::to_string(h.count);
  out += ",\"mean\":";
  out += json_number(h.mean());
  out += ",\"p50\":";
  out += json_number(h.quantile(0.5));
  out += ",\"p90\":";
  out += json_number(h.quantile(0.9));
  out += ",\"p99\":";
  out += json_number(h.quantile(0.99));
  out += ",\"max\":";
  out += json_number(h.max);
  out += '}';
  return out;
}

/// Wire name of admission class `i` (runtime::RequestClass order).
const char* class_label(std::size_t i) {
  return runtime::class_name(static_cast<runtime::RequestClass>(i));
}

/// Class occupancy bounds from the options: explicit values win, zeros
/// derive from queue_capacity so one flag scales the whole admission
/// surface.  hit_pending *is* queue_capacity — at 1 lane, hit-class
/// backpressure is one bounded queue of that capacity.
runtime::AdmissionLimits derive_limits(const ServerOptions& o) {
  runtime::AdmissionLimits l;
  l.hit_pending = std::max<std::size_t>(1, o.queue_capacity);
  l.warm_slots = o.warm_slots > 0
                     ? o.warm_slots
                     : std::max<std::size_t>(4, o.queue_capacity / 4);
  l.cold_slots = o.cold_slots > 0
                     ? o.cold_slots
                     : std::max<std::size_t>(2, o.queue_capacity / 16);
  return l;
}

/// Reopen a finished response object and append `"key":<json>`.
void append_member(std::string& response, std::string_view key,
                   std::string_view json) {
  response.pop_back();
  response += ",\"";
  response += key;
  response += "\":";
  response += json;
  response += '}';
}

/// Echo the caller's trace_id on a finished response line (error paths
/// included).  No-op when the request carried no trace context.
void splice_trace_id(std::string& response, const std::string& trace_id) {
  if (trace_id.empty()) return;
  append_member(response, "trace_id", '"' + trace_id + '"');
}

/// A handler's structured failure; dispatch() turns it into an error
/// response with this code.
struct RequestError : std::runtime_error {
  RequestError(const char* error_code, const std::string& message)
      : std::runtime_error(message), code(error_code) {}
  const char* code;
};

/// One stage of a request as every output renders it: wire name, offset
/// from the frame read, and duration, in whole microseconds.
struct StageSpan {
  const char* name;
  std::int64_t begin_us;
  std::int64_t us;
};

/// The one walk of a request's StageClock.  The envelope's `stages_us`,
/// the access log's `*_us` fields, the flight record and the Chrome overlay
/// all render from it.
std::array<StageSpan, obs::kNumStages> stage_spans(
    const obs::StageClock& clock) {
  std::array<StageSpan, obs::kNumStages> out{};
  for (std::size_t i = 0; i < obs::kNumStages; ++i) {
    const auto s = static_cast<obs::Stage>(i);
    out[i] = {obs::stage_name(s), clock.begin_offset_us(s),
              clock.duration_us(s)};
  }
  return out;
}

/// Structured shed response: the `overloaded` error plus top-level
/// `class` and `retry_after_ms` fields clients can back off on.
std::string overloaded_response(std::int64_t id, runtime::RequestClass cls,
                                std::int64_t retry_after_ms) {
  std::string msg = std::string(runtime::class_name(cls)) +
                    " admission capacity is full; retry later";
  std::string out = error_response(id, "overloaded", msg);
  out.pop_back();  // reopen the top-level object
  out += ",\"class\":\"";
  out += runtime::class_name(cls);
  out += "\",\"retry_after_ms\":";
  out += std::to_string(retry_after_ms);
  out += '}';
  return out;
}

}  // namespace

Server::Conn::~Conn() {
  if (fd >= 0) ::close(fd);
}

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      cache_(options_.cache_capacity),
      config_hash_(repartition_config_hash(options_.repartition)),
      admission_(derive_limits(options_)),
      all_latency_(obs::RollingConfig{options_.latency_window_ms, 6}) {
  class_latency_.reserve(runtime::kNumClasses);
  class_queue_wait_.reserve(runtime::kNumClasses);
  for (std::size_t i = 0; i < runtime::kNumClasses; ++i) {
    class_latency_.emplace_back(
        obs::RollingConfig{options_.latency_window_ms, 6});
    class_queue_wait_.emplace_back(
        obs::RollingConfig{options_.latency_window_ms, 6});
  }
  class_latency_exemplar_.resize(runtime::kNumClasses);
  class_queue_exemplar_.resize(runtime::kNumClasses);
}

Server::~Server() {
  request_stop();
  pool_.drain_and_join();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (tcp_listen_fd_ >= 0) ::close(tcp_listen_fd_);
  for (int fd : wake_pipe_)
    if (fd >= 0) ::close(fd);
}

bool Server::start(std::string& error) {
  if (started_) {
    error = "server already started";
    return false;
  }
  sockaddr_un addr{};
  socklen_t addr_len = 0;
  if (!make_unix_address(options_.socket_path, addr, addr_len, error))
    return false;

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  if (options_.socket_path[0] != '@') ::unlink(options_.socket_path.c_str());
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr), addr_len) <
      0) {
    error = std::string("bind ") + options_.socket_path + ": " +
            std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  if (::listen(listen_fd_, 64) < 0) {
    error = std::string("listen: ") + std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  set_nonblocking(listen_fd_);

  if (!options_.tcp_listen.empty()) {
    std::string host;
    std::string port;
    if (!split_host_port(options_.tcp_listen, host, port, error) ||
        (tcp_listen_fd_ = tcp_listen_fd(host, port, 64, error)) < 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      return false;
    }
    set_nonblocking(tcp_listen_fd_);
    tcp_port_ = tcp_local_port(tcp_listen_fd_);
  }

  if (::pipe(wake_pipe_) < 0) {
    error = std::string("pipe: ") + std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    if (tcp_listen_fd_ >= 0) {
      ::close(tcp_listen_fd_);
      tcp_listen_fd_ = -1;
    }
    return false;
  }
  set_nonblocking(wake_pipe_[0]);
  set_nonblocking(wake_pipe_[1]);

  if (!options_.access_log_path.empty()) {
    access_log_.open(options_.access_log_path, std::ios::app);
    if (!access_log_.is_open()) {
      error = "cannot open access log " + options_.access_log_path;
      ::close(listen_fd_);
      listen_fd_ = -1;
      if (tcp_listen_fd_ >= 0) {
        ::close(tcp_listen_fd_);
        tcp_listen_fd_ = -1;
      }
      for (int& fd : wake_pipe_) {
        ::close(fd);
        fd = -1;
      }
      return false;
    }
  }

  start_ms_ = steady_now_ms();
  const std::size_t lanes = std::max<std::size_t>(1, options_.executor_lanes);
  lane_queue_wait_.clear();
  lane_execute_.clear();
  for (std::size_t i = 0; i < lanes; ++i) {
    lane_queue_wait_.emplace_back(
        obs::RollingConfig{options_.latency_window_ms, 6});
    lane_execute_.emplace_back(
        obs::RollingConfig{options_.latency_window_ms, 6});
  }
  obs::FlightRecorder::instance().configure(options_.flight_recorder_capacity);
  obs::FlightRecorder::instance().note("server.start",
                                       static_cast<std::int64_t>(lanes));
  const bool enable_obs = options_.enable_obs;
  const std::int64_t window_ms = options_.latency_window_ms;
  pool_.start(lanes, [lanes, enable_obs, window_ms](std::size_t lane) {
    // With several lanes, each opts out of the shared parallel runtime's
    // worker fan-out: the pool supports one top-level caller, and inline
    // execution is bit-identical anyway (fixed-chunk contract).
    if (lanes > 1) parallel::ThreadPool::mark_inline();
    if (enable_obs && lane == 0) {
      auto& reg = obs::MetricsRegistry::instance();
      reg.set_enabled(true);
      reg.set_run_label("netpartd");
      // Long-running process: windowed percentiles per pipeline phase.
      reg.configure_rolling(window_ms, 6);
      reg.set_rolling_spans(true);
    }
  });
  started_ = true;
  return true;
}

bool Server::install_signal_handlers(std::string& error) {
  if (g_signal_pipe[0] < 0) {
    if (::pipe(g_signal_pipe) < 0) {
      error = std::string("pipe: ") + std::strerror(errno);
      return false;
    }
    set_nonblocking(g_signal_pipe[0]);
    set_nonblocking(g_signal_pipe[1]);
  }
  struct sigaction sa{};
  sa.sa_handler = netpartd_signal_handler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESTART;
  if (::sigaction(SIGTERM, &sa, nullptr) < 0 ||
      ::sigaction(SIGINT, &sa, nullptr) < 0) {
    error = std::string("sigaction: ") + std::strerror(errno);
    return false;
  }
  return true;
}

void Server::request_stop() {
  stop_requested_.store(true, std::memory_order_relaxed);
  if (wake_pipe_[1] >= 0) {
    const char byte = 1;
    [[maybe_unused]] const ssize_t n = ::write(wake_pipe_[1], &byte, 1);
  }
}

void Server::run() {
  io_loop();

  // Drain: no new frames arrive (poll loop exited, listen fds about to
  // close); everything already queued still gets its answer.
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (tcp_listen_fd_ >= 0) {
    ::close(tcp_listen_fd_);
    tcp_listen_fd_ = -1;
  }
  pool_.drain_and_join();
  conns_.clear();  // destructors close the fds
  if (options_.socket_path[0] != '@') ::unlink(options_.socket_path.c_str());
}

void Server::io_loop() {
  std::vector<pollfd> fds;
  while (!stop_requested_.load(std::memory_order_relaxed)) {
    fds.clear();
    fds.push_back({listen_fd_, POLLIN, 0});
    fds.push_back({wake_pipe_[0], POLLIN, 0});
    fds.push_back({g_signal_pipe[0] >= 0 ? g_signal_pipe[0] : -1, POLLIN, 0});
    fds.push_back({tcp_listen_fd_ >= 0 ? tcp_listen_fd_ : -1, POLLIN, 0});
    const std::size_t first_conn = fds.size();
    for (const auto& conn : conns_)
      fds.push_back({conn->fd, POLLIN, 0});

    const int n = ::poll(fds.data(), static_cast<nfds_t>(fds.size()), 200);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }

    if (options_.idle_timeout_ms > 0) {
      const std::int32_t evicted = sessions_.evict_idle(
          steady_now_ms(), options_.idle_timeout_ms);
      if (evicted > 0) {
        sessions_evicted_.fetch_add(evicted, std::memory_order_relaxed);
        NETPART_COUNTER_ADD("server.sessions_evicted", evicted);
        obs::FlightRecorder::instance().note("sessions.evicted", evicted);
      }
    }
    if (n == 0) continue;

    if (fds[0].revents & POLLIN) accept_ready(listen_fd_, /*tcp=*/false);
    if (fds[1].revents & POLLIN) {
      char buf[64];
      while (::read(wake_pipe_[0], buf, sizeof(buf)) > 0) {
      }
    }
    if (fds[2].revents & POLLIN) {
      char buf[64];
      while (::read(g_signal_pipe[0], buf, sizeof(buf)) > 0) {
      }
      request_stop();
    }
    if (fds[3].revents & POLLIN) accept_ready(tcp_listen_fd_, /*tcp=*/true);

    for (std::size_t i = first_conn; i < fds.size(); ++i) {
      const auto& conn = conns_[i - first_conn];
      if (fds[i].revents & (POLLIN | POLLHUP | POLLERR))
        handle_readable(conn);
    }
    std::erase_if(conns_, [](const std::shared_ptr<Conn>& c) {
      return c->closed.load(std::memory_order_relaxed);
    });
  }
}

void Server::accept_ready(int listen_fd, bool tcp) {
  while (true) {
    // SOCK_NONBLOCK is load-bearing: write_response's bounded EAGAIN/poll
    // budget (stall eviction) only engages on a nonblocking fd — a blocking
    // ::send to a stalled peer would wedge a lane (or the I/O thread, which
    // writes parse-error/shed responses directly) indefinitely.
    const int fd = ::accept4(listen_fd, nullptr, nullptr,
                             SOCK_CLOEXEC | SOCK_NONBLOCK);
    if (fd < 0) return;  // EAGAIN/EMFILE/...: try again next poll round
    if (tcp) set_tcp_nodelay(fd);
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    NETPART_COUNTER_ADD("server.connections", 1);
    conns_.push_back(std::make_shared<Conn>(fd));
  }
}

void Server::handle_readable(const std::shared_ptr<Conn>& conn) {
  char buf[65536];
  const ssize_t n = ::read(conn->fd, buf, sizeof(buf));
  if (n <= 0) {
    if (n < 0 && (errno == EAGAIN || errno == EINTR)) return;
    conn->closed.store(true, std::memory_order_relaxed);
    return;
  }
  conn->inbuf.append(buf, static_cast<std::size_t>(n));
  // StageClock origin for every frame completed by this read: the moment
  // the bytes left the socket.  Stamped once — frames batched in one read
  // share it, which only inflates their parse stage by sub-microseconds.
  const std::int64_t read_ns = obs::StageClock::now_ns();

  const auto reject_oversized = [this, &conn] {
    // An over-long line can never be trusted to resync; refuse and hang up.
    rejected_oversized_.fetch_add(1, std::memory_order_relaxed);
    NETPART_COUNTER_ADD("server.rejected_oversized", 1);
    write_response(conn,
                   error_response(-1, "frame_too_large",
                                  "request line exceeds max_frame_bytes"),
                   /*ok=*/false);
    conn->closed.store(true, std::memory_order_relaxed);
  };

  std::size_t start = 0;
  while (!conn->closed.load(std::memory_order_relaxed)) {
    const std::size_t nl = conn->inbuf.find('\n', start);
    if (nl == std::string::npos) break;
    if (nl - start > options_.max_frame_bytes) {
      reject_oversized();
      break;
    }
    std::string_view line(conn->inbuf.data() + start, nl - start);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (!line.empty()) process_line(conn, line, read_ns);
    start = nl + 1;
  }
  conn->inbuf.erase(0, start);

  // A partial line already past the limit can never complete legally.
  if (!conn->closed.load(std::memory_order_relaxed) &&
      conn->inbuf.size() > options_.max_frame_bytes) {
    reject_oversized();
  }
}

void Server::process_line(const std::shared_ptr<Conn>& conn,
                          std::string_view line, std::int64_t read_ns) {
  Request req;
  std::string error;
  // Parse failures still echo a recovered trace_id (the parser decodes it
  // before the op, exactly as it recovers the id) so failed requests stay
  // attributable in client-side traces.
  const auto reject = [&](const char* code) {
    parse_errors_.fetch_add(1, std::memory_order_relaxed);
    NETPART_COUNTER_ADD("server.parse_errors", 1);
    std::string response = error_response(req.id, code, error);
    splice_trace_id(response, req.trace_id);
    write_response(conn, std::move(response), /*ok=*/false);
  };
  switch (parse_request(line, req, error)) {
    case ParseResult::kOk:
      break;
    case ParseResult::kMalformed:
      reject("parse_error");
      return;
    case ParseResult::kInvalid:
      reject("bad_request");
      return;
    case ParseResult::kUnknownOp:
      reject("unknown_op");
      return;
  }
  requests_total_.fetch_add(1, std::memory_order_relaxed);
  NETPART_COUNTER_ADD("server.requests", 1);
  enqueue(conn, std::move(req), static_cast<std::int64_t>(line.size()),
          read_ns);
}

runtime::RequestClass Server::classify(const Request& req) {
  switch (req.op) {
    case Op::kLoad:
      // The first half of every cold run: building the session that the
      // cold partition will then solve.  Shedding it before the work
      // starts is the whole point of the cold class.
      return runtime::RequestClass::kCold;
    case Op::kPartition:
    case Op::kRepartition:
      break;
    default:
      // Control-plane ops answer in microseconds.
      return runtime::RequestClass::kHit;
  }
  const auto s = sessions_.find(req.session, steady_now_ms());
  if (!s) return runtime::RequestClass::kHit;  // cheap `no_session` error
  const std::uint8_t flags = s->stat_flags.load(std::memory_order_relaxed);
  if (flags & ServerSession::kStatPrimed) {
    // Pending edits: an incremental ECO repartition; none: a replay of the
    // held answer.
    return (flags & ServerSession::kStatPendingEdits)
               ? runtime::RequestClass::kWarm
               : runtime::RequestClass::kHit;
  }
  // Unprimed: a result-cache hit still serves in microseconds.
  if (req.use_cache &&
      cache_.contains(CacheKey{
          s->admission_hash.load(std::memory_order_relaxed), config_hash_}))
    return runtime::RequestClass::kHit;
  return runtime::RequestClass::kCold;
}

void Server::enqueue(const std::shared_ptr<Conn>& conn, Request req,
                     std::int64_t wire_bytes, std::int64_t read_ns) {
  if (stop_requested_.load(std::memory_order_relaxed)) {
    std::string response =
        error_response(req.id, "shutting_down", "server is draining");
    splice_trace_id(response, req.trace_id);
    write_response(conn, std::move(response), /*ok=*/false);
    return;
  }
  auto item = std::make_shared<QueueItem>();
  item->conn = conn;
  item->wire_bytes = wire_bytes;
  item->enqueue_ms = steady_now_ms();
  item->clock.start(read_ns);
  item->clock.mark(obs::Stage::kParse);
  const std::int64_t effective_timeout =
      req.timeout_ms > 0 ? req.timeout_ms : options_.default_timeout_ms;
  if (effective_timeout > 0)
    item->deadline_ms = item->enqueue_ms + effective_timeout;
  item->req = std::move(req);
  if (item->req.trace_hi != 0 || item->req.trace_lo != 0) {
    item->trace.trace_hi = item->req.trace_hi;
    item->trace.trace_lo = item->req.trace_lo;
    item->trace.parent_span = item->req.parent_span;
    item->trace.span_id = obs::generate_span_id();
  }

  item->cls = classify(item->req);
  const bool shed = !admission_.try_admit(item->cls);
  item->clock.mark(obs::Stage::kAdmission);
  if (shed) {
    rejected_overload_.fetch_add(1, std::memory_order_relaxed);
    NETPART_COUNTER_ADD("server.rejected_overload", 1);
    if (item->cls == runtime::RequestClass::kCold)
      NETPART_COUNTER_ADD("server.shed_cold", 1);
    if (item->cls == runtime::RequestClass::kWarm)
      NETPART_COUNTER_ADD("server.shed_warm", 1);
    item->outcome = obs::FlightOutcome::kShed;
    finish(*item, overloaded_response(item->req.id, item->cls,
                                      admission_.retry_after_ms(item->cls)));
    return;
  }

  const std::size_t lane = runtime::ExecutorPool::lane_for_session(
      item->req.session, pool_.lanes());
  item->lane = static_cast<std::int32_t>(lane);
  NETPART_GAUGE_SET("server.queue_depth",
                    static_cast<double>(pool_.total_depth() + 1));
  pool_.submit(lane, [this, item] { handle_item(*item); });
}

void Server::handle_item(QueueItem& item) {
  item.begin_ms = steady_now_ms();
  item.clock.mark(obs::Stage::kQueue);
  admission_.on_start(item.cls);
  const double queue_wait_ms =
      static_cast<double>(item.begin_ms - item.enqueue_ms);
  NETPART_HISTOGRAM_RECORD("server.queue_wait_ms", queue_wait_ms);
  {
    // Per-class and per-lane queue-wait windows: the decomposition that
    // shows *where* admission backpressure lands, not just that it exists.
    const std::lock_guard<std::mutex> lock(telemetry_mutex_);
    class_queue_wait_[static_cast<std::size_t>(item.cls)].record(
        queue_wait_ms, item.begin_ms);
    const auto lane = static_cast<std::size_t>(item.lane);
    if (lane < lane_queue_wait_.size())
      lane_queue_wait_[lane].record(queue_wait_ms, item.begin_ms);
    if (item.trace.valid())
      offer_exemplar(class_queue_exemplar_[static_cast<std::size_t>(item.cls)],
                     queue_wait_ms, item.req.trace_id);
  }
  if (item.deadline_ms > 0 && item.begin_ms > item.deadline_ms) {
    rejected_deadline_.fetch_add(1, std::memory_order_relaxed);
    NETPART_COUNTER_ADD("server.rejected_deadline", 1);
    admission_.on_finish(item.cls, 0.0);
    item.end_ms = item.begin_ms;
    item.outcome = obs::FlightOutcome::kDeadline;
    finish(item, error_response(item.req.id, "deadline_exceeded",
                                "request expired while queued"));
    return;
  }
  // The in-flight marker: if the process dies inside dispatch, the
  // post-mortem's newest record for this trace still says "running".
  obs::FlightRecorder::instance().record(flight_record(item));

  // Per-request observation windows (trace/events) splice registry-wide
  // state into one response; that is only coherent when a single lane runs
  // all compute, so a multi-lane pool serves these requests without the
  // extra arrays (documented in docs/SERVER.md).
  const bool single_lane = pool_.lanes() == 1;
  const bool trace = item.req.trace && single_lane;
  // `events:true`: arm the convergence-event ring for this request only.
  // One lane runs requests strictly serially, so everything drained below
  // was emitted by this request's compute.
  const bool events = item.req.events && single_lane;
  auto& event_ring = obs::EventRing::instance();
  if (events) event_ring.arm();
  auto& reg = obs::MetricsRegistry::instance();
  // A traced request gets a private observation window: reset, run,
  // snapshot.  This clears the registry's cumulative window (rolling phase
  // histograms included) — documented in docs/SERVER.md as the cost of
  // per-request traces.
  if (trace && reg.enabled()) reg.reset();

  std::string response = dispatch(item);
  item.clock.mark(obs::Stage::kExecute);

  if (trace && reg.enabled()) {
    const obs::MetricsSnapshot snap = reg.snapshot();
    std::string trace_json;
    if (item.req.trace_format == "chrome") {
      // A traced *and* trace-context-carrying request also gets its own
      // stage decomposition as a real timeline thread in the Chrome trace,
      // keyed by the same trace_id as everything else.
      std::vector<obs::RequestStageEvent> stage_events;
      if (item.trace.valid()) {
        const auto stages = stage_spans(item.clock);
        for (std::size_t i = 0;
             i <= static_cast<std::size_t>(obs::Stage::kExecute); ++i)
          stage_events.push_back(
              {stages[i].name, stages[i].begin_us, stages[i].us});
      }
      trace_json = obs::to_chrome_trace(snap, "netpart", item.req.trace_id,
                                        stage_events);
    } else {
      trace_json = snap.to_json();
    }
    append_member(response, "trace", trace_json);
  }

  if (events) {
    event_ring.disarm();
    append_member(response, "events", event_ring.drain_json_array());
    append_member(response, "events_recorded",
                  std::to_string(event_ring.recorded()));
    append_member(response, "events_dropped",
                  std::to_string(event_ring.dropped()));
  }

  // Serialize stage: the trace/events splices above plus the trace-context
  // envelope below.  The response carries durations through `serialize`;
  // `write` completes after the line is on the wire and lands in the
  // access log and flight recorder only.
  item.clock.mark(obs::Stage::kSerialize);
  if (item.trace.valid()) {
    response.pop_back();
    response += ",\"trace_id\":\"";
    response += item.req.trace_id;
    response += "\",\"span_id\":\"";
    response += obs::format_span_id(item.trace.span_id);
    response += '"';
    if (item.trace.parent_span != 0) {
      response += ",\"parent_span_id\":\"";
      response += obs::format_span_id(item.trace.parent_span);
      response += '"';
    }
    response += ",\"stages_us\":{";
    const auto stages = stage_spans(item.clock);
    for (std::size_t i = 0;
         i <= static_cast<std::size_t>(obs::Stage::kSerialize); ++i) {
      if (i != 0) response += ',';
      response += '"';
      response += stages[i].name;
      response += "\":";
      response += std::to_string(stages[i].us);
    }
    response += "}}";
  }

  item.end_ms = steady_now_ms();
  const double exec_ms = static_cast<double>(item.end_ms - item.begin_ms);
  admission_.on_finish(item.cls, exec_ms);
  NETPART_HISTOGRAM_RECORD("server.handle_ms", exec_ms);
  NETPART_ROLLING_RECORD("server.request_ms", exec_ms);
  {
    const std::lock_guard<std::mutex> lock(telemetry_mutex_);
    op_latency_
        .try_emplace(item.req.op_name,
                     obs::RollingConfig{options_.latency_window_ms, 6})
        .first->second.record(exec_ms, item.end_ms);
    all_latency_.record(exec_ms, item.end_ms);
    class_latency_[static_cast<std::size_t>(item.cls)].record(exec_ms,
                                                              item.end_ms);
    const auto lane = static_cast<std::size_t>(item.lane);
    if (lane < lane_execute_.size())
      lane_execute_[lane].record(exec_ms, item.end_ms);
    if (item.trace.valid())
      offer_exemplar(class_latency_exemplar_[static_cast<std::size_t>(item.cls)],
                     exec_ms, item.req.trace_id);
  }
  sample_process_gauges(item.end_ms);

  item.outcome = item.ok ? obs::FlightOutcome::kOk : obs::FlightOutcome::kError;
  finish(item, std::move(response));
}

void Server::finish(QueueItem& item, std::string response) {
  // Requests that never ran (sheds, deadline misses) echo only the
  // trace_id; executed ones already carry the full envelope.
  const bool executed = item.outcome == obs::FlightOutcome::kOk ||
                        item.outcome == obs::FlightOutcome::kError;
  if (!executed) splice_trace_id(response, item.req.trace_id);
  item.bytes_out = static_cast<std::int64_t>(response.size());
  write_response(item.conn, std::move(response), item.ok);
  item.clock.mark(obs::Stage::kWrite);
  obs::FlightRecorder::instance().record(flight_record(item));
  // The access log has one line per request that reached a lane.
  if (item.outcome != obs::FlightOutcome::kShed) log_request(item);
}

obs::FlightRecord Server::flight_record(const QueueItem& item) {
  obs::FlightRecord rec;
  rec.trace_hi = item.trace.trace_hi;
  rec.trace_lo = item.trace.trace_lo;
  rec.span_id = item.trace.span_id;
  rec.request_id = item.req.id;
  rec.wall_ms = wall_now_ms();
  rec.lane = item.lane;
  rec.cls = static_cast<std::uint8_t>(item.cls);
  rec.outcome = static_cast<std::uint8_t>(item.outcome);
  rec.set_op(item.req.op_name.c_str());
  const auto stages = stage_spans(item.clock);
  for (std::size_t i = 0; i < obs::kNumStages; ++i) {
    rec.stage_us[i] = static_cast<std::int32_t>(std::min<std::int64_t>(
        stages[i].us, std::numeric_limits<std::int32_t>::max()));
  }
  return rec;
}

void Server::offer_exemplar(Exemplar& ex, double value,
                            const std::string& trace_id) const {
  const std::int64_t now = wall_now_ms();
  const bool stale =
      ex.value < 0 || now - ex.ts_ms > options_.latency_window_ms;
  if (!stale && value < ex.value) return;
  ex.value = value;
  ex.ts_ms = now;
  ex.trace_id = trace_id;
}

void Server::log_request(const QueueItem& item) {
  const std::int64_t exec_ms = item.end_ms - item.begin_ms;
  const bool slow = options_.slow_ms > 0 && exec_ms >= options_.slow_ms;
  if (!access_log_.is_open() && !slow) return;

  std::string line = "{\"ts_ms\":";
  line += std::to_string(wall_now_ms());
  line += ",\"op\":\"";
  line += obs::json_escape(item.req.op_name);
  line += "\",\"id\":";
  line += item.req.id >= 0 ? std::to_string(item.req.id) : "null";
  line += ",\"session\":\"";
  line += obs::json_escape(item.req.session);
  line += "\",\"ok\":";
  line += item.ok ? "true" : "false";
  line += ",\"outcome\":\"";
  line += item.outcome == obs::FlightOutcome::kDeadline ? "deadline_exceeded"
          : item.ok                                      ? "ok"
                                                         : "error";
  line += "\",\"class\":\"";
  line += runtime::class_name(item.cls);
  line += "\",\"bytes_in\":";
  line += std::to_string(item.wire_bytes);
  line += ",\"bytes_out\":";
  line += std::to_string(item.bytes_out);
  line += ",\"queue_ms\":";
  line += std::to_string(item.begin_ms - item.enqueue_ms);
  line += ",\"exec_ms\":";
  line += std::to_string(exec_ms);
  line += ",\"cache_hit\":";
  line += item.cache_hit ? "true" : "false";
  line += ",\"deadline_slack_ms\":";
  line += item.deadline_ms > 0 ? std::to_string(item.deadline_ms - item.end_ms)
                               : std::string("null");
  line += ",\"slow\":";
  line += slow ? "true" : "false";
  // Tracing fields are appended after every pre-existing key (old
  // consumers index by name, nothing was renamed).  `*_us` durations come
  // from the StageClock; `total_us` spans frame-read to post-write.
  line += ",\"trace_id\":";
  if (item.trace.valid()) {
    line += '"';
    line += item.req.trace_id;
    line += "\",\"span_id\":\"";
    line += obs::format_span_id(item.trace.span_id);
    line += '"';
  } else {
    line += "null,\"span_id\":null";
  }
  line += ",\"lane\":";
  line += std::to_string(item.lane);
  for (const StageSpan& stage : stage_spans(item.clock)) {
    line += ",\"";
    line += stage.name;
    line += "_us\":";
    line += std::to_string(stage.us);
  }
  line += ",\"total_us\":";
  line += std::to_string(item.clock.total_us());
  line += '}';

  {
    const std::lock_guard<std::mutex> lock(telemetry_mutex_);
    if (access_log_.is_open()) {
      access_log_ << line << '\n';
      access_log_.flush();  // tests and tail -f read the log while we serve
    }
  }
  if (slow) std::fprintf(stderr, "netpartd slow request: %s\n", line.c_str());
}

void Server::sample_process_gauges(std::int64_t now_ms) {
  // Lanes race for the sample; the CAS elects exactly one per second.
  std::int64_t last = last_gauge_sample_ms_.load(std::memory_order_relaxed);
  if (last != 0 && now_ms - last < 1000) return;
  if (!last_gauge_sample_ms_.compare_exchange_strong(
          last, now_ms, std::memory_order_relaxed))
    return;
#if defined(__linux__)
  if (FILE* f = std::fopen("/proc/self/statm", "r")) {
    long total_pages = 0;
    long resident_pages = 0;
    if (std::fscanf(f, "%ld %ld", &total_pages, &resident_pages) == 2) {
      const long page = ::sysconf(_SC_PAGESIZE);
      const std::int64_t rss =
          static_cast<std::int64_t>(resident_pages) * page;
      rss_bytes_.store(rss, std::memory_order_relaxed);
      NETPART_GAUGE_SET("server.rss_bytes", static_cast<double>(rss));
    }
    std::fclose(f);
  }
#endif
  NETPART_GAUGE_SET("server.queue_depth",
                    static_cast<double>(pool_.total_depth()));
}

std::string Server::dispatch(QueueItem& item) {
  const Request& req = item.req;
  const char* code = "internal";
  std::string message = "unhandled op";
  try {
    item.ok = true;
    switch (req.op) {
      case Op::kPing:
        return do_ping(req);
      case Op::kLoad:
        return do_load(req);
      case Op::kPartition:
      case Op::kRepartition:
        return do_partition(req, item.cache_hit);
      case Op::kEdit:
        return do_edit(req);
      case Op::kUnload:
        return do_unload(req);
      case Op::kSessions:
        return do_sessions(req);
      case Op::kMetrics:
        return do_metrics(req);
      case Op::kStats:
        return do_stats(req);
      case Op::kProfile:
        return do_profile(req);
      case Op::kDebug:
        return do_debug(req);
      case Op::kSleep:
        return do_sleep(req);
      case Op::kShutdown:
        return do_shutdown(req);
    }
  } catch (const RequestError& e) {
    code = e.code;
    message = e.what();
  } catch (const io::ParseError& e) {
    code = "parse_error";
    message = e.what();
  } catch (const std::invalid_argument& e) {
    code = "bad_request";
    message = e.what();
  } catch (const std::out_of_range& e) {
    code = "bad_request";
    message = e.what();
  } catch (const std::exception& e) {
    message = e.what();
  }
  item.ok = false;
  return error_response(req.id, code, message);
}

std::string Server::do_ping(const Request& req) {
  return std::move(ResponseBuilder(req.id, true).add_string("op", "ping"))
      .finish();
}

std::string Server::do_load(const Request& req) {
  NETPART_SPAN("server.load");
  Hypergraph h;
  if (!req.circuit.empty()) {
    h = make_benchmark(req.circuit).hypergraph;
  } else if (!req.path.empty()) {
    try {
      h = io::read_hgr_file(req.path);
    } catch (const io::ParseError&) {
      throw;
    } catch (const std::runtime_error& e) {
      // The file could not be opened or read: the client named a bad path.
      throw RequestError("bad_request", e.what());
    }
  } else {
    h = io::read_hgr(req.hgr);
  }
  const std::uint64_t hash = netlist_content_hash(h);
  const std::int32_t modules = h.num_modules();
  const std::int32_t nets = h.num_nets();
  sessions_.create(req.session, h, hash, options_.repartition,
                   steady_now_ms());
  NETPART_COUNTER_ADD("server.loads", 1);
  return std::move(ResponseBuilder(req.id, true)
                       .add_string("session", req.session)
                       .add_int("modules", modules)
                       .add_int("nets", nets)
                       .add_string("hash", format_content_hash(hash)))
      .finish();
}

void Server::add_result_fields(ResponseBuilder& rb,
                               const repart::RepartitionResult& r) {
  rb.add_int("cut", r.nets_cut)
      .add_double("ratio", r.ratio)
      .add_double("lambda2", r.lambda2)
      .add_bool("eigen_converged", r.eigen_converged)
      .add_int("lanczos_iterations", r.lanczos_iterations)
      .add_bool("warm_started", r.warm_started)
      .add_string("assignment", assignment_string(r.partition));
}

std::string Server::do_partition(const Request& req, bool& cache_hit) {
  NETPART_SPAN("server.partition");
  const auto s = sessions_.find(req.session, steady_now_ms());
  if (!s) {
    throw RequestError("no_session",
                       "unknown session '" + req.session + "'");
  }

  // Idempotent repeat: the session already holds the answer for its
  // current netlist.
  if (s->primed && !s->pending_edits) {
    ResponseBuilder rb(req.id, true);
    rb.add_string("session", s->name)
        .add_string("served_from", "session")
        .add_bool("cached", false);
    add_result_fields(rb, s->last);
    rb.add_string("hash", format_content_hash(s->netlist_hash));
    return std::move(rb).finish();
  }

  // Cache lookup: only sound for an unprimed session with no pending
  // edits — i.e. exactly the cold-run-as-pure-function case.
  if (!s->primed && !s->pending_edits && req.use_cache &&
      cache_.capacity() > 0) {
    const CacheKey key{s->netlist_hash, config_hash_};
    if (const auto hit = cache_.find(key)) {
      NETPART_COUNTER_ADD("server.cache_hits", 1);
      cache_hit = true;
      s->session.import_warm_state(hit->warm);
      s->last = hit->result;
      s->primed = true;
      s->publish_mirrors();
      ResponseBuilder rb(req.id, true);
      rb.add_string("session", s->name)
          .add_string("served_from", "cache")
          .add_bool("cached", true);
      add_result_fields(rb, s->last);
      rb.add_string("hash", format_content_hash(s->netlist_hash));
      return std::move(rb).finish();
    }
    NETPART_COUNTER_ADD("server.cache_misses", 1);
  }

  const repart::RepartitionResult r = s->session.repartition();
  const bool had_edits = s->pending_edits;
  s->last = r;
  s->primed = true;
  s->pending_edits = false;
  if (had_edits)
    s->netlist_hash = netlist_content_hash(s->session.hypergraph());
  s->publish_mirrors();

  // Memoize cold runs only: a cold result (and its warm state) is a pure
  // function of (netlist content, config); warm ECO results are
  // history-dependent (see result_cache.hpp).
  if (!r.warm_started && req.use_cache && cache_.capacity() > 0) {
    cache_.insert(CacheKey{s->netlist_hash, config_hash_},
                  CachedResult{r, s->session.export_warm_state()});
  }

  ResponseBuilder rb(req.id, true);
  rb.add_string("session", s->name)
      .add_string("served_from", "compute")
      .add_bool("cached", false);
  add_result_fields(rb, r);
  rb.add_string("hash", format_content_hash(s->netlist_hash));
  return std::move(rb).finish();
}

std::string Server::do_edit(const Request& req) {
  NETPART_SPAN("server.edit");
  const auto s = sessions_.find(req.session, steady_now_ms());
  if (!s) {
    throw RequestError("no_session",
                       "unknown session '" + req.session + "'");
  }
  std::istringstream in(req.script);
  const repart::EditScript script = repart::read_edit_script(in);
  std::int64_t ops = 0;
  try {
    for (const auto& batch : script.batches) {
      if (batch.empty()) continue;
      // Any op may have landed before a failure below, so flag first: the
      // session must not serve a stale `last` after a half-applied batch.
      s->pending_edits = true;
      s->publish_mirrors();
      s->applier.apply(batch);
      ops += static_cast<std::int64_t>(batch.size());
    }
    // Republish: the loop publishes before each apply, so the off-lane
    // module/net mirrors are one batch stale until this.
    s->publish_mirrors();
  } catch (...) {
    s->publish_mirrors();
    throw;
  }
  NETPART_COUNTER_ADD("server.edits", ops);
  return std::move(ResponseBuilder(req.id, true)
                       .add_string("session", s->name)
                       .add_int("batches",
                                static_cast<std::int64_t>(script.batches.size()))
                       .add_int("ops", ops)
                       .add_int("modules", s->session.netlist().num_modules())
                       .add_int("nets", s->session.netlist().num_nets()))
      .finish();
}

std::string Server::do_unload(const Request& req) {
  const bool existed = sessions_.erase(req.session);
  return std::move(ResponseBuilder(req.id, true)
                       .add_string("session", req.session)
                       .add_bool("existed", existed))
      .finish();
}

std::string Server::do_sessions(const Request& req) {
  // Sessionless op: runs on lane 0 while other lanes may be mutating their
  // sessions, so read only the atomic mirrors published by the owning lane
  // (never the hypergraph or the lane-owned bools).
  std::string arr = "[";
  bool first = true;
  for (const auto& s : sessions_.snapshot()) {
    const std::uint8_t flags = s->stat_flags.load(std::memory_order_relaxed);
    if (!first) arr += ',';
    first = false;
    arr += "{\"name\":\"";
    arr += obs::json_escape(s->name);
    arr += "\",\"modules\":";
    arr += std::to_string(s->stat_modules.load(std::memory_order_relaxed));
    arr += ",\"nets\":";
    arr += std::to_string(s->stat_nets.load(std::memory_order_relaxed));
    arr += ",\"primed\":";
    arr += (flags & ServerSession::kStatPrimed) ? "true" : "false";
    arr += ",\"pending_edits\":";
    arr += (flags & ServerSession::kStatPendingEdits) ? "true" : "false";
    arr += '}';
  }
  arr += ']';
  return std::move(ResponseBuilder(req.id, true).add_raw("sessions", arr))
      .finish();
}

std::string Server::do_metrics(const Request& req) {
  const ServerStatsSnapshot st = stats();
  ResponseBuilder rb(req.id, true);
  rb.add_int("connections_accepted", st.connections_accepted)
      .add_int("requests_total", st.requests_total)
      .add_int("responses_ok", st.responses_ok)
      .add_int("responses_error", st.responses_error)
      .add_int("parse_errors", st.parse_errors)
      .add_int("rejected_overload", st.rejected_overload)
      .add_int("rejected_deadline", st.rejected_deadline)
      .add_int("rejected_oversized", st.rejected_oversized)
      .add_int("shed_hit", st.shed_hit)
      .add_int("shed_warm", st.shed_warm)
      .add_int("shed_cold", st.shed_cold)
      .add_int("write_failures", st.write_failures)
      .add_int("executor_lanes", st.executor_lanes)
      .add_int("cache_hits", st.cache_hits)
      .add_int("cache_misses", st.cache_misses)
      .add_int("cache_evictions", cache_.evictions())
      .add_int("cache_size", st.cache_size)
      .add_int("cache_capacity",
               static_cast<std::int64_t>(cache_.capacity()))
      .add_int("sessions_live", st.sessions_live)
      .add_int("sessions_evicted", st.sessions_evicted)
      .add_int("queue_depth", st.queue_depth)
      .add_int("queue_capacity",
               static_cast<std::int64_t>(options_.queue_capacity));
  if (obs::MetricsRegistry::instance().enabled()) {
    rb.add_raw("obs", obs::MetricsRegistry::instance().snapshot().to_json());
  }
  return std::move(rb).finish();
}

std::string Server::do_stats(const Request& req) {
  const std::int64_t now = steady_now_ms();
  const ServerStatsSnapshot st = stats();
  obs::HistogramEntry all;
  {
    const std::lock_guard<std::mutex> lock(telemetry_mutex_);
    all = all_latency_.merged(now);
  }

  const std::int64_t lookups = st.cache_hits + st.cache_misses;
  const double hit_rate =
      lookups > 0 ? static_cast<double>(st.cache_hits) /
                        static_cast<double>(lookups)
                  : 0.0;
  // Recent throughput: samples in the rolling window over the window span
  // (clamped to uptime so a fresh server is not under-reported).
  const std::int64_t window_span =
      std::min(all_latency_.window_ms(),
               std::max<std::int64_t>(st.uptime_ms, 1));
  const double qps = static_cast<double>(all.count) * 1000.0 /
                     static_cast<double>(window_span);

  const auto admission_class_json = [this](runtime::RequestClass c) {
    const runtime::ClassSnapshot snap = admission_.snapshot(c);
    std::string out = "{\"admitted\":";
    out += std::to_string(snap.admitted);
    out += ",\"shed\":";
    out += std::to_string(snap.shed);
    out += ",\"occupancy\":";
    out += std::to_string(snap.occupancy);
    out += ",\"cap\":";
    out += std::to_string(snap.cap);
    out += ",\"ema_ms\":";
    out += json_number(snap.ema_ms);
    out += '}';
    return out;
  };

  if (req.format == "prometheus") {
    // Synthesize a snapshot of the server's own telemetry.  Entries are
    // appended in sorted order — to_prometheus keeps snapshot order, so the
    // exposition is stable.
    obs::MetricsSnapshot synth;
    const auto counter = [&synth](const std::string& name, std::int64_t v) {
      synth.counters.push_back({name, v});
    };
    counter("cache_hits", st.cache_hits);
    counter("cache_misses", st.cache_misses);
    counter("connections", st.connections_accepted);
    for (std::size_t i = 0; i < st.lanes.size(); ++i)
      counter("lane_executed." + std::to_string(i), st.lanes[i].executed);
    counter("parse_errors", st.parse_errors);
    counter("rejected_deadline", st.rejected_deadline);
    counter("rejected_overload", st.rejected_overload);
    counter("rejected_oversized", st.rejected_oversized);
    counter("requests", st.requests_total);
    counter("responses_error", st.responses_error);
    counter("responses_ok", st.responses_ok);
    counter("sessions_evicted", st.sessions_evicted);
    counter("shed_cold", st.shed_cold);
    counter("shed_hit", st.shed_hit);
    counter("shed_warm", st.shed_warm);
    counter("write_failures", st.write_failures);
    const auto gauge = [&synth](const std::string& name, double v) {
      synth.gauges.push_back({name, v});
    };
    gauge("cache_size", static_cast<double>(st.cache_size));
    gauge("executor_lanes", static_cast<double>(st.executor_lanes));
    for (std::size_t i = 0; i < st.lanes.size(); ++i) {
      gauge("lane_busy." + std::to_string(i), st.lanes[i].busy ? 1.0 : 0.0);
      gauge("lane_queue_depth." + std::to_string(i),
            static_cast<double>(st.lanes[i].queue_depth));
    }
    gauge("queue_capacity", static_cast<double>(options_.queue_capacity));
    gauge("queue_depth", static_cast<double>(st.queue_depth));
    gauge("rss_bytes", static_cast<double>(st.rss_bytes));
    gauge("sessions_live", static_cast<double>(st.sessions_live));
    gauge("uptime_seconds", static_cast<double>(st.uptime_ms) / 1000.0);
    const auto rolling = [&synth, now](std::string name,
                                       const obs::RollingHistogram& hist,
                                       const Exemplar* ex) {
      obs::RollingEntry entry;
      entry.name = std::move(name);
      entry.window_ms = hist.window_ms();
      entry.window = hist.merged(now);
      if (ex != nullptr && ex->value >= 0) {
        entry.exemplar_trace_id = ex->trace_id;
        entry.exemplar_value = ex->value;
        entry.exemplar_ts_ms = ex->ts_ms;
      }
      synth.rolling.push_back(std::move(entry));
    };
    {
      const std::lock_guard<std::mutex> lock(telemetry_mutex_);
      for (std::size_t i = 0; i < class_latency_.size(); ++i)
        rolling(std::string("class_latency_ms.") + class_label(i),
                class_latency_[i], &class_latency_exemplar_[i]);
      for (std::size_t i = 0; i < class_queue_wait_.size(); ++i)
        rolling(std::string("class_queue_wait_ms.") + class_label(i),
                class_queue_wait_[i], &class_queue_exemplar_[i]);
      for (std::size_t i = 0; i < lane_execute_.size(); ++i)
        rolling("lane_execute_ms." + std::to_string(i), lane_execute_[i],
                nullptr);
      for (std::size_t i = 0; i < lane_queue_wait_.size(); ++i)
        rolling("lane_queue_wait_ms." + std::to_string(i),
                lane_queue_wait_[i], nullptr);
      for (const auto& [op_name, hist] : op_latency_)
        rolling("op_latency_ms." + op_name, hist, nullptr);
    }
    obs::RollingEntry overall;
    overall.name = "request_latency_ms";
    overall.window_ms = all_latency_.window_ms();
    overall.window = all;
    synth.rolling.push_back(std::move(overall));

    std::string body = obs::to_prometheus(synth, "netpartd");
    // The pipeline's own registry (phase timings, counters, rolling span
    // latencies) rides along under the distinct `netpart_` prefix.
    if (obs::MetricsRegistry::instance().enabled())
      body += obs::to_prometheus(obs::MetricsRegistry::instance().snapshot());
    return std::move(
               ResponseBuilder(req.id, true)
                   .add_string("format", "prometheus")
                   .add_string("content_type", "text/plain; version=0.0.4")
                   .add_string("body", body))
        .finish();
  }

  // One windowed-latency view per admission class, keyed by class name.
  const auto per_class_json =
      [now](const std::vector<obs::RollingHistogram>& hists) {
        std::string out = "{";
        for (std::size_t i = 0; i < hists.size(); ++i) {
          if (i > 0) out += ',';
          out += '"';
          out += class_label(i);
          out += "\":";
          out += latency_json(hists[i].merged(now), hists[i].window_ms());
        }
        return out + '}';
      };
  // One windowed-latency view per lane, in lane order.
  const auto per_lane_json =
      [now](const std::vector<obs::RollingHistogram>& hists) {
        std::string out = "[";
        for (std::size_t i = 0; i < hists.size(); ++i) {
          if (i > 0) out += ',';
          out += latency_json(hists[i].merged(now), hists[i].window_ms());
        }
        return out + ']';
      };
  std::string per_op = "{";
  std::string per_class;
  std::string per_class_queue;
  std::string lane_queue_arr;
  std::string lane_exec_arr;
  {
    const std::lock_guard<std::mutex> lock(telemetry_mutex_);
    bool first = true;
    for (const auto& [op_name, hist] : op_latency_) {
      if (!first) per_op += ',';
      first = false;
      per_op += '"';
      per_op += obs::json_escape(op_name);
      per_op += "\":";
      per_op += latency_json(hist.merged(now), hist.window_ms());
    }
    per_class = per_class_json(class_latency_);
    per_class_queue = per_class_json(class_queue_wait_);
    lane_queue_arr = per_lane_json(lane_queue_wait_);
    lane_exec_arr = per_lane_json(lane_execute_);
  }
  per_op += '}';

  std::string lanes_arr = "[";
  for (std::size_t i = 0; i < st.lanes.size(); ++i) {
    if (i > 0) lanes_arr += ',';
    lanes_arr += "{\"lane\":";
    lanes_arr += std::to_string(i);
    lanes_arr += ",\"queue_depth\":";
    lanes_arr += std::to_string(st.lanes[i].queue_depth);
    lanes_arr += ",\"busy\":";
    lanes_arr += st.lanes[i].busy ? "true" : "false";
    lanes_arr += ",\"executed\":";
    lanes_arr += std::to_string(st.lanes[i].executed);
    lanes_arr += '}';
  }
  lanes_arr += ']';

  // Admission is always on; `enabled` stays in the stats schema.
  std::string admission = "{\"enabled\":true,\"hit\":";
  admission += admission_class_json(runtime::RequestClass::kHit);
  admission += ",\"warm\":";
  admission += admission_class_json(runtime::RequestClass::kWarm);
  admission += ",\"cold\":";
  admission += admission_class_json(runtime::RequestClass::kCold);
  admission += '}';

  ResponseBuilder rb(req.id, true);
  rb.add_int("uptime_ms", st.uptime_ms)
      .add_double("qps", qps)
      .add_int("requests_total", st.requests_total)
      .add_int("responses_ok", st.responses_ok)
      .add_int("responses_error", st.responses_error)
      .add_double("cache_hit_rate", hit_rate)
      .add_int("cache_hits", st.cache_hits)
      .add_int("cache_misses", st.cache_misses)
      .add_int("queue_depth", st.queue_depth)
      .add_int("queue_capacity",
               static_cast<std::int64_t>(options_.queue_capacity))
      .add_int("sessions_live", st.sessions_live)
      .add_int("rss_bytes", st.rss_bytes)
      .add_int("executor_lanes", st.executor_lanes)
      .add_int("write_failures", st.write_failures)
      .add_raw("lanes", lanes_arr)
      .add_raw("admission", admission)
      .add_raw("latency_ms", latency_json(all, all_latency_.window_ms()))
      .add_raw("class_latency_ms", per_class)
      .add_raw("class_queue_wait_ms", per_class_queue)
      .add_raw("lane_queue_wait_ms", lane_queue_arr)
      .add_raw("lane_execute_ms", lane_exec_arr)
      .add_raw("op_latency_ms", per_op);
  return std::move(rb).finish();
}

std::string Server::do_profile(const Request& req) {
  // The profiler's hot path is per-thread and lock-free, so controlling it
  // from a lane while compute runs elsewhere is safe; start/run/dump
  // sequences from one connection stay ordered by that session's lane.
  auto& profiler = obs::Profiler::instance();
  if (req.action == "start") {
    if (!profiler.start()) {
      throw RequestError("bad_request", "profiler is already running");
    }
    return std::move(ResponseBuilder(req.id, true)
                         .add_string("op", "profile")
                         .add_string("action", "start")
                         .add_bool("running", profiler.running()))
        .finish();
  }
  if (req.action == "stop") {
    profiler.stop();
    return std::move(ResponseBuilder(req.id, true)
                         .add_string("op", "profile")
                         .add_string("action", "stop")
                         .add_bool("running", false))
        .finish();
  }
  const obs::ProfileSnapshot snap = profiler.snapshot();
  ResponseBuilder rb(req.id, true);
  rb.add_string("op", "profile")
      .add_string("action", "dump")
      .add_bool("running", profiler.running())
      .add_int("samples", snap.total_samples)
      .add_int("unattributed", snap.unattributed_samples)
      .add_int("torn", snap.torn_samples)
      .add_int("dropped", snap.dropped_samples)
      .add_double("attribution", snap.attribution())
      .add_string("folded", snap.to_folded());
  return std::move(rb).finish();
}

std::string Server::do_debug(const Request& req) {
  // Read-only introspection: allowed without --debug-ops (unlike `sleep`,
  // which can wedge a lane).  `flightrec` drains the in-memory rings;
  // `postmortem` writes the same dump the crash handlers would, on demand.
  auto& recorder = obs::FlightRecorder::instance();
  if (req.action == "postmortem") {
    const std::string path = obs::FlightRecorder::postmortem_path();
    if (path.empty()) {
      throw RequestError("bad_request",
                         "no postmortem path configured (--postmortem)");
    }
    const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) {
      throw RequestError("internal",
                         std::string("cannot open postmortem file: ") +
                             std::strerror(errno));
    }
    const std::int64_t bytes = recorder.dump_to_fd(fd, 0);
    ::close(fd);
    if (bytes < 0) {
      throw RequestError("internal", "postmortem write failed");
    }
    return std::move(ResponseBuilder(req.id, true)
                         .add_string("op", "debug")
                         .add_string("action", "postmortem")
                         .add_string("path", path)
                         .add_int("bytes", bytes))
        .finish();
  }
  ResponseBuilder rb(req.id, true);
  rb.add_string("op", "debug")
      .add_string("action", "flightrec")
      .add_bool("enabled", recorder.enabled())
      .add_int("capacity", static_cast<std::int64_t>(recorder.capacity()))
      .add_int("recorded", static_cast<std::int64_t>(recorder.recorded()))
      .add_int("overwritten",
               static_cast<std::int64_t>(recorder.overwritten()))
      .add_raw("records", recorder.records_to_json())
      .add_raw("notes", recorder.notes_to_json());
  return std::move(rb).finish();
}

std::string Server::do_sleep(const Request& req) {
  if (!options_.enable_debug_ops) {
    throw RequestError("bad_request",
                       "debug ops are disabled on this server");
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(req.sleep_ms));
  return std::move(
             ResponseBuilder(req.id, true).add_int("slept_ms", req.sleep_ms))
      .finish();
}

std::string Server::do_shutdown(const Request& req) {
  request_stop();
  return std::move(ResponseBuilder(req.id, true)
                       .add_string("op", "shutdown")
                       .add_bool("draining", true))
      .finish();
}

void Server::write_response(const std::shared_ptr<Conn>& conn,
                            std::string line, bool ok) {
  (ok ? responses_ok_ : responses_error_)
      .fetch_add(1, std::memory_order_relaxed);

  if (conn->closed.load(std::memory_order_relaxed)) return;
  line.push_back('\n');
  const std::lock_guard<std::mutex> lock(conn->write_mutex);
  std::size_t sent = 0;
  int stalled_polls = 0;
  while (sent < line.size()) {
    const ssize_t n = ::send(conn->fd, line.data() + sent, line.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // Full socket buffer (accepted fds are nonblocking).  Wait for
        // writability with a bounded total budget — a client that never
        // drains gets evicted, not spun on.
        if (++stalled_polls > 50) {
          write_failures_.fetch_add(1, std::memory_order_relaxed);
          NETPART_COUNTER_ADD("server.write_failures", 1);
          std::fprintf(stderr,
                       "netpartd: dropping stalled connection fd=%d "
                       "(%zu/%zu bytes unsent)\n",
                       conn->fd, line.size() - sent, line.size());
          conn->closed.store(true, std::memory_order_relaxed);
          return;
        }
        pollfd pfd{conn->fd, POLLOUT, 0};
        ::poll(&pfd, 1, 100);
        continue;
      }
      // EPIPE/ECONNRESET and friends: the peer is gone.  Log and evict —
      // the I/O loop reaps the closed connection on its next pass.
      write_failures_.fetch_add(1, std::memory_order_relaxed);
      NETPART_COUNTER_ADD("server.write_failures", 1);
      std::fprintf(stderr, "netpartd: write to fd=%d failed: %s\n", conn->fd,
                   std::strerror(errno));
      conn->closed.store(true, std::memory_order_relaxed);
      return;
    }
    sent += static_cast<std::size_t>(n);
  }
}

ServerStatsSnapshot Server::stats() const {
  ServerStatsSnapshot st;
  st.connections_accepted =
      connections_accepted_.load(std::memory_order_relaxed);
  st.requests_total = requests_total_.load(std::memory_order_relaxed);
  st.responses_ok = responses_ok_.load(std::memory_order_relaxed);
  st.responses_error = responses_error_.load(std::memory_order_relaxed);
  st.parse_errors = parse_errors_.load(std::memory_order_relaxed);
  st.rejected_overload = rejected_overload_.load(std::memory_order_relaxed);
  st.rejected_deadline = rejected_deadline_.load(std::memory_order_relaxed);
  st.rejected_oversized = rejected_oversized_.load(std::memory_order_relaxed);
  st.shed_hit = admission_.shed_count(runtime::RequestClass::kHit);
  st.shed_warm = admission_.shed_count(runtime::RequestClass::kWarm);
  st.shed_cold = admission_.shed_count(runtime::RequestClass::kCold);
  st.write_failures = write_failures_.load(std::memory_order_relaxed);
  st.cache_hits = cache_.hits();
  st.cache_misses = cache_.misses();
  st.sessions_evicted = sessions_evicted_.load(std::memory_order_relaxed);
  st.queue_depth = pool_.total_depth();
  st.sessions_live = static_cast<std::int64_t>(sessions_.size());
  st.cache_size = static_cast<std::int64_t>(cache_.size());
  st.uptime_ms = start_ms_ > 0 ? steady_now_ms() - start_ms_ : 0;
  st.rss_bytes = rss_bytes_.load(std::memory_order_relaxed);
  st.executor_lanes = static_cast<std::int64_t>(
      pool_.lanes() > 0 ? pool_.lanes()
                        : std::max<std::size_t>(1, options_.executor_lanes));
  st.lanes = pool_.snapshot();
  return st;
}

}  // namespace netpart::server
