/// serve_mix: an open-loop test of the real netpartd binary, run as a child
/// process on a unix socket with `nproc - 1` executor lanes and admission
/// control on.
///
/// Arrivals follow a seeded fixed schedule (blocks of 25 slots: 20 hit,
/// 3 warm, 2 cold, shuffled per block) and latency runs from each event's
/// scheduled send time, so a stall is charged to every event it delays:
///  - hit: `load` of a fresh session over one of the hit netlists solved
///    during set-up, then `partition`, which must be served from the cache;
///  - warm: `edit` (one seeded add-net or remove-net) then `repartition` of
///    one of the primed warm sessions, which must take the warm path;
///  - cold: `load` + `partition` of a distinct netlist, which must miss the
///    cache, compute, and insert.
/// Hit and cold sessions are unloaded after their answer.  Session names
/// are natural (not lane-pinned), so hits share lanes with cold solves.
///
/// One sender thread writes the schedule over `nproc - 1` connections and
/// one receiver thread polls them, matching responses by `id`; a control
/// connection samples `stats` at every step boundary.  After the load steps
/// the daemon is stopped and every answer is checked in process: hit and
/// cold answers against a `RepartitionSession` oracle, warm answers against
/// a twin session that replays the same edits in the daemon's order.

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include "circuits/generator.hpp"
#include "common.hpp"
#include "hypergraph/content_hash.hpp"
#include "io/netlist_io.hpp"
#include "parallel/thread_pool.hpp"
#include "repart/edit_script.hpp"
#include "repart/session.hpp"
#include "server/protocol.hpp"
#include "server/result_cache.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace netpart;
using server::JsonValue;

constexpr int kHitNetlists = 8;
constexpr std::int32_t kHitModules = 600;
constexpr int kWarmSessions = 12;
constexpr std::int32_t kWarmModules = 1200;
constexpr std::int32_t kColdModules = 2400;
constexpr int kColdBases = 4;
/// Cold admission bound.  Loads are admitted as cold work, including the
/// loads of hit events; the default bound (4 at the default queue) sheds
/// them by chance long before the lanes saturate, so the capacity read off
/// the ladder would measure arrival bursts rather than the lanes.
constexpr int kColdSlots = 16;

constexpr double kNominalQps = 25.0;
/// The ladder continues above the nominal step (its first rung).
/// Geometric rungs until one sheds interactive work, then geometric
/// bisection of the bracket between the last rung that did not and the
/// first that did.
constexpr double kLadderStartQps = 45.0;
constexpr double kLadderFactor = 1.2;
constexpr int kLadderMaxSteps = 10;
constexpr int kLadderRefinements = 2;
constexpr double kLadderStepSeconds = 1.5;
/// Responses still missing this long after a step's last send are charged
/// as transport failures.
constexpr double kDrainSeconds = 30.0;
/// Cold answers from the ladder steps checked against an oracle (every
/// nominal-step answer is checked).
constexpr int kLadderColdChecks = 8;

enum Cls { kHit = 0, kWarm = 1, kCold = 2 };
const char* const kClsName[3] = {"hit", "warm", "cold"};

// --- fixtures ---------------------------------------------------------------

Hypergraph generate(const std::string& name, std::int32_t modules) {
  GeneratorConfig config;
  config.name = name;  // the name seeds the generator
  config.num_modules = modules;
  config.num_nets = modules + modules / 10;
  return generate_circuit(config).hypergraph;
}

std::string hgr_text(const Hypergraph& h) {
  std::ostringstream out;
  io::write_hgr(out, h);
  return out.str();
}

struct Fixtures {
  std::vector<std::string> hit_hgr;
  std::vector<Hypergraph> warm;
  std::vector<std::string> warm_hgr;
  /// Cold events cycle over a few base netlists (so one seed's cold cost
  /// does not hinge on one netlist); each variant appends a fresh 2-pin
  /// net, making every cold netlist distinct content.
  std::vector<std::string> cold_base;  ///< .hgr body without its header
  std::vector<std::int32_t> cold_nets;
  std::set<std::tuple<std::size_t, std::int64_t, std::int64_t>> cold_used;
  std::size_t cold_count = 0;
  Rng cold_rng{0};

  /// The base circuits are the same for every seed, so seeds compare like
  /// with like; the seed draws the schedule, which netlist each hit loads,
  /// the warm edits and the cold variants.
  explicit Fixtures(std::uint64_t seed) : cold_rng(seed ^ 0xC01DULL) {
    const std::string tag = "perfbench-serve";
    for (int i = 0; i < kHitNetlists; ++i)
      hit_hgr.push_back(hgr_text(
          generate(tag + "-hit-" + std::to_string(i), kHitModules)));
    for (int i = 0; i < kWarmSessions; ++i) {
      warm.push_back(
          generate(tag + "-warm-" + std::to_string(i), kWarmModules));
      warm_hgr.push_back(hgr_text(warm.back()));
    }
    for (int i = 0; i < kColdBases; ++i) {
      const std::string base = hgr_text(
          generate(tag + "-cold-" + std::to_string(i), kColdModules));
      cold_nets.push_back(std::atoi(base.c_str()));
      cold_base.push_back(base.substr(base.find('\n') + 1));
    }
  }

  /// The next distinct cold netlist.
  std::string next_cold() {
    const std::size_t base = cold_count++ % cold_base.size();
    std::int64_t a = 0;
    std::int64_t b = 0;
    do {
      a = 1 + cold_rng.below(kColdModules);
      b = 1 + cold_rng.below(kColdModules);
    } while (a >= b || !cold_used.insert({base, a, b}).second);
    return std::to_string(cold_nets[base] + 1) + " " +
           std::to_string(kColdModules) + "\n" + cold_base[base] +
           std::to_string(a) + " " + std::to_string(b) + "\n";
  }
};

// --- the daemon child and its sockets ---------------------------------------

int connect_unix(const std::string& name) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  // '@' names live in the abstract namespace: a leading NUL byte.
  const std::size_t len = std::min(name.size(), sizeof(addr.sun_path) - 1);
  std::memcpy(addr.sun_path, name.data(), len);
  if (name[0] == '@') addr.sun_path[0] = '\0';
  const auto addr_len =
      static_cast<socklen_t>(offsetof(sockaddr_un, sun_path) + len);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), addr_len) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool send_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// An owned connection; blocking line I/O for the control connection.
class LineConn {
 public:
  explicit LineConn(int fd) : fd_(fd) {}
  ~LineConn() {
    if (fd_ >= 0) ::close(fd_);
  }
  LineConn(const LineConn&) = delete;
  LineConn& operator=(const LineConn&) = delete;

  bool send(const std::string& lines) { return send_all(fd_, lines); }

  bool read_line(std::string& line) {
    for (;;) {
      const std::size_t eol = buffer_.find('\n');
      if (eol != std::string::npos) {
        line = buffer_.substr(0, eol);
        buffer_.erase(0, eol + 1);
        return true;
      }
      char chunk[65536];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  bool round_trip(const std::string& request, std::string& response) {
    return send(request + "\n") && read_line(response);
  }

 private:
  int fd_;
  std::string buffer_;
};

/// netpartd as a child process; the destructor always reaps it.
class Daemon {
 public:
  Daemon(const std::string& binary, const std::string& socket,
         std::size_t lanes, const std::string& access_log,
         const std::string& log_path)
      : socket_(socket) {
    std::vector<std::string> argv_s = {binary,
                                       "--socket",
                                       socket,
                                       "--pool-lanes",
                                       std::to_string(lanes),
                                       "--cold-slots",
                                       std::to_string(kColdSlots),
                                       "--cache",
                                       "4096"};
    if (!access_log.empty()) {
      argv_s.push_back("--access-log");
      argv_s.push_back(access_log);
    }
    pid_ = ::fork();
    if (pid_ == 0) {
      const int out = ::open(log_path.c_str(),
                             O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
      if (out >= 0) {
        ::dup2(out, 1);
        ::dup2(out, 2);
      }
      std::vector<char*> argv;
      for (std::string& s : argv_s) argv.push_back(s.data());
      argv.push_back(nullptr);
      ::execv(binary.c_str(), argv.data());
      ::_exit(127);
    }
  }

  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] pid_t pid() const { return pid_; }

  /// Connect, retrying while the daemon starts up.
  [[nodiscard]] int connect(double timeout_s = 10.0) const {
    const auto start = Clock::now();
    while (ms_since(start) < timeout_s * 1e3) {
      const int fd = connect_unix(socket_);
      if (fd >= 0) return fd;
      int status = 0;
      if (pid_ <= 0 || ::waitpid(pid_, &status, WNOHANG) == pid_) return -1;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return -1;
  }

  /// Graceful shutdown through the protocol, then reap (SIGKILL after 10 s).
  void stop() {
    if (pid_ <= 0) return;
    const int fd = connect_unix(socket_);
    if (fd >= 0) {
      LineConn conn(fd);
      std::string line;
      (void)conn.round_trip("{\"id\":0,\"op\":\"shutdown\"}", line);
    }
    const auto start = Clock::now();
    int status = 0;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (ms_since(start) > 10e3) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    pid_ = -1;
  }

 private:
  std::string socket_;
  pid_t pid_ = -1;
};

// --- requests ---------------------------------------------------------------

std::string hex(std::uint64_t v, int digits) {
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(v));
  return std::string(buffer + (16 - digits));
}

struct Event {
  Cls cls = kHit;
  double sched_ms = 0.0;
  int conn = 0;
  int target = 0;          ///< hit netlist / warm session / cold variant
  std::string script;      ///< warm: the edit script
  std::string trace_id;    ///< traced runs only
  std::vector<std::string> lines;
  // Filled by the sender / receiver threads.
  double sent_ms = -1.0;
  double answer_ms = -1.0;
  std::string first;   ///< response to load / edit
  std::string answer;  ///< response to partition / repartition
};

constexpr int kRoles = 4;  ///< request id = event gid * kRoles + role

std::string request(std::int64_t gid, int role, const std::string& op,
                     const std::string& session, const Event& e,
                     const std::string& extra) {
  std::string line = "{\"id\":" + std::to_string(gid * kRoles + role) +
                     ",\"op\":\"" + op + "\",\"session\":\"" + session + "\"";
  line += extra;
  if (!e.trace_id.empty())
    line += ",\"trace_id\":\"" + e.trace_id + "\",\"span_id\":\"" +
            hex(static_cast<std::uint64_t>(gid * kRoles + role + 1), 16) +
            "\"";
  line += "}\n";
  return line;
}

/// One open-loop step: the schedule, then its events' outcomes.
struct Step {
  std::string kind;
  double qps = 0.0;
  double seconds = 0.0;
  std::int64_t first_gid = 0;
  std::vector<Event> events;
  double wall_ms = 0.0;
  std::string stats_before;
  std::string stats_after;
};

class Generator {
 public:
  Generator(const Args& args, Fixtures& fixtures, int conns)
      : args_(args), fixtures_(fixtures), conns_(conns),
        rng_(args.seed * 0x2545F4914F6CDD1DULL + 7) {
    for (const Hypergraph& h : fixtures.warm) edits_.emplace_back(h);
  }

  Step make_step(const std::string& kind, double qps, double seconds) {
    Step step;
    step.kind = kind;
    step.qps = qps;
    step.seconds = seconds;
    step.first_gid = next_gid_;
    const auto n = static_cast<std::int64_t>(qps * seconds + 0.5);
    std::vector<Cls> block;
    for (std::int64_t i = 0; i < n; ++i) {
      if (i % 25 == 0) block = shuffled_block();
      Event e;
      e.cls = block[static_cast<std::size_t>(i % 25)];
      e.sched_ms = 1e3 * static_cast<double>(i) / qps;
      const std::int64_t gid = next_gid_++;
      if (args_.trace)
        e.trace_id = hex(rng_.next(), 16) +
                     hex(static_cast<std::uint64_t>(gid) + 1, 16);
      switch (e.cls) {
        case kHit: {
          e.target = static_cast<int>(rng_.below(kHitNetlists));
          e.conn = static_cast<int>(gid % conns_);
          const std::string session = "hit" + std::to_string(gid);
          e.lines.push_back(request(
              gid, 0, "load", session, e,
              ",\"hgr\":\"" +
                  json_escape(
                      fixtures_.hit_hgr[static_cast<std::size_t>(e.target)]) +
                  "\""));
          e.lines.push_back(request(gid, 1, "partition", session, e, ""));
          e.lines.push_back(request(gid, 2, "unload", session, e, ""));
          break;
        }
        case kWarm: {
          e.target = static_cast<int>(rng_.below(kWarmSessions));
          // A warm session's events share one connection, so the daemon
          // sees its edits in schedule order.
          e.conn = e.target % conns_;
          e.script = edits_[static_cast<std::size_t>(e.target)].next(
              "pb" + std::to_string(gid), 32, rng_);
          const std::string session = "warm" + std::to_string(e.target);
          e.lines.push_back(request(gid, 0, "edit", session, e,
                                    ",\"script\":\"" + json_escape(e.script) +
                                        "\""));
          e.lines.push_back(request(gid, 1, "repartition", session, e, ""));
          break;
        }
        case kCold: {
          e.target = static_cast<int>(cold_hgr.size());
          cold_hgr.push_back(fixtures_.next_cold());
          e.conn = static_cast<int>(gid % conns_);
          const std::string session = "cold" + std::to_string(gid);
          e.lines.push_back(request(
              gid, 0, "load", session, e,
              ",\"hgr\":\"" + json_escape(cold_hgr.back()) + "\""));
          e.lines.push_back(request(gid, 1, "partition", session, e, ""));
          e.lines.push_back(request(gid, 2, "unload", session, e, ""));
          break;
        }
      }
      step.events.push_back(std::move(e));
    }
    return step;
  }

  std::vector<std::string> cold_hgr;  ///< by cold variant index

 private:
  std::vector<Cls> shuffled_block() {
    std::vector<Cls> block(25, kHit);
    for (int i = 20; i < 23; ++i) block[static_cast<std::size_t>(i)] = kWarm;
    for (int i = 23; i < 25; ++i) block[static_cast<std::size_t>(i)] = kCold;
    for (std::size_t i = block.size(); i > 1; --i)
      std::swap(block[i - 1],
                block[static_cast<std::size_t>(
                    rng_.below(static_cast<std::int64_t>(i)))]);
    return block;
  }

  const Args& args_;
  Fixtures& fixtures_;
  int conns_;
  Rng rng_;
  std::vector<EcoEdits> edits_;  ///< one per warm session
  std::int64_t next_gid_ = 1;
};

/// Parses the `"id":N` prefix every netpartd response starts with.
std::int64_t response_id(const std::string& line) {
  constexpr std::string_view kPrefix = "{\"id\":";
  if (line.compare(0, kPrefix.size(), kPrefix) != 0) return -1;
  char* end = nullptr;
  const long long id = std::strtoll(line.c_str() + kPrefix.size(), &end, 10);
  return end == line.c_str() + kPrefix.size() ? -1 : id;
}

/// Run one step against the load connections: the calling thread sends on
/// schedule, one receiver thread polls every connection.
void run_step(Step& step, const std::vector<int>& fds) {
  std::atomic<std::int64_t> outstanding{0};
  for (const Event& e : step.events)
    outstanding += static_cast<std::int64_t>(e.lines.size());
  std::atomic<bool> sender_done{false};
  const auto start = Clock::now() + std::chrono::milliseconds(20);

  std::thread receiver([&] {
    std::vector<std::string> buffers(fds.size());
    std::vector<pollfd> pfds;
    for (const int fd : fds) pfds.push_back({fd, POLLIN, 0});
    const auto nevents = static_cast<std::int64_t>(step.events.size());
    double drain_deadline = -1.0;
    while (outstanding.load() > 0) {
      if (sender_done.load() && drain_deadline < 0.0)
        drain_deadline = ms_since(start) + kDrainSeconds * 1e3;
      if (drain_deadline >= 0.0 && ms_since(start) > drain_deadline) break;
      if (::poll(pfds.data(), pfds.size(), 20) <= 0) continue;
      for (std::size_t c = 0; c < pfds.size(); ++c) {
        if ((pfds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        char chunk[65536];
        const ssize_t n = ::recv(pfds[c].fd, chunk, sizeof chunk, 0);
        if (n <= 0) {
          pfds[c].fd = -1;  // closed: its events stay unanswered
          continue;
        }
        const double now_ms = ms_since(start);
        std::string& buffer = buffers[c];
        buffer.append(chunk, static_cast<std::size_t>(n));
        std::size_t begin = 0;
        for (std::size_t eol; (eol = buffer.find('\n', begin)) !=
                              std::string::npos;
             begin = eol + 1) {
          std::string line = buffer.substr(begin, eol - begin);
          const std::int64_t id = response_id(line);
          --outstanding;
          const std::int64_t index = id / kRoles - step.first_gid;
          if (id < 0 || index < 0 || index >= nevents) continue;
          Event& e = step.events[static_cast<std::size_t>(index)];
          switch (id % kRoles) {
            case 0:
              e.first = std::move(line);
              break;
            case 1:
              e.answer_ms = now_ms;
              e.answer = std::move(line);
              break;
            default:
              break;
          }
        }
        buffer.erase(0, begin);
      }
    }
  });

  for (Event& e : step.events) {
    // Sleep to just before the send time, then spin: a thread woken from
    // sleep on a busy machine can start milliseconds late.
    const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double, std::milli>(
                                     e.sched_ms));
    std::this_thread::sleep_until(due - std::chrono::milliseconds(2));
    while (Clock::now() < due) {
    }
    // Lag is measured when sending starts: time blocked in send() is the
    // daemon not reading, which the event's latency already carries.
    e.sent_ms = ms_since(start);
    bool ok = true;
    for (const std::string& line : e.lines)
      ok = ok && send_all(fds[static_cast<std::size_t>(e.conn)], line);
    if (!ok) {
      e.sent_ms = -1.0;
      outstanding -= static_cast<std::int64_t>(e.lines.size());
    }
  }
  sender_done = true;
  receiver.join();
  step.wall_ms = ms_since(start);
}

// --- answer checks -----------------------------------------------------------

struct Answer {
  bool ok = false;
  std::string error_code;
  std::string served_from;
  bool warm_started = false;
  std::int64_t cut = -1;
  double ratio = 0.0;
  std::string assignment;
  double stages_us[5] = {-1, -1, -1, -1, -1};
};

const char* const kStages[5] = {"parse", "admission", "queue", "execute",
                                "serialize"};

Answer parse_answer(const std::string& line) {
  Answer a;
  JsonValue v;
  std::string error;
  if (line.empty() || !server::parse_json(line, v, error)) return a;
  auto str = [](const JsonValue& o, std::string_view k) {
    const JsonValue* f = o.find(k);
    return f != nullptr && f->is_string() ? f->string : std::string();
  };
  const JsonValue* ok = v.find("ok");
  a.ok = ok != nullptr && ok->is_bool() && ok->boolean;
  if (const JsonValue* e = v.find("error"); e != nullptr && e->is_object())
    a.error_code = str(*e, "code");
  a.served_from = str(v, "served_from");
  if (const JsonValue* f = v.find("warm_started"); f != nullptr && f->is_bool())
    a.warm_started = f->boolean;
  if (const JsonValue* f = v.find("cut"); f != nullptr && f->is_number())
    a.cut = static_cast<std::int64_t>(f->number);
  if (const JsonValue* f = v.find("ratio"); f != nullptr && f->is_number())
    a.ratio = f->number;
  a.assignment = str(v, "assignment");
  if (const JsonValue* s = v.find("stages_us"); s != nullptr && s->is_object())
    for (int i = 0; i < 5; ++i)
      if (const JsonValue* f = s->find(kStages[i]);
          f != nullptr && f->is_number())
        a.stages_us[i] = f->number;
  return a;
}

std::string assignment_of(const Partition& p) {
  std::string s(static_cast<std::size_t>(p.num_modules()), 'L');
  for (ModuleId m = 0; m < p.num_modules(); ++m)
    if (p.side(m) == Side::kRight) s[static_cast<std::size_t>(m)] = 'R';
  return s;
}

struct Expected {
  std::int64_t cut = 0;
  double ratio = 0.0;
  std::string assignment;
};

Expected expected_of(const repart::RepartitionResult& r) {
  return {r.nets_cut, r.ratio, assignment_of(r.partition)};
}

bool matches(const Answer& a, const Expected& e) {
  return a.cut == e.cut && a.ratio == e.ratio && a.assignment == e.assignment;
}

Hypergraph parse_hgr(const std::string& text) {
  std::istringstream in(text);
  return io::read_hgr(in);
}

/// Run fn(i) for i in [0, n) on `threads` lanes, each marked inline so the
/// library runs serially on it — as on a daemon executor lane.  The first
/// exception thrown by fn is rethrown once every lane has stopped.
template <typename Fn>
void parallel_lanes(std::size_t n, std::size_t threads, Fn&& fn) {
  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr error;
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < std::max<std::size_t>(threads, 1); ++t)
    pool.emplace_back([&] {
      parallel::ThreadPool::mark_inline();
      try {
        for (std::size_t i = 0; (i = next.fetch_add(1)) < n;) fn(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!error) error = std::current_exception();
        next = n;
      }
    });
  for (std::thread& t : pool) t.join();
  if (error) std::rethrow_exception(error);
}

/// Per-event verdict, as reported in the raw document.
enum Outcome { kOk, kShed, kError, kTransport, kWrong, kPath };
const char* const kOutcomeName[6] = {"ok",        "shed",  "error",
                                     "transport", "wrong", "path"};

}  // namespace

int run_serve_mix(const Args& args, JsonWriter& w) {
  const auto nproc = static_cast<int>(
      std::max(2U, std::thread::hardware_concurrency()));
  const std::size_t lanes = static_cast<std::size_t>(nproc - 1);
  const int conns = nproc - 1;  // plus the control connection: nproc in all
  const std::string log_path = args.workdir + "/netpartd.log";
  const std::string access_log =
      args.trace ? args.workdir + "/access.ndjson" : std::string();
  if (!access_log.empty()) ::unlink(access_log.c_str());

  // Set-up, repeated for a steady median: fixtures, daemon start, and
  // seeding (hit netlists solved once so their later loads hit the cache;
  // warm sessions loaded and primed).  Only the last daemon is kept.
  std::unique_ptr<Daemon> daemon;
  std::unique_ptr<Fixtures> fixtures;
  std::unique_ptr<LineConn> control;
  std::vector<double> setup_s;
  for (int rep = 0; rep < args.setup_reps; ++rep) {
    if (daemon) daemon->stop();
    control.reset();
    daemon.reset();
    const auto start = Clock::now();
    fixtures = std::make_unique<Fixtures>(args.seed);
    const std::string socket = "@perfbench-" + std::to_string(::getpid()) +
                               "-" + std::to_string(rep);
    daemon = std::make_unique<Daemon>(
        args.netpartd, socket, lanes,
        rep + 1 == args.setup_reps ? access_log : std::string(), log_path);
    const int fd = daemon->connect();
    if (fd < 0) throw std::runtime_error("netpartd did not start");
    control = std::make_unique<LineConn>(fd);
    // One group of requests per session; groups are pipelined on one
    // connection, at most `lanes` at a time so the loads (cold class) stay
    // inside the cold admission bound.
    // Request id = group * kRoles + role; a group is done when its last
    // role answers.
    std::vector<std::string> groups;
    std::vector<int> last_role;
    auto add_group = [&](const std::string& session, const std::string& hgr,
                         bool unload) {
      const auto id = static_cast<std::int64_t>(groups.size()) * kRoles;
      const std::string head = ",\"session\":\"" + session + "\"}\n";
      std::string g = "{\"id\":" + std::to_string(id) +
                      ",\"op\":\"load\",\"hgr\":\"" + json_escape(hgr) +
                      "\"" + head + "{\"id\":" + std::to_string(id + 1) +
                      ",\"op\":\"partition\"" + head;
      if (unload)
        g += "{\"id\":" + std::to_string(id + 2) + ",\"op\":\"unload\"" + head;
      groups.push_back(std::move(g));
      last_role.push_back(unload ? 2 : 1);
    };
    for (int i = 0; i < kHitNetlists; ++i)
      add_group("seed-hit" + std::to_string(i),
                fixtures->hit_hgr[static_cast<std::size_t>(i)], true);
    for (int i = 0; i < kWarmSessions; ++i)
      add_group("warm" + std::to_string(i),
                fixtures->warm_hgr[static_cast<std::size_t>(i)], false);
    std::size_t sent = 0;
    std::size_t done = 0;
    while (done < groups.size()) {
      while (sent < groups.size() && sent - done < lanes)
        if (!control->send(groups[sent++]))
          throw std::runtime_error("seeding failed");
      std::string line;
      if (!control->read_line(line))
        throw std::runtime_error("seeding failed");
      if (line.find("\"ok\":true") == std::string::npos)
        throw std::runtime_error("seeding request failed: " + line);
      const std::int64_t id = response_id(line);
      if (id % kRoles == last_role[static_cast<std::size_t>(id / kRoles)])
        ++done;
    }
    setup_s.push_back(ms_since(start) / 1e3);
  }

  std::vector<std::unique_ptr<LineConn>> load_conns;
  std::vector<int> fds;
  for (int c = 0; c < conns; ++c) {
    const int fd = daemon->connect();
    if (fd < 0) throw std::runtime_error("cannot connect to netpartd");
    load_conns.push_back(std::make_unique<LineConn>(fd));
    fds.push_back(fd);
  }
  auto stats = [&] {
    std::string line;
    return control->round_trip("{\"id\":0,\"op\":\"stats\"}", line)
               ? line
               : std::string("{}");
  };

  Generator gen(args, *fixtures, conns);
  std::vector<Step> steps;
  {
    Step nominal = gen.make_step("nominal", kNominalQps, args.seconds * 0.6);
    nominal.stats_before = stats();
    run_step(nominal, fds);
    nominal.stats_after = stats();
    steps.push_back(std::move(nominal));
  }
  // Geometric ladder until a hit or warm event is shed: interactive work
  // refused, so that step is past the SLO (cold sheds alone are admission
  // doing its job).
  auto run_rung = [&](double rate) {
    Step step = gen.make_step("ladder", rate, kLadderStepSeconds);
    step.stats_before = stats();
    run_step(step, fds);
    step.stats_after = stats();
    bool interactive_shed = false;
    for (const Event& e : step.events)
      interactive_shed =
          interactive_shed ||
          (e.cls != kCold &&
           (e.first.find("\"overloaded\"") != std::string::npos ||
            e.answer.find("\"overloaded\"") != std::string::npos));
    steps.push_back(std::move(step));
    return interactive_shed;
  };
  double passed = kNominalQps;
  double qps = kLadderStartQps;
  for (int i = 0; i < kLadderMaxSteps; ++i, qps *= kLadderFactor) {
    if (run_rung(qps)) {
      // Bisect the bracket twice, geometrically.
      double shed = qps;
      for (int r = 0; r < kLadderRefinements; ++r) {
        const double mid = std::sqrt(passed * shed);
        (run_rung(mid) ? shed : passed) = mid;
      }
      break;
    }
    passed = qps;
  }
  std::string metrics_end;
  (void)control->round_trip("{\"id\":0,\"op\":\"metrics\"}", metrics_end);
  const double rss_mb = peak_rss_mb(daemon->pid());
  load_conns.clear();
  control.reset();
  daemon->stop();

  // --- checks, with the daemon gone --------------------------------------
  Checks checks;
  std::vector<Expected> hit_expected(kHitNetlists);
  std::vector<repart::RepartitionResult> hit_results(kHitNetlists);
  std::vector<repart::SessionWarmState> hit_warm(kHitNetlists);
  parallel_lanes(kHitNetlists, lanes, [&](std::size_t i) {
    repart::RepartitionSession session(parse_hgr(fixtures->hit_hgr[i]));
    hit_results[i] = session.repartition();
    hit_warm[i] = session.export_warm_state();
    hit_expected[i] = expected_of(hit_results[i]);
  });

  struct Verdict {
    Outcome outcome = kOk;
    Answer answer;
  };
  std::vector<std::vector<Verdict>> verdicts(steps.size());
  std::vector<std::pair<std::size_t, std::size_t>> cold_to_check;
  for (std::size_t s = 0; s < steps.size(); ++s) {
    int ladder_cold = 0;
    for (std::size_t i = 0; i < steps[s].events.size(); ++i) {
      const Event& e = steps[s].events[i];
      Verdict v;
      v.answer = parse_answer(e.answer);
      const Answer first = parse_answer(e.first);
      if (e.sent_ms < 0.0 || e.answer.empty() || e.first.empty())
        v.outcome = kTransport;
      else if (first.error_code == "overloaded" ||
               v.answer.error_code == "overloaded")
        v.outcome = kShed;
      else if (!first.ok || !v.answer.ok)
        v.outcome = kError;
      if (v.outcome == kOk) {
        const bool path_ok =
            e.cls == kHit    ? v.answer.served_from == "cache"
            : e.cls == kWarm ? v.answer.served_from == "compute" &&
                                   v.answer.warm_started
                             : v.answer.served_from == "compute" &&
                                   !v.answer.warm_started;
        checks.require(path_ok, std::string(kClsName[e.cls]) +
                                    " event left its path: served_from=" +
                                    v.answer.served_from);
        if (!path_ok) v.outcome = kPath;
        if (path_ok && e.cls == kHit) {
          const bool same = matches(
              v.answer, hit_expected[static_cast<std::size_t>(e.target)]);
          checks.require(same, "hit answer differs from the oracle");
          if (!same) v.outcome = kWrong;
        }
        if (path_ok && e.cls == kCold &&
            (steps[s].kind == "nominal" || ladder_cold++ < kLadderColdChecks))
          cold_to_check.emplace_back(s, i);
      }
      verdicts[s].push_back(std::move(v));
    }
  }

  // Cold oracles (the in-process replay of the cold events).
  struct ColdReplay {
    double read_hgr_ms = 0.0;
    double ctor_ms = 0.0;
    double repartition_ms = 0.0;
    bool same = false;
  };
  std::vector<ColdReplay> cold_replay(cold_to_check.size());
  parallel_lanes(cold_to_check.size(), lanes, [&](std::size_t k) {
    const auto [s, i] = cold_to_check[k];
    const Event& e = steps[s].events[i];
    ColdReplay& r = cold_replay[k];
    const std::string& text = gen.cold_hgr[static_cast<std::size_t>(e.target)];
    Hypergraph h;
    r.read_hgr_ms = time_ms([&] { h = parse_hgr(text); });
    std::unique_ptr<repart::RepartitionSession> session;
    r.ctor_ms = time_ms(
        [&] { session = std::make_unique<repart::RepartitionSession>(h); });
    repart::RepartitionResult result;
    r.repartition_ms = time_ms([&] { result = session->repartition(); });
    r.same = matches(verdicts[s][i].answer, expected_of(result));
  });
  for (std::size_t k = 0; k < cold_to_check.size(); ++k) {
    checks.require(cold_replay[k].same, "cold answer differs from the oracle");
    if (!cold_replay[k].same)
      verdicts[cold_to_check[k].first][cold_to_check[k].second].outcome =
          kWrong;
  }

  // Warm twins: each replays its session's edits in the daemon's order.
  struct WarmReplay {
    std::size_t step = 0;
    std::size_t index = 0;
    double edit_apply_ms = 0.0;
    double repartition_ms = -1.0;
    std::int32_t lanczos_iterations = 0;
    std::int32_t ranks_evaluated = 0;
    std::int32_t ranks_total = 0;
    bool same = true;
  };
  std::vector<std::vector<WarmReplay>> warm_replay(kWarmSessions);
  std::vector<double> warm_prime_ms(kWarmSessions);
  for (std::size_t s = 0; s < steps.size(); ++s)
    for (std::size_t i = 0; i < steps[s].events.size(); ++i)
      if (steps[s].events[i].cls == kWarm)
        warm_replay[static_cast<std::size_t>(steps[s].events[i].target)]
            .push_back({s, i});
  parallel_lanes(kWarmSessions, lanes, [&](std::size_t t) {
    repart::RepartitionSession twin(parse_hgr(fixtures->warm_hgr[t]));
    repart::EditScriptApplier applier(twin.netlist());
    warm_prime_ms[t] = time_ms([&] { (void)twin.repartition(); });
    for (WarmReplay& r : warm_replay[t]) {
      const Event& e = steps[r.step].events[r.index];
      if (e.first.empty() || e.answer.empty()) {
        r.same = false;  // unknown daemon state: the twin cannot follow
        continue;
      }
      if (parse_answer(e.first).ok) {
        std::istringstream text(e.script);
        const repart::EditScript script = repart::read_edit_script(text);
        r.edit_apply_ms = time_ms([&] {
          for (const repart::EditBatch& batch : script.batches)
            applier.apply(batch);
        });
      }
      // The daemon solved only when it answered from compute; a shed edit
      // leaves the session primed and the answer is replayed from it.
      const Answer& answer = verdicts[r.step][r.index].answer;
      if (!answer.ok || answer.served_from != "compute") continue;
      repart::RepartitionResult result;
      r.repartition_ms = time_ms([&] { result = twin.repartition(); });
      r.lanczos_iterations = result.lanczos_iterations;
      r.ranks_evaluated = result.sweep_ranks_evaluated;
      r.ranks_total = result.sweep_ranks_total;
      r.same = matches(answer, expected_of(result));
    }
  });
  for (const auto& session : warm_replay)
    for (const WarmReplay& r : session) {
      if (verdicts[r.step][r.index].outcome != kOk) continue;
      checks.require(r.same, "warm answer differs from the twin");
      if (!r.same) verdicts[r.step][r.index].outcome = kWrong;
    }

  // Hit replay (traced runs): the public calls a cache-served load +
  // partition makes, timed one by one.
  struct HitReplay {
    std::string trace_id;
    double read_hgr_ms = 0.0;
    double content_hash_us = 0.0;
    double ctor_ms = 0.0;
    double find_us = 0.0;
  };
  std::vector<HitReplay> hit_replay;
  if (args.trace) {
    server::ResultCache cache(64);
    const repart::RepartitionOptions options;
    const std::uint64_t config_hash = server::repartition_config_hash(options);
    for (int i = 0; i < kHitNetlists; ++i)
      cache.insert({netlist_content_hash(parse_hgr(
                        fixtures->hit_hgr[static_cast<std::size_t>(i)])),
                    config_hash},
                   {hit_results[static_cast<std::size_t>(i)],
                    hit_warm[static_cast<std::size_t>(i)]});
    parallel::ThreadPool::mark_inline();
    for (const Step& step : steps)
      for (const Event& e : step.events) {
        if (e.cls != kHit || step.kind != "nominal") continue;
        HitReplay r;
        r.trace_id = e.trace_id;
        Hypergraph h;
        r.read_hgr_ms = time_ms([&] {
          h = parse_hgr(fixtures->hit_hgr[static_cast<std::size_t>(e.target)]);
        });
        std::uint64_t hash = 0;
        r.content_hash_us =
            1e3 * time_ms([&] { hash = netlist_content_hash(h); });
        std::unique_ptr<repart::RepartitionSession> session;
        r.ctor_ms = time_ms(
            [&] { session = std::make_unique<repart::RepartitionSession>(h); });
        r.find_us = 1e3 * time_ms([&] {
          if (const auto hit = cache.find({hash, config_hash}))
            session->import_warm_state(hit->warm);
        });
        hit_replay.push_back(std::move(r));
      }
  }

  // --- raw document --------------------------------------------------------
  w.field_array("setup_s", setup_s)
      .field("daemon_lanes", static_cast<std::int64_t>(lanes))
      .field("connections", conns + 1)
      .field("generator_threads", 2)
      .field("hit_modules", kHitModules)
      .field("warm_modules", kWarmModules)
      .field("cold_modules", kColdModules)
      .field("peak_rss_mb", rss_mb)
      .field("access_log", access_log)
      .field("metrics_end", metrics_end);
  w.key("steps").begin_array();
  for (std::size_t s = 0; s < steps.size(); ++s) {
    const Step& step = steps[s];
    std::vector<double> sched;
    std::vector<double> sent;
    std::vector<double> done;
    w.begin_object()
        .field("kind", step.kind)
        .field("qps", step.qps)
        .field("seconds", step.seconds)
        .field("wall_ms", step.wall_ms)
        .field("stats_before", step.stats_before)
        .field("stats_after", step.stats_after);
    for (const Event& e : step.events) {
      sched.push_back(e.sched_ms);
      sent.push_back(e.sent_ms);
      done.push_back(e.answer_ms);
    }
    w.field_array("sched_ms", sched)
        .field_array("sent_ms", sent)
        .field_array("done_ms", done);
    w.key("cls").begin_array();
    for (const Event& e : step.events) w.value(kClsName[e.cls]);
    w.end_array().key("outcome").begin_array();
    for (const Verdict& v : verdicts[s]) w.value(kOutcomeName[v.outcome]);
    w.end_array().key("served_from").begin_array();
    for (const Verdict& v : verdicts[s]) w.value(v.answer.served_from);
    w.end_array().key("ratio").begin_array();
    for (const Verdict& v : verdicts[s])
      w.value(v.answer.ok ? v.answer.ratio : std::nan(""));
    w.end_array();
    if (args.trace) {
      w.key("trace_id").begin_array();
      for (const Event& e : step.events) w.value(e.trace_id);
      w.end_array().key("stages_us").begin_object();
      for (int k = 0; k < 5; ++k) {
        std::vector<double> col;
        for (const Verdict& v : verdicts[s])
          col.push_back(v.answer.stages_us[k]);
        w.field_array(kStages[k], col);
      }
      w.end_object();
    }
    w.end_object();
  }
  w.end_array();

  w.key("replay").begin_object();
  w.key("cold").begin_array();
  for (std::size_t k = 0; k < cold_to_check.size(); ++k) {
    const Event& e =
        steps[cold_to_check[k].first].events[cold_to_check[k].second];
    w.begin_object()
        .field("trace_id", e.trace_id)
        .field("read_hgr_ms", cold_replay[k].read_hgr_ms)
        .field("ctor_ms", cold_replay[k].ctor_ms)
        .field("repartition_ms", cold_replay[k].repartition_ms)
        .end_object();
  }
  w.end_array().key("warm").begin_array();
  for (const auto& session : warm_replay)
    for (const WarmReplay& r : session) {
      if (r.repartition_ms < 0.0) continue;
      w.begin_object()
          .field("trace_id", steps[r.step].events[r.index].trace_id)
          .field("edit_apply_ms", r.edit_apply_ms)
          .field("repartition_ms", r.repartition_ms)
          .field("lanczos_iterations", r.lanczos_iterations)
          .field("ranks_evaluated", r.ranks_evaluated)
          .field("ranks_total", r.ranks_total)
          .end_object();
    }
  w.end_array().field_array("warm_prime_ms", warm_prime_ms);
  w.key("hit").begin_array();
  for (const HitReplay& r : hit_replay)
    w.begin_object()
        .field("trace_id", r.trace_id)
        .field("read_hgr_ms", r.read_hgr_ms)
        .field("content_hash_us", r.content_hash_us)
        .field("ctor_ms", r.ctor_ms)
        .field("find_us", r.find_us)
        .end_object();
  w.end_array().end_object();
  checks.write(w);
  return 0;
}

}  // namespace perfbench
