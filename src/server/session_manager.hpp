#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "hypergraph/hypergraph.hpp"
#include "repart/edit_script.hpp"
#include "repart/session.hpp"

/// \file session_manager.hpp
/// Named long-lived partitioning sessions held hot by the server.
///
/// A session is the server-side unit of state reuse: one RepartitionSession
/// (evolving netlist + previous partition) plus an EditScriptApplier
/// resolving the wire protocol's net names.  All session *mutation* happens
/// on the one executor lane the session name pins to
/// (runtime/executor_pool.hpp); the manager's lock only guards the
/// name -> session map, which the I/O thread also touches for idle
/// eviction.  Eviction of a session the executor is currently driving is
/// safe — the executor holds a shared_ptr, so the session outlives the
/// request and simply ceases to be addressable.

namespace netpart::server {

/// Classification hints published by the session's executor lane and read
/// by the I/O thread's admission controller (server/runtime/admission.hpp).
/// Values describe what serve path the *next* partition request on this
/// session would take.
enum AdmissionHint : std::uint8_t {
  kHintCold = 0,    ///< no primed answer; next partition is a cold solve
  kHintPrimed = 1,  ///< primed, no pending edits; next partition is a replay
  kHintEdited = 2,  ///< pending edits; next partition is a warm ECO run
};

/// One live session.  Fields other than `last_used_ms` and the atomic
/// mirrors (`admission_hint`/`admission_hash`/`stat_*`) are owned by the
/// session's executor lane; other threads read only the mirrors.
struct ServerSession {
  ServerSession(std::string session_name, const Hypergraph& initial,
                std::uint64_t content_hash)
      : name(std::move(session_name)),
        session(initial),
        applier(session.netlist()),
        netlist_hash(content_hash) {
    admission_hash.store(content_hash, std::memory_order_relaxed);
    stat_modules.store(session.netlist().num_modules(),
                       std::memory_order_relaxed);
    stat_nets.store(session.netlist().num_nets(), std::memory_order_relaxed);
  }

  ServerSession(const ServerSession&) = delete;
  ServerSession& operator=(const ServerSession&) = delete;

  std::string name;
  repart::RepartitionSession session;
  repart::EditScriptApplier applier;
  /// Content hash of the session's current netlist; stale while
  /// `pending_edits` (recomputed after the next repartition folds them in).
  std::uint64_t netlist_hash;
  /// True once the session holds a valid answer for its current netlist —
  /// either it computed one or it imported a cached cold run.
  bool primed = false;
  /// Edits applied since the last repartition (or load).
  bool pending_edits = false;
  /// Last answer; meaningful when primed && !pending_edits.
  repart::RepartitionResult last;
  /// Whether `last` was computed by a warm (history-dependent) run; warm
  /// results must never enter the result cache.
  bool last_was_warm = false;

  std::atomic<std::int64_t> last_used_ms{0};

  /// Lock-free mirror of (primed, pending_edits) for I/O-thread admission
  /// classification.  The executor lane updates it after every state change;
  /// the hint may lag the authoritative fields by in-flight requests, which
  /// only mis-classifies (never mis-answers) a request.
  std::atomic<std::uint8_t> admission_hint{kHintCold};
  /// Mirror of `netlist_hash` for the same purpose (cache-hit probing).
  std::atomic<std::uint64_t> admission_hash{0};

  /// Bit flags for `stat_flags`: an exact mirror of (primed, pending_edits)
  /// readable off-lane.  Unlike `admission_hint`, this keeps the two bits
  /// independent (an unprimed session with pending edits is representable).
  static constexpr std::uint8_t kStatPrimed = 1;
  static constexpr std::uint8_t kStatPendingEdits = 2;

  /// Off-lane mirrors of lane-owned state for the `sessions` listing: the
  /// op runs on lane 0 and must not touch the hypergraph or the bool
  /// fields of sessions pinned to other lanes.
  std::atomic<std::uint8_t> stat_flags{0};
  std::atomic<std::int32_t> stat_modules{0};
  std::atomic<std::int32_t> stat_nets{0};

  /// Publish the lock-free mirrors from the authoritative executor-owned
  /// fields.  Call after any mutation of primed/pending_edits/netlist_hash
  /// or of the hypergraph itself (edits change module/net counts).
  void publish_admission_hint() {
    std::uint8_t hint = kHintCold;
    if (primed) hint = pending_edits ? kHintEdited : kHintPrimed;
    admission_hint.store(hint, std::memory_order_relaxed);
    admission_hash.store(netlist_hash, std::memory_order_relaxed);
    std::uint8_t flags = 0;
    if (primed) flags |= kStatPrimed;
    if (pending_edits) flags |= kStatPendingEdits;
    stat_flags.store(flags, std::memory_order_relaxed);
    stat_modules.store(session.netlist().num_modules(),
                       std::memory_order_relaxed);
    stat_nets.store(session.netlist().num_nets(), std::memory_order_relaxed);
  }
};

class SessionManager {
 public:
  SessionManager() = default;

  /// Create (or replace) the named session.  Returns the new session.
  std::shared_ptr<ServerSession> create(const std::string& name,
                                        const Hypergraph& initial,
                                        std::uint64_t content_hash,
                                        std::int64_t now_ms);

  /// Look up a session and touch its last-used time; nullptr when absent.
  [[nodiscard]] std::shared_ptr<ServerSession> find(const std::string& name,
                                                    std::int64_t now_ms);

  /// Drop a session; returns false when it did not exist.
  bool erase(const std::string& name);

  /// Remove every session idle for longer than `idle_timeout_ms`; returns
  /// the number evicted.  Sessions currently executing a request stay alive
  /// through the executor's shared_ptr even if evicted here.
  std::int32_t evict_idle(std::int64_t now_ms, std::int64_t idle_timeout_ms);

  /// Snapshot of the live sessions (shared_ptrs; callers on the executor
  /// may read session fields safely).
  [[nodiscard]] std::vector<std::shared_ptr<ServerSession>> snapshot() const;

  [[nodiscard]] std::size_t size() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::shared_ptr<ServerSession>> sessions_;
};

}  // namespace netpart::server
