#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/ring.hpp"
#include "obs/trace_context.hpp"

/// \file flight_recorder.hpp
/// Crash-safe in-memory flight recorder (docs/OBSERVABILITY.md#flight-recorder).
///
/// The recorder keeps the last N completed-or-in-flight request records and
/// a smaller ring of recent solver/server events in fixed, lock-free rings.
/// It answers two questions a stats snapshot cannot: "what exactly was the
/// daemon doing just now?" (drained live via the `debug` op) and "what was
/// it doing when it died?" (dumped from SIGSEGV/SIGABRT/SIGBUS/SIGQUIT
/// handlers to an NDJSON post-mortem file using only async-signal-safe
/// calls).
///
/// Both rings are the obs layer's seqlock ring (ring.hpp) with the
/// overwrite policy: writers claim tickets with a fetch_add and never block,
/// and readers discard slots caught mid-write instead of surfacing them.
/// The rings never allocate after configure(), so record() is safe on any
/// thread and dump_to_fd() is safe inside a signal handler.

namespace netpart::obs {

/// Outcome of a recorded request.  kRunning records are written when a
/// lane picks the request up and are superseded (same ticket semantics,
/// newer slot) by the final record — a post-mortem that ends with a
/// kRunning record names the in-flight casualty.
enum class FlightOutcome : std::uint8_t {
  kRunning = 0,
  kOk,
  kError,
  kDeadline,
  kShed,
};

[[nodiscard]] const char* flight_outcome_name(FlightOutcome o);

/// One request record.  Trivially copyable and word-packable: it is copied
/// through relaxed atomic words, so no pointers, no strings — the op name
/// is a truncated inline char array.
struct FlightRecord {
  std::uint64_t trace_hi = 0;
  std::uint64_t trace_lo = 0;
  std::uint64_t span_id = 0;
  std::int64_t request_id = 0;
  std::int64_t wall_ms = 0;  ///< unix wall clock at record time
  std::int32_t lane = -1;
  std::uint8_t cls = 0;  ///< runtime::RequestClass value (0 hit/1 warm/2 cold)
  std::uint8_t outcome = 0;  ///< FlightOutcome value
  char op[14] = {};          ///< NUL-padded, truncated op name
  std::array<std::int32_t, kNumStages> stage_us{};

  void set_op(const char* name);
};

/// One free-form event record ("session evicted", "lane stalled", ...).
struct FlightNote {
  std::int64_t wall_ms = 0;
  std::int64_t value = 0;
  char kind[24] = {};  ///< NUL-padded, truncated label

  void set_kind(const char* name);
};

/// Process-wide recorder.  configure() before serving; record()/note() from
/// any thread; snapshot()/*_to_json from a draining thread; dump_to_fd()
/// from anywhere including signal handlers.
class FlightRecorder {
 public:
  /// The process singleton (what the crash handlers dump).
  static FlightRecorder& instance();

  /// (Re)allocate the rings.  `capacity` is rounded up to a power of two;
  /// 0 disables recording entirely.  Not safe concurrently with record() —
  /// call before the server starts accepting (server_test reconfigures
  /// between fixtures, which is fine because the old server has drained).
  void configure(std::size_t capacity);

  [[nodiscard]] bool enabled() const { return records_.capacity() != 0; }
  [[nodiscard]] std::size_t capacity() const { return records_.capacity(); }

  /// Total records ever written; min(recorded, capacity) survive.
  [[nodiscard]] std::uint64_t recorded() const { return records_.pushed(); }
  [[nodiscard]] std::uint64_t overwritten() const { return records_.lost(); }

  void record(const FlightRecord& rec) { records_.push(rec); }
  void note(const char* kind, std::int64_t value);

  /// Oldest-first consistent copies of the surviving slots.  Slots caught
  /// mid-write (seq mismatch or checksum failure) are skipped.
  [[nodiscard]] std::vector<FlightRecord> snapshot_records() const;
  [[nodiscard]] std::vector<FlightNote> snapshot_notes() const;

  /// JSON arrays for the `debug` op (raw values, caller splices them in).
  [[nodiscard]] std::string records_to_json() const;
  [[nodiscard]] std::string notes_to_json() const;

  /// Write the post-mortem NDJSON to an open fd: one header object, then
  /// one line per surviving record and note.  Uses only write(2) and stack
  /// buffers — async-signal-safe.  `signal_number` goes in the header
  /// (0 = on-demand dump).  Returns bytes written, -1 on write error.
  std::int64_t dump_to_fd(int fd, int signal_number) const;

  /// Install SIGSEGV/SIGABRT/SIGBUS/SIGQUIT handlers that dump the
  /// singleton to `path` (truncating).  SIGQUIT dumps and resumes; the
  /// fatal three dump, restore the default handler and re-raise.  Returns
  /// false (with `error` set) if a handler could not be installed.
  static bool install_crash_handlers(const std::string& path,
                                     std::string* error);

  /// Path configured via install_crash_handlers, empty if none.
  static std::string postmortem_path();

 private:
  FlightRecorder() = default;

  SeqlockRing<FlightRecord, RingPolicy::kOverwrite> records_;
  SeqlockRing<FlightNote, RingPolicy::kOverwrite> notes_;
};

}  // namespace netpart::obs
