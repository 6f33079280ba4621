#pragma once

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <string>

#include "obs/ring.hpp"

/// \file events.hpp
/// Solver convergence event stream.  Kernels emit small numeric records —
/// one per Lanczos check, FM pass, sweep point, augmenting path — through
/// `NETPART_EVENT(...)`, into a lock-free bounded ring.  A run driver arms
/// the ring, runs, and drains it to NDJSON (one JSON object per line) for
/// offline convergence analysis.
///
/// Design constraints:
///  - Emission is wait-free and allocation-free (kernels emit from pool
///    worker threads, e.g. FM passes): the ring is the obs layer's seqlock
///    ring (ring.hpp).  Field names and kinds must be string literals.
///  - The ring is bounded and *drop-new*: once full, later events are
///    counted as dropped rather than overwriting earlier ones, so the head
///    of a convergence series (the interesting part) always survives.
///  - Disarmed cost is one inline relaxed atomic load and a branch per
///    site; the 32Ki slots are allocated on the first arm(), so a process
///    that never arms the ring never pays for them.

namespace netpart::obs {

/// One named numeric payload of an event.  `name` must be a string literal
/// (or otherwise outlive the ring); values are always doubles — cast
/// integers at the call site.
struct EventField {
  const char* name;
  double value;
};

inline constexpr std::size_t kEventRingCapacity = 1u << 15;
inline constexpr std::size_t kMaxEventFields = 4;

/// Process-wide bounded event ring.  arm() clears it and opens emission;
/// drain_*() serialize everything recorded since, in emission order.
class EventRing {
 public:
  static EventRing& instance();

  /// Clear the ring and open it for emission.  Allocates the slot array on
  /// first use (it is kept for the process lifetime afterwards).
  void arm();
  /// Close emission; recorded events stay drainable.
  void disarm();
  [[nodiscard]] static bool armed() {
    return armed_.load(std::memory_order_relaxed);
  }

  /// Record one event.  Wait-free; silently counts the event as dropped
  /// when the ring is full.  `kind` must be a string literal; at most
  /// kMaxEventFields fields are kept.
  void emit(const char* kind, std::initializer_list<EventField> fields);

  /// Events recorded since the last arm() (including dropped ones).
  [[nodiscard]] std::int64_t recorded() const;
  /// Events that did not fit in the ring since the last arm().
  [[nodiscard]] std::int64_t dropped() const;

  /// One `{"seq":N,"t_ms":...,"kind":"...",<fields>}` line per event,
  /// newline-terminated.  Call from a single thread once emitters are
  /// quiescent (between pipeline runs).
  [[nodiscard]] std::string drain_ndjson() const;
  /// The same records as a JSON array (for splicing into responses).
  [[nodiscard]] std::string drain_json_array() const;

 private:
  EventRing() = default;

  struct Event {
    double t_ms = 0.0;
    const char* kind = nullptr;
    std::uint32_t n_fields = 0;
    EventField fields[kMaxEventFields] = {};
  };

  void append_records(std::string& out, char separator) const;

  static inline std::atomic<bool> armed_{false};
  SeqlockRing<Event, RingPolicy::kDropNew> ring_;
};

}  // namespace netpart::obs

/// Emit one convergence event, e.g.
///   NETPART_EVENT("lanczos.iteration", {"j", j}, {"residual", r});
/// Field values must already be doubles (cast integers at the site).
/// Disarmed cost: one inline relaxed load and a branch; the arguments are
/// evaluated only while the ring is armed.
#define NETPART_EVENT(kind, ...)                                          \
  do {                                                                    \
    if (::netpart::obs::EventRing::armed())                               \
      ::netpart::obs::EventRing::instance().emit((kind), {__VA_ARGS__});  \
  } while (0)
