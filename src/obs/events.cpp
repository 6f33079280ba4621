#include "obs/events.hpp"

#include <chrono>

#include "obs/metrics.hpp"

namespace netpart::obs {

EventRing& EventRing::instance() {
  static EventRing ring;
  return ring;
}

void EventRing::arm() {
  if (ring_.capacity() == 0)
    ring_.allocate(kEventRingCapacity);
  else
    ring_.clear();
  armed_.store(true, std::memory_order_release);
}

void EventRing::disarm() { armed_.store(false, std::memory_order_release); }

void EventRing::emit(const char* kind,
                     std::initializer_list<EventField> fields) {
  // Acquire pairs with arm()'s release so the slot array is visible.
  if (!armed_.load(std::memory_order_acquire)) return;
  Event ev;
  ev.t_ms = std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now().time_since_epoch())
                .count();
  ev.kind = kind;
  for (const EventField& field : fields) {
    if (ev.n_fields == kMaxEventFields) break;
    ev.fields[ev.n_fields++] = field;
  }
  ring_.push(ev);
}

std::int64_t EventRing::recorded() const {
  return static_cast<std::int64_t>(ring_.pushed());
}

std::int64_t EventRing::dropped() const {
  return static_cast<std::int64_t>(ring_.lost());
}

void EventRing::append_records(std::string& out, char separator) const {
  bool first = true;
  ring_.for_each([&](std::uint64_t seq, const Event& ev) {
    if (!first) out += separator;
    first = false;
    out += "{\"seq\":";
    out += std::to_string(seq);
    out += ",\"t_ms\":";
    json_append_number(out, ev.t_ms);
    out += ",\"kind\":\"";
    out += json_escape(ev.kind != nullptr ? ev.kind : "");
    out += '"';
    for (std::uint32_t f = 0; f < ev.n_fields; ++f) {
      out += ",\"";
      out += json_escape(ev.fields[f].name != nullptr ? ev.fields[f].name
                                                      : "");
      out += "\":";
      json_append_number(out, ev.fields[f].value);
    }
    out += '}';
    return true;
  });
}

std::string EventRing::drain_ndjson() const {
  std::string out;
  append_records(out, '\n');
  if (!out.empty()) out += '\n';
  return out;
}

std::string EventRing::drain_json_array() const {
  std::string out = "[";
  append_records(out, ',');
  out += ']';
  return out;
}

}  // namespace netpart::obs
