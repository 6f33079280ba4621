#include "obs/flight_recorder.hpp"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <chrono>
#include <cstring>

namespace netpart::obs {
namespace {

// Class labels mirror runtime::class_name(); obs cannot depend on the
// server target, so the three admission-class names are duplicated here
// (guarded by FlightRecorderClassLabelsMatchAdmission in server_test).
const char* class_label(std::uint8_t cls) {
  switch (cls) {
    case 0:
      return "hit";
    case 1:
      return "warm";
    case 2:
      return "cold";
    default:
      return "unknown";
  }
}

std::int64_t wall_now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Async-signal-safe line formatting.  No snprintf, no allocation: hand-rolled
// appends into a caller-provided buffer.  Shared by the signal-handler dump
// and the debug-op JSON drain so both emit byte-identical lines.

struct LineBuf {
  char* data;
  std::size_t cap;
  std::size_t len = 0;

  void put(char c) {
    if (len < cap) data[len++] = c;
  }
  void puts(const char* s) {
    while (*s != '\0') put(*s++);
  }
  void put_int(std::int64_t v) {
    char tmp[24];
    std::size_t n = 0;
    std::uint64_t u =
        v < 0 ? ~static_cast<std::uint64_t>(v) + 1 : static_cast<std::uint64_t>(v);
    if (v < 0) put('-');
    do {
      tmp[n++] = static_cast<char>('0' + u % 10);
      u /= 10;
    } while (u != 0);
    while (n > 0) put(tmp[--n]);
  }
  void put_hex64(std::uint64_t v) {
    static const char digits[] = "0123456789abcdef";
    for (int shift = 60; shift >= 0; shift -= 4) {
      put(digits[(v >> shift) & 0xF]);
    }
  }
  /// Quoted string from a NUL-padded inline char array; the recorder only
  /// stores op names and note kinds, but escape the JSON specials anyway.
  void put_quoted(const char* s, std::size_t max) {
    put('"');
    for (std::size_t i = 0; i < max && s[i] != '\0'; ++i) {
      const char c = s[i];
      if (c == '"' || c == '\\') {
        put('\\');
        put(c);
      } else if (static_cast<unsigned char>(c) >= 0x20) {
        put(c);
      }
    }
    put('"');
  }
};

std::size_t format_line(char* buf, std::size_t cap, const FlightRecord& r) {
  LineBuf out{buf, cap};
  out.puts("{\"type\":\"request\",\"trace_id\":");
  if ((r.trace_hi | r.trace_lo) != 0) {
    out.put('"');
    out.put_hex64(r.trace_hi);
    out.put_hex64(r.trace_lo);
    out.puts("\",\"span_id\":\"");
    out.put_hex64(r.span_id);
    out.put('"');
  } else {
    out.puts("null,\"span_id\":null");
  }
  out.puts(",\"id\":");
  out.put_int(r.request_id);
  out.puts(",\"ts_ms\":");
  out.put_int(r.wall_ms);
  out.puts(",\"lane\":");
  out.put_int(r.lane);
  out.puts(",\"class\":\"");
  out.puts(class_label(r.cls));
  out.puts("\",\"outcome\":\"");
  out.puts(flight_outcome_name(static_cast<FlightOutcome>(r.outcome)));
  out.puts("\",\"op\":");
  out.put_quoted(r.op, sizeof(r.op));
  out.puts(",\"stages_us\":{");
  for (std::size_t i = 0; i < kNumStages; ++i) {
    if (i != 0) out.put(',');
    out.put('"');
    out.puts(stage_name(static_cast<Stage>(i)));
    out.puts("\":");
    out.put_int(r.stage_us[i]);
  }
  out.puts("}}");
  return out.len;
}

std::size_t format_line(char* buf, std::size_t cap, const FlightNote& n) {
  LineBuf out{buf, cap};
  out.puts("{\"type\":\"note\",\"ts_ms\":");
  out.put_int(n.wall_ms);
  out.puts(",\"kind\":");
  out.put_quoted(n.kind, sizeof(n.kind));
  out.puts(",\"value\":");
  out.put_int(n.value);
  out.put('}');
  return out.len;
}

constexpr std::size_t kLineCap = 512;

bool write_all(int fd, const char* buf, std::size_t n, std::int64_t* total) {
  std::size_t off = 0;
  while (off < n) {
    const ssize_t w = ::write(fd, buf + off, n - off);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(w);
  }
  *total += static_cast<std::int64_t>(n);
  return true;
}

/// A ring's surviving records as a JSON array, one format_line() each.
template <typename Ring>
std::string to_json_array(const Ring& ring) {
  std::string out = "[";
  char line[kLineCap];
  ring.for_each([&](std::uint64_t, const auto& item) {
    if (out.size() > 1) out += ',';
    out.append(line, format_line(line, sizeof(line), item));
    return true;
  });
  out += ']';
  return out;
}

/// A ring's surviving records, oldest first.
template <typename T, typename Ring>
std::vector<T> collect(const Ring& ring) {
  std::vector<T> out;
  ring.for_each([&](std::uint64_t, const T& item) {
    out.push_back(item);
    return true;
  });
  return out;
}

// ---------------------------------------------------------------------------
// Crash handler state.  The path lives in a fixed buffer (a std::string
// member could reallocate; the handler may only read plain memory).

char g_postmortem_path[256] = {};
std::atomic<int> g_dump_active{0};

void crash_handler(int sig) {
  int expected = 0;
  if (g_dump_active.compare_exchange_strong(expected, 1,
                                            std::memory_order_acq_rel)) {
    if (g_postmortem_path[0] != '\0') {
      const int fd =
          ::open(g_postmortem_path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd >= 0) {
        FlightRecorder::instance().dump_to_fd(fd, sig);
        ::close(fd);
      }
    }
    g_dump_active.store(0, std::memory_order_release);
  }
  if (sig != SIGQUIT) {
    ::signal(sig, SIG_DFL);
    ::raise(sig);
  }
}

}  // namespace

const char* flight_outcome_name(FlightOutcome o) {
  switch (o) {
    case FlightOutcome::kRunning:
      return "running";
    case FlightOutcome::kOk:
      return "ok";
    case FlightOutcome::kError:
      return "error";
    case FlightOutcome::kDeadline:
      return "deadline";
    case FlightOutcome::kShed:
      return "shed";
  }
  return "unknown";
}

void FlightRecord::set_op(const char* name) {
  std::size_t i = 0;
  for (; name[i] != '\0' && i + 1 < sizeof(op); ++i) op[i] = name[i];
  for (; i < sizeof(op); ++i) op[i] = '\0';
}

void FlightNote::set_kind(const char* name) {
  std::size_t i = 0;
  for (; name[i] != '\0' && i + 1 < sizeof(kind); ++i) kind[i] = name[i];
  for (; i < sizeof(kind); ++i) kind[i] = '\0';
}

// ---------------------------------------------------------------------------
// FlightRecorder.

FlightRecorder& FlightRecorder::instance() {
  static FlightRecorder recorder;
  return recorder;
}

void FlightRecorder::configure(std::size_t capacity) {
  if (capacity != 0 && std::bit_ceil(capacity) == records_.capacity()) return;
  records_.allocate(capacity);
  // Notes are rarer than requests; a quarter of the ring is plenty.
  notes_.allocate(capacity == 0 ? 0 : (capacity + 3) / 4);
}

void FlightRecorder::note(const char* kind, std::int64_t value) {
  if (notes_.capacity() == 0) return;
  FlightNote n;
  n.wall_ms = wall_now_ms();
  n.value = value;
  n.set_kind(kind);
  notes_.push(n);
}

std::vector<FlightRecord> FlightRecorder::snapshot_records() const {
  return collect<FlightRecord>(records_);
}

std::vector<FlightNote> FlightRecorder::snapshot_notes() const {
  return collect<FlightNote>(notes_);
}

std::string FlightRecorder::records_to_json() const {
  return to_json_array(records_);
}

std::string FlightRecorder::notes_to_json() const {
  return to_json_array(notes_);
}

std::int64_t FlightRecorder::dump_to_fd(int fd, int signal_number) const {
  std::int64_t total = 0;
  char line[kLineCap];
  LineBuf header{line, sizeof(line)};
  header.puts("{\"type\":\"postmortem\",\"signal\":");
  header.put_int(signal_number);
  header.puts(",\"recorded\":");
  header.put_int(static_cast<std::int64_t>(recorded()));
  header.puts(",\"overwritten\":");
  header.put_int(static_cast<std::int64_t>(overwritten()));
  header.puts(",\"capacity\":");
  header.put_int(static_cast<std::int64_t>(capacity()));
  header.puts("}\n");
  if (!write_all(fd, line, header.len, &total)) return -1;
  // The rings' own allocation-free reader; the line buffer keeps one byte
  // free for the newline.
  const auto write_line = [&](std::uint64_t, const auto& item) {
    std::size_t n = format_line(line, sizeof(line) - 1, item);
    line[n++] = '\n';
    return write_all(fd, line, n, &total);
  };
  if (!records_.for_each(write_line) || !notes_.for_each(write_line))
    return -1;
  return total;
}

bool FlightRecorder::install_crash_handlers(const std::string& path,
                                            std::string* error) {
  if (path.size() + 1 > sizeof(g_postmortem_path)) {
    if (error != nullptr) *error = "postmortem path too long";
    return false;
  }
  instance();  // force singleton construction outside any signal context
  std::memcpy(g_postmortem_path, path.c_str(), path.size() + 1);
  struct sigaction sa = {};
  sa.sa_handler = crash_handler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;
  for (const int sig : {SIGSEGV, SIGABRT, SIGBUS, SIGQUIT}) {
    if (sigaction(sig, &sa, nullptr) != 0) {
      if (error != nullptr) {
        *error = std::string("sigaction failed for signal ") +
                 std::to_string(sig);
      }
      return false;
    }
  }
  return true;
}

std::string FlightRecorder::postmortem_path() {
  return std::string(g_postmortem_path);
}

}  // namespace netpart::obs
