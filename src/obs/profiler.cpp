#include "obs/profiler.hpp"

#include <sys/time.h>

#include <algorithm>
#include <csignal>
#include <cstring>
#include <map>

#include "obs/metrics.hpp"

namespace netpart::obs {

// ---------------------------------------------------------------------------
// ProfileSnapshot exports
// ---------------------------------------------------------------------------

std::string ProfileSnapshot::to_folded() const {
  // Emit one sorted "path count" line per distinct path, with the
  // unattributed bucket participating in the sort like any other path so the
  // output is globally ordered (scripts/validate_folded.py checks this).
  std::vector<std::pair<std::string, std::int64_t>> lines = paths;
  if (unattributed_samples > 0)
    lines.emplace_back("(unattributed)", unattributed_samples);
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const auto& [path, count] : lines) {
    out += path;
    out += ' ';
    out += std::to_string(count);
    out += '\n';
  }
  return out;
}

std::string ProfileSnapshot::to_json() const {
  std::string out = "{\"total_samples\":";
  out += std::to_string(total_samples);
  out += ",\"unattributed_samples\":";
  out += std::to_string(unattributed_samples);
  out += ",\"torn_samples\":";
  out += std::to_string(torn_samples);
  out += ",\"dropped_samples\":";
  out += std::to_string(dropped_samples);
  out += ",\"interval_us\":";
  out += std::to_string(interval_us);
  out += ",\"samples\":{";
  for (std::size_t i = 0; i < paths.size(); ++i) {
    if (i > 0) out += ',';
    out += '"';
    out += json_escape(paths[i].first);
    out += "\":";
    out += std::to_string(paths[i].second);
  }
  out += "}}";
  return out;
}

namespace {

constexpr std::size_t kMaxDepth = 16;    ///< span frames kept per thread
constexpr std::size_t kMaxFrame = 48;    ///< bytes per frame name (incl. NUL)
constexpr std::size_t kMaxThreads = 64;  ///< registered-thread table size
constexpr std::size_t kTableSlots = 2048;  ///< aggregation slots (pow2)
constexpr std::size_t kMaxPath = 256;    ///< bytes per folded path
constexpr int kSeqlockRetries = 4;

/// Folded-format-safe frame byte: the separators of the folded line format
/// (';' between frames, ' ' before the count) and control bytes collapse
/// to '_' at push time, so exports never need escaping.
unsigned char sanitize(char c) {
  const auto u = static_cast<unsigned char>(c);
  if (c == ';' || c == ' ' || u < 0x20) return '_';
  return u;
}

/// One thread's profiler span stack.  Writers (that thread's push/pop) and
/// readers (the tick handler, on whatever thread the signal lands) are
/// synchronized by a seqlock: `seq` is odd mid-update, and a reader retries
/// until it sees the same even value on both sides of its copy.  All fields
/// are atomics accessed relaxed inside the seq window, so concurrent access
/// is well-defined (and ThreadSanitizer-clean) even when a read is torn.
struct ThreadState {
  std::atomic<std::uint32_t> seq{0};
  std::atomic<std::uint32_t> depth{0};
  std::atomic<bool> live{false};
  std::atomic<unsigned char> frames[kMaxDepth][kMaxFrame];
};

/// Registered threads.  Slots are claimed once and the pointed-to states are
/// never freed: the signal handler may dereference any entry at any time, so
/// a state whose thread exited is marked !live and recycled by the next new
/// thread instead of being deleted.
std::atomic<ThreadState*> g_threads[kMaxThreads];

/// Open-addressed path -> count table the tick handler folds samples into.
/// state: 0 = empty, 1 = claimed (publish in flight), 2 = ready.
struct TableSlot {
  std::atomic<std::uint32_t> state{0};
  std::atomic<std::int64_t> count{0};
  std::uint64_t hash = 0;
  std::uint32_t len = 0;
  char path[kMaxPath];
};

TableSlot g_table[kTableSlots];

std::atomic<std::int64_t> g_total{0};
std::atomic<std::int64_t> g_unattributed{0};
std::atomic<std::int64_t> g_torn{0};
std::atomic<std::int64_t> g_dropped{0};
std::atomic_flag g_sampling = ATOMIC_FLAG_INIT;

ThreadState* adopt_or_create_state() {
  // Prefer recycling a state whose thread has exited (pool reconfigures
  // join and respawn workers, so states churn at a bounded rate).
  for (auto& slot : g_threads) {
    ThreadState* state = slot.load(std::memory_order_acquire);
    if (state == nullptr) continue;
    bool expected = false;
    if (state->live.compare_exchange_strong(expected, true,
                                            std::memory_order_acq_rel)) {
      state->seq.fetch_add(1, std::memory_order_acq_rel);
      state->depth.store(0, std::memory_order_relaxed);
      state->seq.fetch_add(1, std::memory_order_release);
      return state;
    }
  }
  auto* state = new ThreadState();
  state->live.store(true, std::memory_order_relaxed);
  for (auto& slot : g_threads) {
    ThreadState* expected = nullptr;
    if (slot.compare_exchange_strong(expected, state,
                                     std::memory_order_acq_rel))
      return state;
  }
  delete state;  // table full: this thread simply goes unsampled
  return nullptr;
}

/// Lazily registers the thread on first span push and releases its state
/// for recycling at thread exit.
struct Registration {
  ThreadState* state = nullptr;
  Registration() : state(adopt_or_create_state()) {}
  ~Registration() {
    if (state == nullptr) return;
    state->seq.fetch_add(1, std::memory_order_acq_rel);
    state->depth.store(0, std::memory_order_relaxed);
    state->seq.fetch_add(1, std::memory_order_release);
    state->live.store(false, std::memory_order_release);
  }
};

thread_local Registration t_registration;

std::uint64_t fnv1a(const char* data, std::size_t len) {
  std::uint64_t hash = 1469598103934665603ull;
  for (std::size_t i = 0; i < len; ++i) {
    hash ^= static_cast<unsigned char>(data[i]);
    hash *= 1099511628211ull;
  }
  return hash;
}

/// Fold one sampled path into the table.  Async-signal-safe: CAS-claimed
/// slots, no locks, no allocation.  Two handlers publishing the same new
/// path concurrently may claim two slots; snapshot() re-merges by path.
void record_path(const char* path, std::uint32_t len) {
  const std::uint64_t hash = fnv1a(path, len);
  std::size_t index = hash & (kTableSlots - 1);
  for (std::size_t probe = 0; probe < kTableSlots; ++probe) {
    TableSlot& slot = g_table[index];
    std::uint32_t state = slot.state.load(std::memory_order_acquire);
    if (state == 0) {
      std::uint32_t expected = 0;
      if (slot.state.compare_exchange_strong(expected, 1,
                                             std::memory_order_acq_rel)) {
        slot.hash = hash;
        slot.len = len;
        std::memcpy(slot.path, path, len);
        slot.state.store(2, std::memory_order_release);
        slot.count.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      state = slot.state.load(std::memory_order_acquire);
    }
    if (state == 2 && slot.hash == hash && slot.len == len &&
        std::memcmp(slot.path, path, len) == 0) {
      slot.count.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    index = (index + 1) & (kTableSlots - 1);
  }
  g_dropped.fetch_add(1, std::memory_order_relaxed);
}

/// One profiler tick: snapshot every registered thread's span stack and fold
/// each non-empty path into the table.  Runs inside the SIGPROF handler, so
/// everything here must be async-signal-safe.
void take_sample() {
  if (g_sampling.test_and_set(std::memory_order_acq_rel)) return;
  g_total.fetch_add(1, std::memory_order_relaxed);
  bool attributed = false;
  bool torn = false;
  unsigned char local[kMaxDepth][kMaxFrame];
  char path[kMaxPath];
  for (auto& slot : g_threads) {
    ThreadState* state = slot.load(std::memory_order_acquire);
    if (state == nullptr) continue;
    std::uint32_t depth = 0;
    bool consistent = false;
    for (int retry = 0; retry < kSeqlockRetries && !consistent; ++retry) {
      const std::uint32_t seq1 = state->seq.load(std::memory_order_acquire);
      if ((seq1 & 1u) != 0) continue;  // writer mid-update
      depth = state->depth.load(std::memory_order_relaxed);
      const std::uint32_t frames = std::min<std::uint32_t>(depth, kMaxDepth);
      for (std::uint32_t f = 0; f < frames; ++f)
        for (std::size_t b = 0; b < kMaxFrame; ++b)
          local[f][b] = state->frames[f][b].load(std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_acquire);
      consistent = state->seq.load(std::memory_order_relaxed) == seq1;
    }
    if (!consistent) {
      torn = true;
      continue;
    }
    if (depth == 0) continue;
    const std::uint32_t frames = std::min<std::uint32_t>(depth, kMaxDepth);
    std::uint32_t len = 0;
    for (std::uint32_t f = 0; f < frames; ++f) {
      if (f > 0 && len < kMaxPath) path[len++] = ';';
      for (std::size_t b = 0; b < kMaxFrame && local[f][b] != 0; ++b)
        if (len < kMaxPath) path[len++] = static_cast<char>(local[f][b]);
    }
    if (len == 0) continue;
    record_path(path, len);
    attributed = true;
  }
  if (torn) g_torn.fetch_add(1, std::memory_order_relaxed);
  if (!attributed) g_unattributed.fetch_add(1, std::memory_order_relaxed);
  g_sampling.clear(std::memory_order_release);
}

void on_sigprof(int) { take_sample(); }

}  // namespace

std::atomic<bool> Profiler::frames_armed_{false};

Profiler& Profiler::instance() {
  static Profiler profiler;
  return profiler;
}

bool Profiler::start(std::int64_t interval_us) {
  if (running()) return false;
  for (auto& slot : g_table) {
    slot.state.store(0, std::memory_order_relaxed);
    slot.count.store(0, std::memory_order_relaxed);
  }
  g_total.store(0, std::memory_order_relaxed);
  g_unattributed.store(0, std::memory_order_relaxed);
  g_torn.store(0, std::memory_order_relaxed);
  g_dropped.store(0, std::memory_order_relaxed);
  interval_us_ = interval_us;
  timer_armed_ = false;
  frames_armed_.store(true, std::memory_order_relaxed);
  if (interval_us > 0) {
    struct sigaction action = {};
    action.sa_handler = on_sigprof;
    sigemptyset(&action.sa_mask);
    action.sa_flags = SA_RESTART;
    itimerval timer = {};
    timer.it_interval.tv_sec = interval_us / 1000000;
    timer.it_interval.tv_usec = static_cast<suseconds_t>(interval_us % 1000000);
    timer.it_value = timer.it_interval;
    if (sigaction(SIGPROF, &action, nullptr) != 0 ||
        setitimer(ITIMER_PROF, &timer, nullptr) != 0) {
      frames_armed_.store(false, std::memory_order_relaxed);
      return false;
    }
    timer_armed_ = true;
  }
  running_.store(true, std::memory_order_release);
  return true;
}

void Profiler::stop() {
  if (!running()) return;
  if (timer_armed_) {
    const itimerval disarm = {};
    setitimer(ITIMER_PROF, &disarm, nullptr);
    timer_armed_ = false;
  }
  frames_armed_.store(false, std::memory_order_relaxed);
  running_.store(false, std::memory_order_release);
}

void Profiler::sample_now() { take_sample(); }

ProfileSnapshot Profiler::snapshot() const {
  ProfileSnapshot out;
  out.total_samples = g_total.load(std::memory_order_relaxed);
  out.unattributed_samples = g_unattributed.load(std::memory_order_relaxed);
  out.torn_samples = g_torn.load(std::memory_order_relaxed);
  out.dropped_samples = g_dropped.load(std::memory_order_relaxed);
  out.interval_us = interval_us_;
  // Merge table slots by path: concurrent publication can briefly give one
  // path two slots, and a map also yields the sorted export order.
  std::map<std::string, std::int64_t> merged;
  for (const auto& slot : g_table) {
    if (slot.state.load(std::memory_order_acquire) != 2) continue;
    merged[std::string(slot.path, slot.len)] +=
        slot.count.load(std::memory_order_relaxed);
  }
  out.paths.assign(merged.begin(), merged.end());
  return out;
}

void Profiler::push_frame(std::string_view name) {
  ThreadState* state = t_registration.state;
  if (state == nullptr) return;
  const std::uint32_t depth = state->depth.load(std::memory_order_relaxed);
  state->seq.fetch_add(1, std::memory_order_acq_rel);
  if (depth < kMaxDepth) {
    auto& frame = state->frames[depth];
    std::size_t n = 0;
    for (const char c : name) {
      if (n >= kMaxFrame - 1) break;
      frame[n++].store(sanitize(c), std::memory_order_relaxed);
    }
    if (n == 0) frame[n++].store('_', std::memory_order_relaxed);
    frame[n].store(0, std::memory_order_relaxed);
  }
  // Depth advances past kMaxDepth so pops stay balanced; the overflow
  // frames simply are not recorded.
  state->depth.store(depth + 1, std::memory_order_relaxed);
  state->seq.fetch_add(1, std::memory_order_release);
}

void Profiler::pop_frame() {
  ThreadState* state = t_registration.state;
  if (state == nullptr) return;
  const std::uint32_t depth = state->depth.load(std::memory_order_relaxed);
  if (depth == 0) return;  // profiler armed mid-span: nothing to pop
  state->seq.fetch_add(1, std::memory_order_acq_rel);
  state->depth.store(depth - 1, std::memory_order_relaxed);
  state->seq.fetch_add(1, std::memory_order_release);
}

}  // namespace netpart::obs
