#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>

/// \file ring.hpp
/// The obs layer's one lock-free bounded ring.  It carries the solver
/// convergence events (events.hpp) and the flight recorder's request
/// records and notes (flight_recorder.hpp).
///
/// Writers claim a slot with a fetch_add ticket and never block or
/// allocate.  Each slot is a seqlock: its sequence word reads 2t+1 while
/// the writer of ticket t copies the payload in and 2t+2 once it is
/// published.  The payload is T copied into relaxed atomic 64-bit words
/// held inline in the slot (the count is fixed by sizeof(T)), so a reader
/// racing a writer sees stale words, never undefined memory — the design is
/// TSan-clean.  A checksum over the words, bound to the publish sequence,
/// catches what the sequence word alone cannot: two writers a full lap
/// apart interleaving in one slot.  Readers skip every slot whose sequence
/// or checksum does not match its ticket, so a torn record is dropped,
/// never surfaced.
///
/// Two policies:
///  - kDropNew keeps the first `capacity` pushes and only counts the rest,
///    so the head of a series survives (convergence events);
///  - kOverwrite keeps the newest `capacity` pushes (flight recorder).
///
/// for_each() is the only reader.  It allocates nothing and takes no lock,
/// so the drains and the async-signal-safe post-mortem dump share it.

namespace netpart::obs {

enum class RingPolicy : std::uint8_t { kDropNew, kOverwrite };

template <typename T, RingPolicy Policy>
class SeqlockRing {
  static_assert(std::is_trivially_copyable_v<T>,
                "ring payloads are copied word by word");

 public:
  SeqlockRing() = default;
  SeqlockRing(const SeqlockRing&) = delete;
  SeqlockRing& operator=(const SeqlockRing&) = delete;

  /// Give the ring `capacity` slots, rounded up to a power of two (0 turns
  /// it off), and empty it.  Not safe concurrently with push().  The old
  /// slot array is leaked rather than freed, so a straggling writer can
  /// never touch freed memory; rings are sized O(1) times per process.
  void allocate(std::size_t capacity) {
    capacity_ = capacity == 0 ? 0 : std::bit_ceil(capacity);
    slots_ = capacity_ == 0 ? nullptr : new Slot[capacity_];
    head_.store(0, std::memory_order_relaxed);
  }

  /// Empty the ring and keep its slots.  Writers must be quiescent.  Ticket
  /// numbering restarts at 0, so the used slots' sequence words are zeroed:
  /// a stale slot must never validate against a reused ticket.
  void clear() {
    const std::uint64_t used = std::min<std::uint64_t>(
        head_.load(std::memory_order_relaxed), capacity_);
    for (std::uint64_t i = 0; i < used; ++i)
      slots_[i].seq.store(0, std::memory_order_relaxed);
    head_.store(0, std::memory_order_relaxed);
  }

  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// Pushes since allocate() or clear(), kept or not.
  [[nodiscard]] std::uint64_t pushed() const {
    return head_.load(std::memory_order_relaxed);
  }

  /// Pushes that hold no slot: dropped (kDropNew) or overwritten
  /// (kOverwrite).
  [[nodiscard]] std::uint64_t lost() const {
    const std::uint64_t n = pushed();
    return n > capacity_ ? n - capacity_ : 0;
  }

  /// Wait-free and allocation-free; a no-op on a ring without slots.
  void push(const T& item) {
    if (capacity_ == 0) return;
    const std::uint64_t ticket = head_.fetch_add(1, std::memory_order_relaxed);
    if constexpr (Policy == RingPolicy::kDropNew) {
      if (ticket >= capacity_) return;  // full: lost() counts it
    }
    Slot& slot = slots_[ticket & (capacity_ - 1)];
    slot.seq.store(2 * ticket + 1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
    std::uint64_t staged[kWords] = {};
    std::memcpy(staged, &item, sizeof(T));
    for (std::size_t w = 0; w < kWords; ++w)
      slot.words[w].store(staged[w], std::memory_order_relaxed);
    slot.check.store(checksum(staged) ^ (2 * ticket + 2),
                     std::memory_order_relaxed);
    slot.seq.store(2 * ticket + 2, std::memory_order_release);
  }

  /// Call fn(ticket, item) for every kept record, oldest first, skipping
  /// slots caught mid-write.  Stops and returns false as soon as fn returns
  /// false.  Allocation-free and async-signal-safe.
  template <typename Fn>
  bool for_each(Fn&& fn) const {
    if (capacity_ == 0) return true;
    const std::uint64_t end = head_.load(std::memory_order_acquire);
    const std::uint64_t count = std::min<std::uint64_t>(end, capacity_);
    const std::uint64_t first =
        Policy == RingPolicy::kDropNew ? 0 : end - count;
    for (std::uint64_t ticket = first; ticket < first + count; ++ticket) {
      const Slot& slot = slots_[ticket & (capacity_ - 1)];
      const std::uint64_t published = 2 * ticket + 2;
      if (slot.seq.load(std::memory_order_acquire) != published) continue;
      std::uint64_t staged[kWords];
      for (std::size_t w = 0; w < kWords; ++w)
        staged[w] = slot.words[w].load(std::memory_order_relaxed);
      const std::uint64_t check = slot.check.load(std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_acquire);
      if (slot.seq.load(std::memory_order_relaxed) != published) continue;
      if (check != (checksum(staged) ^ published)) continue;
      T item;
      std::memcpy(&item, staged, sizeof(T));
      if (!fn(ticket, item)) return false;
    }
    return true;
  }

 private:
  static constexpr std::size_t kWords = (sizeof(T) + 7) / 8;

  struct Slot {
    std::atomic<std::uint64_t> seq{0};
    std::atomic<std::uint64_t> check{0};
    std::atomic<std::uint64_t> words[kWords];
  };

  /// FNV-1a over the payload words.
  static std::uint64_t checksum(const std::uint64_t* words) {
    std::uint64_t h = 1469598103934665603ULL;
    for (std::size_t i = 0; i < kWords; ++i) {
      h ^= words[i];
      h *= 1099511628211ULL;
    }
    return h;
  }

  std::atomic<std::uint64_t> head_{0};
  Slot* slots_ = nullptr;
  std::size_t capacity_ = 0;
};

}  // namespace netpart::obs
