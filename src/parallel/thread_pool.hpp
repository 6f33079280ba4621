#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

/// \file thread_pool.hpp
/// Shared deterministic parallel runtime (docs/PERFORMANCE.md).
///
/// One process-wide fixed-size pool executes every parallel region in the
/// library: SpMV rows, reduction chunks, FM multi-start runs, multiway
/// decomposition branches.  The design enforces two contracts:
///
///  - **Determinism.**  Work is split into chunks whose boundaries depend
///    only on the problem size, never on the thread count; threads race
///    only for *which chunk they execute*, and every chunk writes to its
///    own output slot.  Reductions combine per-chunk partials in chunk
///    order on the calling thread (see parallel_for.hpp), so results are
///    bit-identical for any lane count, including 1.
///
///  - **No nested pools.**  A parallel region entered from inside another
///    parallel region runs inline on the calling lane.  Outer-level
///    parallelism (FM starts, multiway branches) therefore composes with
///    inner kernels (SpMV, dot) without oversubscription or deadlock.
///
/// The calling thread always participates as lane 0; `lanes() - 1` parked
/// worker threads take lanes 1..lanes()-1.  With lanes() == 1 the pool owns
/// no threads at all and every region degrades to a plain serial loop.

namespace netpart::parallel {

/// Fixed element count per reduction chunk.  This constant defines the
/// floating-point summation order of deterministic reductions; changing it
/// changes low-order bits of large dot products (and must be accompanied by
/// re-recording any goldens that depend on them).
inline constexpr std::int64_t kReductionChunk = 4096;

/// Upper bound on a lane count: `configure`, netpartd's executor pool and
/// every lane flag refuse more, and `default_lanes` ignores a larger
/// NETPART_THREADS.  Each lane is an OS thread.
inline constexpr std::int32_t kMaxLanes = 4096;

class ThreadPool {
 public:
  /// The process-wide pool.  First use spawns `default_lanes() - 1` workers.
  static ThreadPool& instance();

  /// Lane count used when the pool is not explicitly configured: the
  /// NETPART_THREADS environment variable when set to an integer in
  /// [1, kMaxLanes], otherwise std::thread::hardware_concurrency() (at
  /// least 1).
  [[nodiscard]] static std::int32_t default_lanes();

  /// Resize the pool to `lanes` total lanes (0 = default_lanes()).  Joins
  /// and respawns workers; must not race an in-flight parallel region —
  /// call it from the orchestrating thread between regions (CLI startup,
  /// test SetUp).  Throws std::invalid_argument, leaving the pool as it
  /// was, when `lanes` exceeds kMaxLanes.
  void configure(std::int32_t lanes);

  /// Total lanes, including the calling thread.  Always >= 1.
  [[nodiscard]] std::int32_t lanes() const { return lanes_; }

  /// fn(lo, hi, lane): process [lo, hi) on lane `lane`.
  using ChunkFn = std::function<void(std::int64_t, std::int64_t, std::size_t)>;

  /// Execute fn over [begin, end) split into fixed chunks of `chunk`
  /// elements.  The caller participates and blocks until every chunk has
  /// completed.  `max_lanes` caps the number of participating lanes
  /// (0 = all); chunk *boundaries* are unaffected by it.  Nested calls (from
  /// inside another region's fn) run all chunks inline on the current lane.
  /// fn must not throw.
  void run_chunks(std::int64_t begin, std::int64_t end, std::int64_t chunk,
                  std::int32_t max_lanes, const ChunkFn& fn);

  /// Lane the calling thread is executing on, or -1 outside any region.
  /// Exposed for lane-local scratch (e.g. one FmEngine per lane).
  [[nodiscard]] static std::int32_t current_lane();

  /// Permanently pin the calling thread to inline execution: every region
  /// it enters runs serially on the caller, exactly as a nested region
  /// would.  Executor pools that run several independent compute requests
  /// concurrently use this — the shared pool supports only one top-level
  /// run_chunks() caller, so each serving lane opts out of worker fan-out
  /// instead of racing for it.  Results are unchanged: the fixed-chunk
  /// contract makes the inline path bit-identical to any lane count.
  static void mark_inline();

  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

 private:
  ThreadPool();

  struct Job {
    std::int64_t begin = 0;
    std::int64_t end = 0;
    std::int64_t chunk = 1;
    std::int64_t num_chunks = 0;
    std::int32_t max_lanes = 0;
    const ChunkFn* fn = nullptr;
    std::atomic<std::int64_t> next{0};  ///< next unclaimed chunk index
  };

  void spawn_workers(std::int32_t count);
  void stop_workers();
  void worker_main(std::int32_t lane);
  static void run_span(const Job& job, std::int64_t first_chunk,
                       std::int64_t last_chunk, std::size_t lane);
  /// Claim-and-execute loop shared by the caller and the workers.
  static void drain(Job& job, std::size_t lane);

  std::int32_t lanes_ = 1;
  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable work_cv_;   ///< workers wait here for a job
  std::condition_variable done_cv_;   ///< the caller waits here for drain
  Job* current_ = nullptr;            ///< guarded by mutex_
  std::uint64_t generation_ = 0;      ///< bumped per job, guarded by mutex_
  std::int32_t active_workers_ = 0;   ///< workers inside drain(), guarded
  bool stopping_ = false;
};

}  // namespace netpart::parallel
