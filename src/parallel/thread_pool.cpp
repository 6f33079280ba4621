#include "parallel/thread_pool.hpp"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "obs/metrics.hpp"

namespace netpart::parallel {

namespace {

/// Lane of the enclosing parallel region on this thread; -1 when the thread
/// is not executing inside a region.  This is what makes nested regions run
/// inline and lets lane-local scratch (FM engines) find its slot.
thread_local std::int32_t tl_lane = -1;

}  // namespace

ThreadPool& ThreadPool::instance() {
  static ThreadPool pool;
  return pool;
}

std::int32_t ThreadPool::default_lanes() {
  if (const char* env = std::getenv("NETPART_THREADS");
      env != nullptr && *env != '\0') {
    char* tail = nullptr;
    const long parsed = std::strtol(env, &tail, 10);
    if (tail != nullptr && *tail == '\0' && parsed > 0 && parsed <= kMaxLanes)
      return static_cast<std::int32_t>(parsed);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return std::max<std::int32_t>(1, static_cast<std::int32_t>(hw));
}

std::int32_t ThreadPool::current_lane() { return tl_lane; }

void ThreadPool::mark_inline() { tl_lane = 0; }

ThreadPool::ThreadPool() { spawn_workers(default_lanes() - 1); }

ThreadPool::~ThreadPool() { stop_workers(); }

void ThreadPool::configure(std::int32_t lanes) {
  if (lanes > kMaxLanes)
    throw std::invalid_argument("thread pool: " + std::to_string(lanes) +
                                " lanes exceed the maximum of " +
                                std::to_string(kMaxLanes));
  if (lanes == 0) lanes = default_lanes();
  if (lanes < 1) lanes = 1;
  if (lanes == lanes_) return;
  stop_workers();
  spawn_workers(lanes - 1);
}

void ThreadPool::spawn_workers(std::int32_t count) {
  stopping_ = false;
  lanes_ = count + 1;
  workers_.reserve(static_cast<std::size_t>(count));
  for (std::int32_t w = 0; w < count; ++w)
    workers_.emplace_back([this, w] { worker_main(w + 1); });
}

void ThreadPool::stop_workers() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
  lanes_ = 1;
}

void ThreadPool::run_span(const Job& job, std::int64_t first_chunk,
                          std::int64_t last_chunk, std::size_t lane) {
  for (std::int64_t c = first_chunk; c < last_chunk; ++c) {
    const std::int64_t lo = job.begin + c * job.chunk;
    const std::int64_t hi = std::min(lo + job.chunk, job.end);
    (*job.fn)(lo, hi, lane);
  }
}

void ThreadPool::drain(Job& job, std::size_t lane) {
  const std::int32_t saved_lane = tl_lane;
  tl_lane = static_cast<std::int32_t>(lane);
  for (;;) {
    const std::int64_t c = job.next.fetch_add(1, std::memory_order_relaxed);
    if (c >= job.num_chunks) break;
    run_span(job, c, c + 1, lane);
  }
  tl_lane = saved_lane;
}

void ThreadPool::run_chunks(std::int64_t begin, std::int64_t end,
                            std::int64_t chunk, std::int32_t max_lanes,
                            const ChunkFn& fn) {
  if (end <= begin) return;
  if (chunk < 1) chunk = 1;
  Job job;
  job.begin = begin;
  job.end = end;
  job.chunk = chunk;
  job.num_chunks = (end - begin + chunk - 1) / chunk;
  job.fn = &fn;

  // Serial / nested / trivial regions: execute inline on the current lane.
  // Chunk boundaries are identical to the parallel path, so any reduction
  // built on top sees the same partial sums either way.
  const std::int32_t nested_lane = tl_lane;
  if (nested_lane >= 0 || lanes_ == 1 || job.num_chunks == 1 ||
      max_lanes == 1) {
    const std::size_t lane = nested_lane >= 0
                                 ? static_cast<std::size_t>(nested_lane)
                                 : std::size_t{0};
    run_span(job, 0, job.num_chunks, lane);
    return;
  }

  job.max_lanes = max_lanes > 0 ? std::min(max_lanes, lanes_) : lanes_;
  NETPART_COUNTER_ADD("pool.regions", 1);
  NETPART_COUNTER_ADD("pool.chunks", job.num_chunks);
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    current_ = &job;
    ++generation_;
  }
  work_cv_.notify_all();

  drain(job, 0);  // the caller is lane 0

  // All chunks are claimed; wait for workers still finishing theirs.  The
  // job lives on this stack frame, so it may not be unpublished until no
  // worker can still touch it.
  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [&] { return active_workers_ == 0; });
  current_ = nullptr;
}

void ThreadPool::worker_main(std::int32_t lane) {
  std::uint64_t seen_generation = 0;
  for (;;) {
    Job* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [&] {
        return stopping_ ||
               (current_ != nullptr && generation_ != seen_generation);
      });
      if (stopping_) return;
      seen_generation = generation_;
      job = current_;
      if (lane >= job->max_lanes) continue;  // capped out of this region
      ++active_workers_;
    }
    drain(*job, static_cast<std::size_t>(lane));
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      --active_workers_;
    }
    done_cv_.notify_one();
  }
}

}  // namespace netpart::parallel
