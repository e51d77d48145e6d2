#ifndef VBR_COMMON_THREAD_POOL_H_
#define VBR_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/budget.h"

namespace vbr {

// A fixed-size thread pool with a blocking ParallelFor, used by
// ViewPlanner::PlanMany to plan the queries of a batch concurrently (each
// query's CoreCover run is serial).
//
// Design notes:
//  * No work stealing: one shared atomic index per ParallelFor call hands
//    out loop indices. The per-task work (planning one query) is large
//    enough that contention on one counter is irrelevant, and the scheme
//    keeps the pool small and auditable.
//  * Deterministic results are the CALLER's contract: index-to-thread
//    assignment is nondeterministic, so callers write their output into a
//    pre-sized slot per index (results[i] from body(i)); every merge then
//    happens in index order and the outcome is independent of the thread
//    count and the schedule.
//  * The calling thread participates, so a pool constructed with
//    num_threads == 1 spawns no workers and ParallelFor degenerates to a
//    plain serial loop — bit-for-bit the single-threaded behavior.
//  * ParallelFor calls from inside a pool task run serially inline rather
//    than deadlocking; PlanMany never nests them, but the guard makes
//    nesting safe.
//  * The library does not use exceptions (see common/check.h), so task
//    bodies are assumed not to throw.
class ThreadPool {
 public:
  // Spawns `num_threads - 1` workers (the caller is the remaining thread).
  // 0 means DefaultThreadCount().
  explicit ThreadPool(size_t num_threads) {
    const size_t n = num_threads == 0 ? DefaultThreadCount() : num_threads;
    workers_.reserve(n - 1);
    for (size_t i = 1; i < n; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      shutdown_ = true;
      ++generation_;
    }
    cv_.notify_all();
    for (std::thread& t : workers_) t.join();
  }

  // Total threads that execute tasks (workers plus the calling thread).
  size_t num_threads() const { return workers_.size() + 1; }

  static size_t DefaultThreadCount() {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<size_t>(hw);
  }

  // Invokes body(i) for every i in [0, n), distributing indices over the
  // pool, and blocks until all invocations completed. Concurrent external
  // callers are serialized; a call from inside a pool task runs inline.
  void ParallelFor(size_t n, const std::function<void(size_t)>& body) {
    if (n == 0) return;
    if (workers_.empty() || n == 1 || in_pool_task_) {
      for (size_t i = 0; i < n; ++i) body(i);
      return;
    }
    std::lock_guard<std::mutex> serialize(for_mu_);
    auto state = std::make_shared<ForState>();
    state->body = &body;
    state->n = n;
    // Propagate the caller's resource governor into the pool: workers install
    // it around the loop body, so budget checks inside tasks already in
    // flight observe the same budget as the serial pipeline around them.
    state->governor = ResourceGovernor::Current();
    {
      std::lock_guard<std::mutex> lock(mu_);
      state_ = state;
      ++generation_;
    }
    cv_.notify_all();
    RunTasks(*state);
    {
      std::unique_lock<std::mutex> lock(state->mu);
      state->done.wait(lock, [&] { return state->completed == state->n; });
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      state_.reset();
    }
  }

 private:
  // Shared state of one ParallelFor call. Heap-allocated and shared_ptr-held
  // by every participating thread so a straggler that wakes up after the
  // caller returned touches live memory.
  struct ForState {
    const std::function<void(size_t)>* body = nullptr;
    size_t n = 0;
    ResourceGovernor* governor = nullptr;  // the ParallelFor caller's governor
    std::atomic<size_t> next{0};
    std::mutex mu;
    size_t completed = 0;  // guarded by mu
    std::condition_variable done;
  };

  void RunTasks(ForState& s) {
    GovernorScope scope(s.governor);
    size_t finished = 0;
    for (size_t i; (i = s.next.fetch_add(1, std::memory_order_relaxed)) < s.n;) {
      (*s.body)(i);
      ++finished;
    }
    if (finished > 0) {
      std::lock_guard<std::mutex> lock(s.mu);
      s.completed += finished;
      if (s.completed == s.n) s.done.notify_all();
    }
  }

  void WorkerLoop() {
    in_pool_task_ = true;
    uint64_t seen = 0;
    while (true) {
      std::shared_ptr<ForState> state;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return shutdown_ || generation_ != seen; });
        if (shutdown_) return;
        seen = generation_;
        state = state_;
      }
      if (state != nullptr) RunTasks(*state);
    }
  }

  std::vector<std::thread> workers_;
  std::mutex for_mu_;  // serializes external ParallelFor calls
  std::mutex mu_;      // guards state_, generation_, shutdown_
  std::condition_variable cv_;
  std::shared_ptr<ForState> state_;
  uint64_t generation_ = 0;
  bool shutdown_ = false;

  static thread_local bool in_pool_task_;
};

inline thread_local bool ThreadPool::in_pool_task_ = false;

}  // namespace vbr

#endif  // VBR_COMMON_THREAD_POOL_H_
