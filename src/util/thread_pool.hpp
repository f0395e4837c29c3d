// Fixed-size thread pool with a parallel-for helper.
//
// Alg. 2 of the paper runs candidate generation and candidate-cost
// estimation "in parallel"; this pool provides that parallelism.  The
// pool is deliberately minimal: a shared queue of std::function tasks
// plus parallelFor, which blocks the caller until every index is
// processed.  Determinism note: parallel loops in this codebase only
// write to disjoint per-index slots, so results are identical to the
// sequential execution regardless of scheduling.
//
// parallelFor uses dynamic (atomic-counter) chunk scheduling: workers
// pull small index ranges off a shared counter, so skewed per-index
// costs (candidate pricing varies heavily with net degree) cannot
// leave the pool idle behind one fat statically-assigned chunk.
//
// The calling thread participates in its own loop: it drains grains
// alongside the helpers it enqueued and then waits only for helpers
// that actually started.  Two consequences matter for the serve
// daemon, where many sessions share one pool:
//   * parallelFor is reentrant — a task running *on* the pool can call
//     parallelFor on the same pool without deadlocking (its helpers
//     may never be scheduled; the caller completes the loop alone),
//     and
//   * one session's loop never blocks on another session's unrelated
//     queued tasks (it waits on per-call state, not pool-wide
//     idleness).
//
// parallelFor rethrows the first exception its body threw on the
// calling thread.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace crp::util {

class ThreadPool {
 public:
  using Task = std::function<void()>;

  /// Process-wide hook applied to every task at submit time, so an
  /// upper layer can capture the submitter's thread-ambient state and
  /// re-install it on the worker (obs::ObsContext registers one that
  /// propagates the current observability context; see
  /// obs/context.cpp).  Must be a stateless function pointer: it is
  /// stored in a constant-initialized atomic, so registration has no
  /// static-init-order hazard.  Pass nullptr to clear.
  using TaskWrapper = Task (*)(Task);
  static void setTaskWrapper(TaskWrapper wrapper) {
    taskWrapper_.store(wrapper, std::memory_order_release);
  }
  static TaskWrapper taskWrapper() {
    return taskWrapper_.load(std::memory_order_acquire);
  }

  /// Creates `threads` workers; 0 means hardware concurrency (min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t threadCount() const { return workers_.size(); }

  /// Runs body(i) for i in [0, n); blocks until complete.  Indices are
  /// handed out in contiguous grains through a shared atomic cursor
  /// (dynamic load balancing); the calling thread drains grains too.
  /// The first exception thrown by `body` is rethrown here on the
  /// calling thread; remaining grains are abandoned (already-started
  /// ones still finish their grain).
  void parallelFor(std::size_t n, const std::function<void(std::size_t)>& body);

 private:
  /// Enqueues a task (wrapped by taskWrapper()) for a worker.  Tasks
  /// must not throw: parallelFor's helpers catch their body's errors.
  void submit(Task task);
  void workerLoop();

  inline static std::atomic<TaskWrapper> taskWrapper_{nullptr};

  std::vector<std::thread> workers_;
  std::queue<Task> tasks_;
  std::mutex mutex_;
  std::condition_variable taskReady_;
  bool stop_ = false;
};

}  // namespace crp::util
