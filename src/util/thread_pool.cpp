#include "util/thread_pool.hpp"

#include <algorithm>
#include <exception>
#include <memory>
#include <utility>

namespace crp::util {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { workerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  taskReady_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::submit(Task task) {
  if (TaskWrapper wrapper = taskWrapper()) {
    task = wrapper(std::move(task));
  }
  {
    std::lock_guard lock(mutex_);
    tasks_.push(std::move(task));
  }
  taskReady_.notify_one();
}

void ThreadPool::parallelFor(std::size_t n,
                             const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  const std::size_t workers = workers_.size();
  // Grain: small enough that skewed per-index costs balance across
  // workers, large enough to amortize the atomic fetch.
  const std::size_t grain =
      std::max<std::size_t>(1, n / (workers * 16 + 1));
  const std::size_t grains = (n + grain - 1) / grain;

  // Shared by value (shared_ptr) with the helpers: a helper that only
  // gets scheduled after this frame returned (possible when every
  // worker is busy with other sessions' tasks) must still be able to
  // touch the cursor safely — it will find it exhausted and leave.
  struct ForState {
    std::atomic<std::size_t> cursor{0};
    std::atomic<bool> aborted{false};
    std::exception_ptr error;
    std::mutex mutex;
    std::condition_variable idle;
    std::size_t active = 0;  ///< helpers between enter and exit
  };
  auto state = std::make_shared<ForState>();

  const auto drain = [state, &body, n, grain] {
    for (;;) {
      if (state->aborted.load(std::memory_order_relaxed)) return;
      const std::size_t begin =
          state->cursor.fetch_add(grain, std::memory_order_relaxed);
      if (begin >= n) return;
      const std::size_t end = std::min(n, begin + grain);
      try {
        for (std::size_t i = begin; i < end; ++i) body(i);
      } catch (...) {
        std::lock_guard lock(state->mutex);
        if (!state->error) state->error = std::current_exception();
        state->aborted.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };

  // The caller drains too, so helpers only help with grains beyond the
  // caller's first.  A helper registers (active++) *before* touching
  // the cursor: once the caller's own drain finds the cursor
  // exhausted, any helper not yet registered can never claim work, so
  // waiting for active == 0 covers exactly the helpers that might
  // still be running `body` (and is a no-wait when none started —
  // the reentrant case where the pool has no free worker).
  const std::size_t helpers = std::min(workers, grains - 1);
  for (std::size_t t = 0; t < helpers; ++t) {
    submit([state, drain] {
      {
        std::lock_guard lock(state->mutex);
        ++state->active;
      }
      drain();
      std::lock_guard lock(state->mutex);
      if (--state->active == 0) state->idle.notify_all();
    });
  }
  drain();
  {
    std::unique_lock lock(state->mutex);
    state->idle.wait(lock, [&] { return state->active == 0; });
  }
  if (state->error) std::rethrow_exception(state->error);
}

void ThreadPool::workerLoop() {
  for (;;) {
    Task task;
    {
      std::unique_lock lock(mutex_);
      taskReady_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

}  // namespace crp::util
