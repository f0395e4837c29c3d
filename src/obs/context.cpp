#include "obs/context.hpp"

#include <utility>

#include "util/thread_pool.hpp"

namespace crp::obs {

namespace {

std::uint64_t nextContextId() {
  // Starts at 1: id 0 is the SiteCache "never resolved" sentinel.
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

// Submit-time hook: capture the submitter's ambient context and
// re-install it around the task on the worker.  Tasks submitted
// outside any scope are passed through untouched — the worker's own
// ambient resolution already lands on the default context.
util::ThreadPool::Task wrapWithAmbientContext(util::ThreadPool::Task task) {
  ObsContext* context = detail::tlsCurrentContext;
  if (context == nullptr) return task;
  return [context, task = std::move(task)] {
    ObsContextScope scope(*context);
    task();
  };
}

}  // namespace

void detail::ensureTaskWrapperRegistered() {
  // Meyers-style once flag; no static-init-order hazard because the
  // wrapper slot itself is a constant-initialized atomic.
  static const bool registered = [] {
    util::ThreadPool::setTaskWrapper(&wrapWithAmbientContext);
    return true;
  }();
  (void)registered;
}

ObsContext::ObsContext() : id_(nextContextId()) {
  detail::ensureTaskWrapperRegistered();
}

ObsContext& ObsContext::defaultContext() {
  static ObsContext context;
  return context;
}

void ObsContext::reset() {
  metrics_.reset();
  tracer_.clear();
  flightRecorder_.clear();
}

}  // namespace crp::obs
