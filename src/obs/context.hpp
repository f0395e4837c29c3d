// Per-session observability context.
//
// An ObsContext bundles one metrics registry, one tracer and one flight
// recorder into a unit a session owns outright, so two flows in one
// process — `runEco` after `run`, or two `crp serve` sessions on the
// shared worker pool — never interleave each other's counters, spans
// or flight events, nor corrupt each other's RunReport counter deltas.
//
// Resolution is *ambient* and has one mechanism: instrumented code
// never names a context.  The CRP_OBS_* macros (obs.hpp) resolve the
// innermost ObsContextScope installed on the current thread, falling
// back to the process-default context (CLI, tests, benches).
// ThreadPool workers inherit the *submitter's* context: ObsContext
// registers a ThreadPool task wrapper that captures the ambient
// context at submit time and re-installs it around the task, so a
// session's parallelFor bodies record into the session's instruments
// no matter which worker runs them.  Installing a scope only stores a
// pointer in a thread-local: a parallelFor helper that runs after its
// loop returned (and its context may be gone) touches nothing through
// it before finding the loop's cursor used up.
//
// Hot-path contract (benches): a disabled-context macro hit costs one
// thread-local load plus one relaxed atomic load.  An enabled counter
// hit adds a per-call-site thread_local {contextId, pointer} cache —
// context ids are monotonically assigned and never reused (the same
// trick Tracer uses for its thread-log cache), so a cached instrument
// pointer is revalidated with a single integer compare and can never
// be dereferenced stale.
#pragma once

#include <atomic>
#include <cstdint>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
// Not used here: flowbench/src/eco_serve.cpp reaches <iostream>
// through this include and does not include it itself.
#include "util/logger.hpp"

namespace crp::obs {

class ObsContext {
 public:
  /// A fresh context with its own registry, tracer and flight recorder
  /// (starts disabled).
  ObsContext();

  ObsContext(const ObsContext&) = delete;
  ObsContext& operator=(const ObsContext&) = delete;

  /// The process-default context — what ambient resolution falls back
  /// to outside any ObsContextScope.
  static ObsContext& defaultContext();

  /// Monotonic, never reused, never 0 (0 is the site caches' "empty").
  std::uint64_t id() const { return id_; }

  MetricsRegistry& metrics() { return metrics_; }
  Tracer& tracer() { return tracer_; }
  FlightRecorder& flightRecorder() { return flightRecorder_; }

  /// Runtime instrument gate for flows under *this* context.
  bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }
  void setEnabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Clears this context's registry, tracer, and flight recorder
  /// (instrument pointers stay valid; see MetricsRegistry::reset).
  /// Other contexts are untouched — that scoping is the point.
  void reset();

 private:
  const std::uint64_t id_;
  std::atomic<bool> enabled_{false};
  MetricsRegistry metrics_;
  Tracer tracer_;
  FlightRecorder flightRecorder_;
};

namespace detail {

/// Innermost installed context for this thread; null = default.
inline thread_local ObsContext* tlsCurrentContext = nullptr;

/// Registers the ThreadPool task wrapper that propagates the ambient
/// context from submitter to worker (idempotent; every ObsContext
/// constructor calls it, so the hook exists before any scope can be
/// installed).
void ensureTaskWrapperRegistered();

/// Per-call-site instrument cache for the CRP_OBS_* macros.
template <typename Instrument>
struct SiteCache {
  std::uint64_t ctxId = 0;
  Instrument* ptr = nullptr;
};

}  // namespace detail

/// The ambient context: innermost ObsContextScope on this thread,
/// defaultContext() otherwise.
inline ObsContext& currentContext() {
  ObsContext* scoped = detail::tlsCurrentContext;
  return scoped != nullptr ? *scoped : ObsContext::defaultContext();
}

/// The ambient context iff its instrument gate is on, else null — the
/// single check at the top of every enabled-path macro.
inline ObsContext* enabledContext() {
  ObsContext& ctx = currentContext();
  return ctx.enabled() ? &ctx : nullptr;
}

namespace detail {
/// Tracer of the enabled ambient context (null disables ScopedSpan).
inline Tracer* enabledTracer() {
  ObsContext* ctx = enabledContext();
  return ctx != nullptr ? &ctx->tracer() : nullptr;
}
}  // namespace detail

/// RAII ambient-context override for the current thread.
class ObsContextScope {
 public:
  explicit ObsContextScope(ObsContext& context)
      : previous_(detail::tlsCurrentContext) {
    detail::tlsCurrentContext = &context;
  }
  ~ObsContextScope() { detail::tlsCurrentContext = previous_; }
  ObsContextScope(const ObsContextScope&) = delete;
  ObsContextScope& operator=(const ObsContextScope&) = delete;

 private:
  ObsContext* previous_;
};

}  // namespace crp::obs
