// Per-session observability context.
//
// Through PR 7 every instrument lived in a process-wide singleton
// (one metrics registry, tracer and flight recorder, plus the util
// Logger).  That was fine for one CLI invocation, but two flows in one
// process — `runEco` after `run`, or two `crp serve` sessions on the
// shared worker pool — would interleave each other's counters, spans,
// flight events, and log lines, and corrupt each other's
// RunReport counter deltas.  ObsContext bundles one registry, one
// tracer, one flight recorder, and one logger into a unit a session
// owns outright.
//
// Resolution is *ambient*: instrumented code never names a context.
// The CRP_OBS_* macros (obs.hpp) resolve the innermost
// ObsContextScope installed on the current thread, falling back to
// the process-default context — so all pre-daemon code (CLI, tests,
// benches) keeps its exact behavior with zero call-site changes.
// ThreadPool workers inherit the *submitter's* context: ObsContext
// registers a ThreadPool task wrapper that captures the ambient
// context at submit() time and re-installs it around the task, so a
// session's parallelFor bodies record into the session's instruments
// no matter which worker runs them.
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
#include <memory>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/logger.hpp"

namespace crp::obs {

class ObsContext {
 public:
  /// A fresh context with its own registry, tracer, flight recorder,
  /// and logger (starts disabled, like the process did before main).
  ObsContext();

  ObsContext(const ObsContext&) = delete;
  ObsContext& operator=(const ObsContext&) = delete;

  /// The process-default context — what ambient resolution falls back
  /// to outside any ObsContextScope.  Its logger *is*
  /// util::Logger::instance(), so setSink() on that logger steers
  /// default-context output.
  static ObsContext& defaultContext();

  /// Monotonic, never reused, never 0 (0 is the site caches' "empty").
  std::uint64_t id() const { return id_; }

  MetricsRegistry& metrics() { return metrics_; }
  Tracer& tracer() { return tracer_; }
  FlightRecorder& flightRecorder() { return flightRecorder_; }
  util::Logger& logger() { return *logger_; }

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
  // Default context: aliases the process logger instead of owning one.
  struct DefaultTag {};
  explicit ObsContext(DefaultTag);

  void init();

  std::uint64_t id_ = 0;
  std::atomic<bool> enabled_{false};
  MetricsRegistry metrics_;
  Tracer tracer_;
  FlightRecorder flightRecorder_;
  std::unique_ptr<util::Logger> ownedLogger_;
  util::Logger* logger_ = nullptr;
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

/// RAII ambient-context override for the current thread.  Also routes
/// CRP_LOG_* to the context's logger (util::LoggerScope).  A null
/// context makes the scope a no-op, so call sites can thread an
/// optional context without branching.
class ObsContextScope {
 public:
  explicit ObsContextScope(ObsContext* context)
      : loggerScope_(context != nullptr ? &context->logger() : nullptr) {
    if (context == nullptr) return;
    previous_ = detail::tlsCurrentContext;
    detail::tlsCurrentContext = context;
    installed_ = true;
  }
  explicit ObsContextScope(ObsContext& context)
      : ObsContextScope(&context) {}
  ~ObsContextScope() {
    if (installed_) detail::tlsCurrentContext = previous_;
  }
  ObsContextScope(const ObsContextScope&) = delete;
  ObsContextScope& operator=(const ObsContextScope&) = delete;

 private:
  util::LoggerScope loggerScope_;
  ObsContext* previous_ = nullptr;
  bool installed_ = false;
};

}  // namespace crp::obs
