// Flow observability facade: ambient-context gate + instrument macros.
//
// Instrumentation in hot paths (ILP solver, pricing, router) goes
// through the CRP_OBS_* macros, which are runtime-gated: each macro
// first resolves the ambient ObsContext (one thread-local load) and
// checks its enabled flag (one relaxed atomic load), touching no
// instrument while observability is off.  This is the
// "zero-overhead-when-disabled" contract the benches rely on.
//
// Instruments are *per-context* (see obs/context.hpp): outside any
// ObsContextScope the macros hit the process-default context; inside a
// scope (a serve session, a framework's entry points) they hit that
// context's registry/tracer/recorder, so concurrent flows never
// interleave.
//
// Enabling is opt-in: every context starts disabled; `crp run` and the
// observability tests turn the ambient one on.  Counter macros cache
// the instrument pointer in a per-site thread_local keyed by the
// context id (ids are never reused, so one integer compare
// revalidates the cache), making the steady-state cost of a counter
// hit a TLS load + compare + one atomic add.
#pragma once

#include <atomic>
#include <cstdint>

#include "obs/context.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace crp::obs {

/// True when the *ambient* context should record (runtime switch).
inline bool enabled() { return currentContext().enabled(); }

inline void setEnabled(bool on) { currentContext().setEnabled(on); }

/// RAII scope: enables the ambient context's observability for its
/// lifetime, restoring the previous state on exit (used by tests).
class EnabledScope {
 public:
  explicit EnabledScope(bool on = true)
      : context_(&currentContext()), previous_(context_->enabled()) {
    context_->setEnabled(on);
  }
  ~EnabledScope() { context_->setEnabled(previous_); }
  EnabledScope(const EnabledScope&) = delete;
  EnabledScope& operator=(const EnabledScope&) = delete;

 private:
  ObsContext* context_;
  bool previous_;
};

}  // namespace crp::obs

#define CRP_OBS_CONCAT_IMPL(a, b) a##b
#define CRP_OBS_CONCAT(a, b) CRP_OBS_CONCAT_IMPL(a, b)

/// Opens a span covering the rest of the enclosing scope (recorded
/// into the ambient context's tracer; no-op while disabled).
#define CRP_OBS_SPAN(category, name)                              \
  ::crp::obs::ScopedSpan CRP_OBS_CONCAT(crpObsSpan, __COUNTER__)( \
      ::crp::obs::detail::enabledTracer(), (name), (category))

/// Span with a numeric payload (iteration index, net id, ...).
#define CRP_OBS_SPAN_ARG(category, name, argValue)                \
  ::crp::obs::ScopedSpan CRP_OBS_CONCAT(crpObsSpan, __COUNTER__)( \
      ::crp::obs::detail::enabledTracer(), (name), (category),    \
      static_cast<std::int64_t>(argValue))

// Instrument macros share one shape: resolve the enabled ambient
// context, revalidate the per-site cache against its id (contexts are
// never reused, so a mismatch can only mean "different context —
// re-look-up"), then do the lock-free update.
#define CRP_OBS_COUNT(counterName, delta)                                    \
  do {                                                                       \
    if (::crp::obs::ObsContext* crpObsCtx = ::crp::obs::enabledContext()) {  \
      static thread_local ::crp::obs::detail::SiteCache<::crp::obs::Counter> \
          crpObsSite;                                                        \
      if (crpObsSite.ctxId != crpObsCtx->id()) {                             \
        crpObsSite.ptr = crpObsCtx->metrics().counter(counterName);          \
        crpObsSite.ctxId = crpObsCtx->id();                                  \
      }                                                                      \
      crpObsSite.ptr->add(static_cast<std::uint64_t>(delta));                \
    }                                                                        \
  } while (0)

#define CRP_OBS_GAUGE_SET(gaugeName, value)                                  \
  do {                                                                       \
    if (::crp::obs::ObsContext* crpObsCtx = ::crp::obs::enabledContext()) {  \
      static thread_local ::crp::obs::detail::SiteCache<::crp::obs::Gauge>   \
          crpObsSite;                                                        \
      if (crpObsSite.ctxId != crpObsCtx->id()) {                             \
        crpObsSite.ptr = crpObsCtx->metrics().gauge(gaugeName);              \
        crpObsSite.ctxId = crpObsCtx->id();                                  \
      }                                                                      \
      crpObsSite.ptr->set(static_cast<double>(value));                       \
    }                                                                        \
  } while (0)

#define CRP_OBS_HISTOGRAM(histName, value)                                   \
  do {                                                                       \
    if (::crp::obs::ObsContext* crpObsCtx = ::crp::obs::enabledContext()) {  \
      static thread_local ::crp::obs::detail::SiteCache<                     \
          ::crp::obs::Histogram>                                             \
          crpObsSite;                                                        \
      if (crpObsSite.ctxId != crpObsCtx->id()) {                             \
        crpObsSite.ptr = crpObsCtx->metrics().histogram(histName);           \
        crpObsSite.ctxId = crpObsCtx->id();                                  \
      }                                                                      \
      crpObsSite.ptr->record(static_cast<std::uint64_t>(value));             \
    }                                                                        \
  } while (0)

/// Appends a structured event to the ambient flight-recorder ring
/// (phase granularity only — never per-net/per-edge loops; record()
/// takes the ring mutex, so no per-site cache is needed).
#define CRP_OBS_EVENT(category, label, value)                               \
  do {                                                                      \
    if (::crp::obs::ObsContext* crpObsCtx = ::crp::obs::enabledContext()) { \
      crpObsCtx->flightRecorder().record((category), (label),               \
                                         static_cast<std::int64_t>(value)); \
    }                                                                       \
  } while (0)
