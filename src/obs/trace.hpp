// Scoped-span tracer with Chrome trace_event JSON export.
//
// Spans are RAII scopes (phase, iteration, net-level work) recorded
// into per-thread logs: opening a span touches only thread-local
// state, so tracing from every ThreadPool worker is contention-free;
// the tracer mutex is taken once per thread (registration) and on
// export.  Each record carries, besides wall-clock start/duration, a
// per-thread begin/end *sequence number* — nesting well-formedness is
// a statement about those integers (balanced-parenthesis discipline),
// which tests can assert exactly where microsecond timestamps would
// tie.
//
// Export is the Chrome trace_event "X" (complete-event) format:
// chrome://tracing and https://ui.perfetto.dev load the file directly.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace crp::obs {

/// One finished span, appended at scope exit.
struct SpanRecord {
  std::string name;
  std::string category;
  std::uint64_t startNs = 0;  ///< relative to the tracer epoch
  std::uint64_t durNs = 0;
  std::uint64_t beginSeq = 0;  ///< per-thread event sequence at open
  std::uint64_t endSeq = 0;    ///< per-thread event sequence at close
  int depth = 0;               ///< nesting depth at open (0 = top level)
  std::int64_t arg = -1;       ///< optional numeric payload (< 0 = none)
};

class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Copies out every thread's records, ordered by (thread, end time).
  /// `tid` in the result is the registration index of the thread.
  std::vector<std::pair<int, SpanRecord>> records() const;

  /// Drops all recorded spans (thread logs stay registered).
  void clear();

  /// Writes the Chrome trace_event JSON document.
  void writeChromeTrace(std::ostream& os) const;

  // ---- internal interface used by ScopedSpan --------------------------------

  struct ThreadLog {
    int tid = 0;
    int depth = 0;
    std::uint64_t nextSeq = 0;
    std::vector<SpanRecord> spans;
    std::mutex mutex;  ///< guards `spans` against concurrent export
  };

  /// This thread's log within this tracer (registered on first use).
  ThreadLog& threadLog();

  std::uint64_t nowNs() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
  }

 private:
  std::chrono::steady_clock::time_point epoch_;
  std::uint64_t id_ = 0;  ///< unique, never reused (thread-local cache key)
  mutable std::mutex mutex_;  ///< guards `logs_`
  std::vector<std::unique_ptr<ThreadLog>> logs_;
};

/// RAII span.  Records nothing when constructed with a null tracer
/// (how the macros implement the runtime-disable path).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name, std::string category,
             std::int64_t arg = -1)
      : tracer_(tracer) {
    if (tracer_ == nullptr) return;
    Tracer::ThreadLog& log = tracer_->threadLog();
    record_.name = std::move(name);
    record_.category = std::move(category);
    record_.arg = arg;
    record_.depth = log.depth++;
    record_.beginSeq = log.nextSeq++;
    record_.startNs = tracer_->nowNs();
  }

  ~ScopedSpan() {
    if (tracer_ == nullptr) return;
    record_.durNs = tracer_->nowNs() - record_.startNs;
    Tracer::ThreadLog& log = tracer_->threadLog();
    record_.endSeq = log.nextSeq++;
    --log.depth;
    std::lock_guard lock(log.mutex);
    log.spans.push_back(std::move(record_));
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_ = nullptr;
  SpanRecord record_;
};

}  // namespace crp::obs
