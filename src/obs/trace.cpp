#include "obs/trace.hpp"

#include <algorithm>
#include <atomic>

#include "obs/json.hpp"

namespace crp::obs {

namespace {

/// Tracer identity for the thread-local registration cache.  Ids are
/// never reused, so a cache entry can outlive its tracer without ever
/// matching a new one allocated at the same address.
std::atomic<std::uint64_t> nextTracerId{1};

struct CacheEntry {
  std::uint64_t tracerId = 0;
  Tracer::ThreadLog* log = nullptr;
};

thread_local std::vector<CacheEntry> tlsLogs;

}  // namespace

Tracer::Tracer()
    : epoch_(std::chrono::steady_clock::now()),
      id_(nextTracerId.fetch_add(1, std::memory_order_relaxed)) {
}

Tracer::ThreadLog& Tracer::threadLog() {
  for (const CacheEntry& entry : tlsLogs) {
    if (entry.tracerId == id_) return *entry.log;
  }
  std::lock_guard lock(mutex_);
  logs_.push_back(std::make_unique<ThreadLog>());
  ThreadLog& log = *logs_.back();
  log.tid = static_cast<int>(logs_.size()) - 1;
  tlsLogs.push_back(CacheEntry{id_, &log});
  return log;
}

std::vector<std::pair<int, SpanRecord>> Tracer::records() const {
  std::vector<std::pair<int, SpanRecord>> out;
  std::lock_guard lock(mutex_);
  for (const auto& log : logs_) {
    std::lock_guard logLock(log->mutex);
    for (const SpanRecord& span : log->spans) {
      out.emplace_back(log->tid, span);
    }
  }
  return out;
}

void Tracer::clear() {
  std::lock_guard lock(mutex_);
  for (const auto& log : logs_) {
    std::lock_guard logLock(log->mutex);
    log->spans.clear();
  }
}

void Tracer::writeChromeTrace(std::ostream& os) const {
  Json events = Json::array();
  for (const auto& [tid, span] : records()) {
    Json event = Json::object();
    event.set("name", span.name);
    event.set("cat", span.category);
    event.set("ph", "X");
    // trace_event timestamps are microseconds (double).
    event.set("ts", static_cast<double>(span.startNs) / 1000.0);
    event.set("dur", static_cast<double>(span.durNs) / 1000.0);
    event.set("pid", 1);
    event.set("tid", tid);
    if (span.arg >= 0) {
      Json args = Json::object();
      args.set("value", static_cast<long long>(span.arg));
      event.set("args", std::move(args));
    }
    events.append(std::move(event));
  }
  Json root = Json::object();
  root.set("traceEvents", std::move(events));
  root.set("displayTimeUnit", "ms");
  root.write(os, 1);
  os << "\n";
}

}  // namespace crp::obs
