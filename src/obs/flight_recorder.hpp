// Flight recorder: a bounded in-memory ring of recent structured flow
// events (phase transitions, UD commits, reroute failures, audit arms)
// plus the most recently captured congestion heatmap.
//
// The ring is cheap enough to leave on for every observed run (a mutex
// push per event, at phase granularity — never inside per-net loops)
// and is only read when something goes wrong: a dirty DbAuditor report
// or a minimized crp_fuzz seed dumps the recorder to a JSON artifact,
// so the events leading up to the failure are diagnosable without a
// rerun.  Appends go through the CRP_OBS_EVENT macro (obs.hpp), which
// costs one relaxed load while observability is off — the same
// contract as every other instrument.
//
// Determinism note: event *sequence* is schedule-dependent when events
// come from parallel reroute workers.  Dumps are diagnostic artifacts,
// never part of asserted fingerprints.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.hpp"

namespace crp::obs {

/// One recorded event.  `seq` is the global append index (monotonic,
/// so a dump shows how many older events the ring already evicted).
struct FlightEvent {
  std::uint64_t seq = 0;
  std::string category;  ///< "crp", "gr", "check", ...
  std::string label;     ///< "phase.UD", "commit", "reroute.fail", ...
  std::int64_t value = 0;
};

class FlightRecorder {
 public:
  static constexpr int kSchemaVersion = 1;
  static constexpr std::size_t kDefaultCapacity = 256;

  explicit FlightRecorder(std::size_t capacity = kDefaultCapacity);

  void record(std::string_view category, std::string_view label,
              std::int64_t value = 0);

  /// Attaches the most recent heatmap (a HeatmapSnapshot JSON) so a
  /// dump carries the spatial state alongside the event trail.
  void setLatestHeatmap(Json heatmap);

  /// Events currently held, oldest first.
  std::vector<FlightEvent> events() const;
  /// Total events ever recorded (>= events().size()).
  std::uint64_t totalRecorded() const;
  std::size_t capacity() const { return capacity_; }

  void clear();

  /// Self-describing dump document: the trigger (caller-provided — an
  /// audit failure, a fuzz seed), the retained events, and the latest
  /// heatmap (null when none was attached).
  Json dump(Json trigger) const;
  /// Writes dump(trigger) to `path` (pretty-printed); false on I/O
  /// failure.
  bool dumpToFile(const std::string& path, Json trigger) const;

 private:
  mutable std::mutex mutex_;
  std::size_t capacity_;
  std::uint64_t next_ = 0;         ///< total events recorded
  std::vector<FlightEvent> ring_;  ///< slot = seq % capacity_
  Json latestHeatmap_;             ///< null until setLatestHeatmap
};

}  // namespace crp::obs
