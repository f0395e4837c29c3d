#include "obs/flight_recorder.hpp"

#include <utility>

#include "util/file_io.hpp"

namespace crp::obs {

FlightRecorder::FlightRecorder(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {
  ring_.resize(capacity_);
}

void FlightRecorder::record(std::string_view category, std::string_view label,
                            std::int64_t value) {
  std::lock_guard lock(mutex_);
  FlightEvent& slot = ring_[next_ % capacity_];
  slot.seq = next_;
  slot.category.assign(category);
  slot.label.assign(label);
  slot.value = value;
  ++next_;
}

void FlightRecorder::setLatestHeatmap(Json heatmap) {
  std::lock_guard lock(mutex_);
  latestHeatmap_ = std::move(heatmap);
}

std::vector<FlightEvent> FlightRecorder::events() const {
  std::lock_guard lock(mutex_);
  std::vector<FlightEvent> out;
  const std::uint64_t held = next_ < capacity_ ? next_ : capacity_;
  out.reserve(held);
  for (std::uint64_t i = next_ - held; i < next_; ++i) {
    out.push_back(ring_[i % capacity_]);
  }
  return out;
}

std::uint64_t FlightRecorder::totalRecorded() const {
  std::lock_guard lock(mutex_);
  return next_;
}

void FlightRecorder::clear() {
  std::lock_guard lock(mutex_);
  next_ = 0;
  for (FlightEvent& slot : ring_) slot = FlightEvent{};
  latestHeatmap_ = Json();
}

Json FlightRecorder::dump(Json trigger) const {
  Json root = Json::object();
  root.set("schemaVersion", kSchemaVersion);
  root.set("trigger", std::move(trigger));
  {
    std::lock_guard lock(mutex_);
    root.set("capacity", static_cast<std::int64_t>(capacity_));
    root.set("eventsRecorded", next_);
  }
  Json eventArr = Json::array();
  for (const FlightEvent& event : events()) {
    Json e = Json::object();
    e.set("seq", event.seq);
    e.set("category", event.category);
    e.set("label", event.label);
    e.set("value", event.value);
    eventArr.append(std::move(e));
  }
  root.set("events", std::move(eventArr));
  {
    std::lock_guard lock(mutex_);
    root.set("latestHeatmap", latestHeatmap_);
  }
  return root;
}

bool FlightRecorder::dumpToFile(const std::string& path, Json trigger) const {
  // Atomic write: a crash-dump artifact that is itself truncated by a
  // full disk would be worse than useless.
  return util::writeFileAtomic(path, dump(std::move(trigger)).dump(2) + "\n");
}

}  // namespace crp::obs
