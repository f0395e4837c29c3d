#include "obs/metrics.hpp"

#include <algorithm>
#include <cassert>

namespace crp::obs {

std::vector<std::uint64_t> Histogram::defaultBounds() {
  std::vector<std::uint64_t> bounds;
  for (std::uint64_t b = 1; b <= 32768; b *= 2) bounds.push_back(b);
  return bounds;
}

Histogram::Histogram(std::vector<std::uint64_t> bounds)
    : bounds_(std::move(bounds)), counts_(bounds_.size() + 1) {
}

void Histogram::record(std::uint64_t value) {
  // Buckets are sorted; the layouts here are tiny (<= ~17 entries), so
  // a branch-predictable linear scan beats binary search.
  std::size_t bucket = bounds_.size();  // overflow
  for (std::size_t i = 0; i < bounds_.size(); ++i) {
    if (value <= bounds_[i]) {
      bucket = i;
      break;
    }
  }
  counts_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
}

std::vector<std::uint64_t> Histogram::bucketCounts() const {
  std::vector<std::uint64_t> counts(counts_.size());
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    counts[i] = counts_[i].load(std::memory_order_relaxed);
  }
  return counts;
}

double Histogram::quantileFromBuckets(
    const std::vector<std::uint64_t>& bounds,
    const std::vector<std::uint64_t>& buckets, double q) {
  if (bounds.empty() || buckets.size() != bounds.size() + 1) return 0.0;
  std::uint64_t total = 0;
  for (const std::uint64_t c : buckets) total += c;
  if (total == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Prometheus histogram_quantile semantics: the target rank falls in
  // the first bucket whose cumulative count reaches it; interpolate
  // linearly between the bucket's lower and upper bound.
  const double rank = q * static_cast<double>(total);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    const std::uint64_t inBucket = buckets[i];
    if (static_cast<double>(cumulative + inBucket) >= rank && inBucket > 0) {
      const double lower = i == 0 ? 0.0 : static_cast<double>(bounds[i - 1]);
      const double upper = static_cast<double>(bounds[i]);
      const double within =
          (rank - static_cast<double>(cumulative)) /
          static_cast<double>(inBucket);
      return lower + (upper - lower) * std::clamp(within, 0.0, 1.0);
    }
    cumulative += inBucket;
  }
  // Rank lands in the overflow bucket: no finite upper bound to
  // interpolate toward, so report the highest finite bound (what
  // histogram_quantile does for +Inf).
  return static_cast<double>(bounds.back());
}

void Histogram::reset() {
  for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
}

MetricsSnapshot MetricsSnapshot::deltaSince(
    const MetricsSnapshot& earlier) const {
  MetricsSnapshot delta = *this;
  for (auto& [name, value] : delta.counters) {
    const auto it = earlier.counters.find(name);
    if (it != earlier.counters.end()) value -= it->second;
  }
  for (auto& [name, data] : delta.histograms) {
    const auto it = earlier.histograms.find(name);
    if (it == earlier.histograms.end()) continue;
    for (std::size_t i = 0;
         i < data.buckets.size() && i < it->second.buckets.size(); ++i) {
      data.buckets[i] -= it->second.buckets[i];
    }
    data.count -= it->second.count;
    data.sum -= it->second.sum;
  }
  return delta;
}

Json MetricsSnapshot::toJson() const {
  Json root = Json::object();
  Json counterObj = Json::object();
  for (const auto& [name, value] : counters) counterObj.set(name, value);
  root.set("counters", std::move(counterObj));
  Json gaugeObj = Json::object();
  for (const auto& [name, value] : gauges) gaugeObj.set(name, value);
  root.set("gauges", std::move(gaugeObj));
  Json histObj = Json::object();
  for (const auto& [name, data] : histograms) {
    Json h = Json::object();
    Json bounds = Json::array();
    for (const std::uint64_t b : data.bounds) bounds.append(b);
    Json buckets = Json::array();
    for (const std::uint64_t c : data.buckets) buckets.append(c);
    h.set("bounds", std::move(bounds));
    h.set("buckets", std::move(buckets));
    h.set("count", data.count);
    h.set("sum", data.sum);
    histObj.set(name, std::move(h));
  }
  root.set("histograms", std::move(histObj));
  return root;
}

Counter* MetricsRegistry::counter(const std::string& name) {
  std::lock_guard lock(mutex_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard lock(mutex_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::histogram(const std::string& name,
                                      std::vector<std::uint64_t> bounds) {
  std::lock_guard lock(mutex_);
  auto& slot = histograms_[name];
  if (slot == nullptr) {
    if (bounds.empty()) bounds = Histogram::defaultBounds();
    slot = std::make_unique<Histogram>(std::move(bounds));
  } else if (!bounds.empty() && bounds != slot->bounds()) {
    // First registration wins, but two call sites disagreeing on the
    // bucket layout is a bug: make it loud instead of silent.  The
    // counter is touched directly — counter() would re-take mutex_.
    auto& mismatch = counters_[kBoundMismatchCounter];
    if (mismatch == nullptr) mismatch = std::make_unique<Counter>();
    mismatch->add(1);
    assert(false && "Histogram re-registered with different bounds");
  }
  return slot.get();
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard lock(mutex_);
  MetricsSnapshot snap;
  for (const auto& [name, counter] : counters_) {
    snap.counters[name] = counter->value();
  }
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges[name] = gauge->value();
  }
  for (const auto& [name, histogram] : histograms_) {
    MetricsSnapshot::HistogramData data;
    data.bounds = histogram->bounds();
    data.buckets = histogram->bucketCounts();
    data.count = histogram->count();
    data.sum = histogram->sum();
    snap.histograms[name] = std::move(data);
  }
  return snap;
}

void MetricsRegistry::reset() {
  std::lock_guard lock(mutex_);
  for (auto& [name, counter] : counters_) counter->reset();
  for (auto& [name, gauge] : gauges_) gauge->reset();
  for (auto& [name, histogram] : histograms_) histogram->reset();
}

}  // namespace crp::obs
