// Thread-safe metrics registry: counters, gauges, histograms.
//
// Updates are lock-free (relaxed atomics); only instrument lookup and
// snapshotting take the registry mutex.  Instruments are never
// deallocated while the registry lives — reset() zeroes values in
// place — so call sites may cache the returned pointers (the
// CRP_OBS_COUNT macro does exactly that with a function-local static).
//
// Determinism note for golden tests: counter totals are sums of
// per-event contributions, so any counter whose *event set* is
// schedule-independent (nets priced, ILP nodes, moves) has a
// deterministic total regardless of thread interleaving.  Counters
// that split one event set by outcome of a race (cache hit vs miss)
// are not deterministic and must stay out of asserted fingerprints.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace crp::obs {

/// Monotonic event counter.
class Counter {
 public:
  void add(std::uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void set(double value) { value_.store(value, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Distribution of non-negative integer samples over a fixed bucket
/// layout.  Bucket i counts samples <= bounds[i]; one implicit
/// overflow bucket counts the rest.  The layout is fixed at
/// registration so exported histograms are structurally comparable
/// across runs (the golden tests diff bucket vectors directly).
class Histogram {
 public:
  /// Default layout: powers of two 1, 2, 4, ..., 32768 (16 buckets).
  static std::vector<std::uint64_t> defaultBounds();

  explicit Histogram(std::vector<std::uint64_t> bounds);

  void record(std::uint64_t value);

  const std::vector<std::uint64_t>& bounds() const { return bounds_; }
  /// Per-bucket counts; size() == bounds().size() + 1 (overflow last).
  std::vector<std::uint64_t> bucketCounts() const;
  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }

  /// Quantile estimate from the bucket counts (q in [0, 1]), linearly
  /// interpolated inside the containing bucket — the same estimator
  /// Prometheus' histogram_quantile() applies to the exported _bucket
  /// series, so loadgen, serve and offline exposition all agree on one
  /// implementation.  A quantile landing in the overflow bucket
  /// reports the highest finite bound; an empty histogram reports 0.
  double quantile(double q) const {
    return quantileFromBuckets(bounds_, bucketCounts(), q);
  }
  /// The estimator itself, usable on snapshot data (see
  /// MetricsSnapshot::HistogramData::quantile).  `buckets` holds one
  /// count per bound plus the trailing overflow bucket.
  static double quantileFromBuckets(const std::vector<std::uint64_t>& bounds,
                                    const std::vector<std::uint64_t>& buckets,
                                    double q);

  void reset();

 private:
  std::vector<std::uint64_t> bounds_;
  std::vector<std::atomic<std::uint64_t>> counts_;  ///< bounds + overflow
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

/// Point-in-time copy of every instrument, used both for export and
/// for computing per-run deltas (see MetricsRegistry::snapshot).
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  struct HistogramData {
    std::vector<std::uint64_t> bounds;
    std::vector<std::uint64_t> buckets;
    std::uint64_t count = 0;
    std::uint64_t sum = 0;

    /// Histogram::quantileFromBuckets over this snapshot's buckets.
    double quantile(double q) const {
      return Histogram::quantileFromBuckets(bounds, buckets, q);
    }
  };
  std::map<std::string, HistogramData> histograms;

  /// Counter-wise difference (this - earlier); instruments absent in
  /// `earlier` count from zero.  Gauges and histogram data keep their
  /// current values (gauges are not cumulative; histogram deltas are
  /// bucket-wise).
  MetricsSnapshot deltaSince(const MetricsSnapshot& earlier) const;

  Json toJson() const;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Returns the named instrument, creating it on first use.  The
  /// pointer stays valid for the registry's lifetime.
  Counter* counter(const std::string& name);
  Gauge* gauge(const std::string& name);
  /// `bounds` applies only on first registration; later calls return
  /// the existing histogram regardless.  Re-registering with different
  /// non-empty bounds is a call-site bug (the two sites would silently
  /// disagree about the bucket layout): it debug-asserts and bumps the
  /// "obs.registry.bound_mismatch" counter so release builds surface
  /// the divergence in every snapshot.
  Histogram* histogram(const std::string& name,
                       std::vector<std::uint64_t> bounds = {});

  /// Counter bumped by histogram() bound mismatches (see above).
  static constexpr const char* kBoundMismatchCounter =
      "obs.registry.bound_mismatch";

  MetricsSnapshot snapshot() const;

  /// Zeroes every instrument in place (pointers stay valid).
  void reset();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace crp::obs
