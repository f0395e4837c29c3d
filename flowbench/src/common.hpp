// Shared plumbing of the flow benchmark driver: run options, the
// result record every workload fills, the benchmark's own tracer, and
// small timing / statistics helpers.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.hpp"
#include "obs/trace.hpp"

namespace flowbench {

using Clock = std::chrono::steady_clock;

/// Seconds since `start` on the steady clock.
inline double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The instant main() was entered: cold set-up is timed from here.
Clock::time_point processStart();

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string outDir = ".bench_out";  ///< scratch files, relative to cwd
};

/// Worker threads of the multi-threaded workloads: min(4, nproc), the
/// program's default on a 4-CPU host.
inline int workloadThreads() {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  return static_cast<int>(std::min(4u, hw));
}

/// What one run reports.  `correct` turns false on the first failed
/// check; fail() prints each failure to stderr.  `metrics` holds values
/// by the names BENCHMARK.json gives them; the units come from there.
struct Result {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::map<std::string, double> metrics;

  void fail(const std::string& what);
  void set(const std::string& name, double value) { metrics[name] = value; }
};

/// The benchmark's own tracer: spans around each public call into the
/// program, kept while setBenchTracing(true) is in force and written as
/// a Chrome trace when the run ends.
crp::obs::Tracer& benchTracer();
void setBenchTracing(bool on);

/// A span of benchTracer(); records nothing while tracing is off.
struct Span : crp::obs::ScopedSpan {
  explicit Span(std::string name);
};

/// Self time per span name of benchTracer(): duration minus the part
/// covered by direct children, summed over all spans of that name
/// (seconds).
std::map<std::string, double> benchSelfSeconds();

/// Quantile by linear interpolation between closest ranks (numpy's
/// default); `q` in [0, 1].  Empty input gives 0.
double quantile(std::vector<double> values, double q);

/// Peak resident set of this process in MiB (getrusage ru_maxrss).
double peakRssMib();

/// Steal time of the whole host, in seconds, from /proc/stat (all
/// CPUs summed); -1 when unavailable.
double hostStealSeconds();

}  // namespace flowbench
