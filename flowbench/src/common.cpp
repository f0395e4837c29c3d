#include "common.hpp"

#include <sys/resource.h>

#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>
#include <unistd.h>

namespace flowbench {

void Result::fail(const std::string& what) {
  correct = false;
  std::cerr << "flowbench: check failed: " << what << "\n";
}

namespace {
bool gBenchTracing = false;
}  // namespace

crp::obs::Tracer& benchTracer() {
  static crp::obs::Tracer tracer;
  return tracer;
}

void setBenchTracing(bool on) { gBenchTracing = on; }

Span::Span(std::string name)
    : crp::obs::ScopedSpan(gBenchTracing ? &benchTracer() : nullptr, std::move(name),
                           "flowbench") {}

std::map<std::string, double> benchSelfSeconds() {
  const auto records = benchTracer().records();
  std::map<std::string, double> out;
  for (const auto& [tid, span] : records) {
    std::uint64_t childNs = 0;
    for (const auto& [otherTid, other] : records) {
      if (otherTid == tid && other.depth == span.depth + 1 &&
          other.beginSeq > span.beginSeq && other.endSeq < span.endSeq) {
        childNs += other.durNs;
      }
    }
    out[span.name] += static_cast<double>(span.durNs - childNs) * 1e-9;
  }
  return out;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(values.size() - 1, lo + 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double peakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double hostStealSeconds() {
  std::ifstream in("/proc/stat");
  std::string line;
  if (!in || !std::getline(in, line)) return -1.0;
  std::istringstream fields(line);
  std::string cpu;
  fields >> cpu;
  if (cpu != "cpu") return -1.0;
  long long value = 0;
  long long steal = -1;
  // user nice system idle iowait irq softirq steal ...
  for (int i = 0; i < 8 && (fields >> value); ++i) {
    if (i == 7) steal = value;
  }
  if (steal < 0) return -1.0;
  const long ticks = sysconf(_SC_CLK_TCK);
  return static_cast<double>(steal) / static_cast<double>(ticks > 0 ? ticks : 100);
}

}  // namespace flowbench
