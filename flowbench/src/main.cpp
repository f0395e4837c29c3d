// flowbench_driver: runs one benchmark workload and prints its result
// as one JSON line (the last line of stdout).
//
//   flowbench_driver --workload route-10k|detail-test7|eco-serve
//                    --seed N --seconds S --trace 0|1
//   flowbench_driver --selftest
//
// --trace 0 reports the end-to-end metrics with the program's
// observability off; --trace 1 turns the program's tracer and the
// benchmark's own spans on and reports the per-layer metrics, writing
// both traces under .bench_out/traces/.
#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>
#include <string>

#include "checks.hpp"
#include "common.hpp"
#include "obs/obs.hpp"
#include "util/logger.hpp"
#include "workloads.hpp"

namespace flowbench {

namespace {
const Clock::time_point kProcessStart = Clock::now();
}  // namespace

Clock::time_point processStart() { return kProcessStart; }

namespace {

int usage() {
  std::cerr << "usage: flowbench_driver --workload route-10k|detail-test7|eco-serve "
               "--seed N --seconds S --trace 0|1\n"
               "       flowbench_driver --selftest\n";
  return 2;
}

/// The metrics BENCHMARK.json lists under `section`, with its units.
/// A per-layer metric of a layer the workload does not use reads 0; a
/// missing end-to-end metric is a failure.
crp::obs::Json metricsJson(const std::string& section, Result& result) {
  std::ifstream in("BENCHMARK.json");
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  const crp::obs::Json spec = crp::obs::Json::parse(text);
  crp::obs::Json metrics = crp::obs::Json::object();
  for (const crp::obs::Json& entry : spec.at(section).asArray()) {
    const std::string& name = entry.at("name").asString();
    const auto it = result.metrics.find(name);
    if (it == result.metrics.end() && section == "end_to_end") {
      result.fail("the workload did not measure " + name);
    }
    crp::obs::Json metric = crp::obs::Json::object();
    metric.set("value", it == result.metrics.end() ? 0.0 : it->second);
    metric.set("unit", entry.at("unit"));
    metrics.set(name, std::move(metric));
  }
  return metrics;
}

void writeTraces(const RunOptions& options) {
  const std::string dir = options.outDir + "/traces";
  std::filesystem::create_directories(dir);
  const std::string stem =
      dir + "/" + options.workload + "-seed" + std::to_string(options.seed);
  std::ofstream bench(stem + ".bench.json");
  benchTracer().writeChromeTrace(bench);
  std::ofstream program(stem + ".program.json");
  crp::obs::currentContext().tracer().writeChromeTrace(program);
  crp::obs::Json self = crp::obs::Json::object();
  for (const auto& [name, seconds] : benchSelfSeconds()) {
    self.set(name, seconds);
  }
  std::ofstream(stem + ".self_seconds.json") << self.dump(2) << "\n";
}

}  // namespace

}  // namespace flowbench

int main(int argc, char** argv) {
  using namespace flowbench;
  crp::util::Logger::instance().setLevel(crp::util::LogLevel::kWarn);
  RunOptions options;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool hasValue = i + 1 < argc;
    if (arg == "--selftest") {
      selftest = true;
    } else if (arg == "--workload" && hasValue) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && hasValue) {
      options.seed = std::stoull(argv[++i]);
    } else if (arg == "--seconds" && hasValue) {
      options.seconds = std::stod(argv[++i]);
    } else if (arg == "--trace" && hasValue) {
      options.trace = std::string(argv[++i]) == "1";
    } else {
      return usage();
    }
  }
  if (selftest) return runSelfTests() == 0 ? 0 : 1;
  if (options.workload != "route-10k" && options.workload != "detail-test7" &&
      options.workload != "eco-serve") {
    return usage();
  }
  std::filesystem::create_directories(options.outDir);
  Result result;
  setBenchTracing(options.trace);
  crp::obs::setEnabled(options.trace);

  const double stealStart = hostStealSeconds();
  if (options.workload == "eco-serve") {
    runEcoServe(options, result);
  } else {
    runFlowWorkload(options, result);
  }
  const double stealEnd = hostStealSeconds();
  result.set("host.steal_s", stealStart >= 0 ? stealEnd - stealStart : 0.0);
  // The checks must still catch corrupted inputs: a run whose checks
  // cannot fail proves nothing.  They run after the measured work, so
  // that set-up stays the workload's own, timed cold.
  for (const auto& problem : checks::selfTest()) result.fail(problem);
  // flow_s as measured with tracing on: against an untraced run of the
  // same seed it gives the tracing overhead.
  result.set("trace.flow_s", result.metrics["flow_s"]);

  if (options.trace) writeTraces(options);

  crp::obs::Json metrics = metricsJson(options.trace ? "per_layer" : "end_to_end", result);
  crp::obs::Json out = crp::obs::Json::object();
  out.set("correct", result.correct);
  out.set("attempted", result.attempted);
  out.set("failed", result.failed);
  out.set("metrics", std::move(metrics));
  std::cout << out.dump() << std::endl;
  return 0;
}
