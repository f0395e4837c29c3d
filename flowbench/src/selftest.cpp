// The benchmark's own tests (flowbench_driver --selftest).
#include <iostream>

#include "bmgen/generator.hpp"
#include "checks.hpp"
#include "crp/framework.hpp"
#include "groute/global_router.hpp"
#include "workloads.hpp"

namespace flowbench {

namespace {

struct FlowState {
  crp::db::Database db;
  std::vector<crp::groute::NetRoute> routes;
};

/// GR + CR&P k=2 on `design` with `threads` router and framework
/// threads.
FlowState routeWithThreads(const crp::db::Database& design, int threads) {
  FlowState state{design, {}};
  crp::groute::GlobalRouterOptions routerOptions;
  routerOptions.routerThreads = threads;
  crp::groute::GlobalRouter router(state.db, routerOptions);
  router.run();
  crp::core::CrpOptions options;
  options.iterations = 2;
  options.threads = threads;
  options.routerThreads = threads;
  crp::core::CrpFramework framework(state.db, router, options);
  framework.run();
  for (crp::db::NetId net = 0; net < state.db.numNets(); ++net) {
    state.routes.push_back(router.route(net));
  }
  return state;
}

}  // namespace

int runSelfTests() {
  int failures = 0;
  for (const auto& problem : checks::selfTest()) {
    std::cerr << "FAIL " << problem << "\n";
    ++failures;
  }
  std::cerr << "checks self-test: " << (failures == 0 ? "ok" : "FAILED") << "\n";

  // Thread independence: routes and placement identical at 1 thread
  // and at the multi-threaded workloads' thread count.
  crp::bmgen::BenchmarkSpec spec;
  spec.targetCells = 1500;
  spec.utilization = 0.75;
  spec.hotspots = 2;
  spec.seed = 11;
  const crp::db::Database design = crp::bmgen::generateBenchmark(spec);
  const int threads = workloadThreads();
  const FlowState serial = routeWithThreads(design, 1);
  const FlowState parallel = routeWithThreads(design, threads);
  int differing = 0;
  for (std::size_t net = 0; net < serial.routes.size(); ++net) {
    if (serial.routes[net].segments != parallel.routes[net].segments) ++differing;
  }
  const auto placement = checks::samePlacement(serial.db, parallel.db);
  if (differing != 0 || !placement.empty()) {
    std::cerr << "FAIL thread independence: " << differing << " routes and "
              << placement.size() << " placement problems differ between 1 and "
              << threads << " threads\n";
    ++failures;
  } else {
    std::cerr << "thread independence (1 vs " << threads << " threads, "
              << serial.routes.size() << " nets): ok\n";
  }
  return failures;
}

}  // namespace flowbench
