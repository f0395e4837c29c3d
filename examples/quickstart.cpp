// Quickstart: the whole CR&P flow on a small synthetic design.
//
//   1. generate a benchmark (ISPD-2018-style structure)
//   2. global route (CUGR-substitute)
//   3. run CR&P iterations (the paper's add-on step)
//   4. detailed route (TritonRoute-substitute)
//   5. evaluate wirelength / vias / DRVs before vs after
//
// Usage: quickstart [numCells] [iterations]
#include <cstdlib>
#include <iostream>

#include "bmgen/generator.hpp"
#include "crp/framework.hpp"
#include "db/legality.hpp"
#include "droute/detailed_router.hpp"
#include "eval/evaluator.hpp"
#include "groute/global_router.hpp"

int main(int argc, char** argv) {
  using namespace crp;

  const int numCells = argc > 1 ? std::atoi(argv[1]) : 800;
  const int iterations = argc > 2 ? std::atoi(argv[2]) : 3;

  // 1. Generate a congested synthetic design.
  bmgen::BenchmarkSpec spec;
  spec.name = "quickstart";
  spec.targetCells = numCells;
  spec.utilization = 0.82;
  spec.hotspots = 2;
  spec.seed = 42;
  db::Database db = bmgen::generateBenchmark(spec);
  std::cout << "design: " << db.numCells() << " cells, " << db.numNets()
            << " nets, utilization "
            << static_cast<int>(db.utilization() * 100) << "%\n";

  // 2. Global route.
  groute::GlobalRouter router(db);
  const auto grStats = router.run();
  std::cout << "global route: wl=" << grStats.wirelengthDbu
            << " dbu, vias=" << grStats.vias
            << ", overflowed edges=" << grStats.overflowedEdges << "\n";

  // Detailed-route the untouched handoff for the baseline numbers.
  eval::Metrics before;
  {
    droute::DetailedRouter detailed(db, router.buildGuides());
    before = eval::collectMetrics(detailed.run());
  }

  // 3. CR&P iterations.
  core::CrpOptions options;
  options.iterations = iterations;
  core::CrpFramework framework(db, router, options);
  const int moves = framework.run().totalMoves;
  std::cout << "CR&P: " << iterations << " iterations, " << moves
            << " cell moves, placement legal: "
            << (db::isPlacementLegal(db) ? "yes" : "NO") << "\n";

  // 4. Detailed route the improved handoff.
  eval::Metrics after;
  {
    droute::DetailedRouter detailed(db, router.buildGuides());
    after = eval::collectMetrics(detailed.run());
  }

  // 5. Compare.
  const auto row = eval::compareRuns(spec.name, before, after);
  std::cout << "before: wl=" << before.wirelengthDbu
            << " vias=" << before.viaCount << " drvs=" << before.totalDrvs()
            << "\n";
  std::cout << "after : wl=" << after.wirelengthDbu
            << " vias=" << after.viaCount << " drvs=" << after.totalDrvs()
            << "\n";
  std::cout << "improvement: wirelength " << row.wirelengthImprovePct
            << "%, vias " << row.viaImprovePct
            << "%, new DRVs: " << row.drvDelta << "\n";
  return 0;
}
