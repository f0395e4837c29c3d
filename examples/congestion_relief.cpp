// Congestion relief study: CR&P vs the median-move baseline [18] on a
// deliberately congested design — the scenario of paper §V.B, where
// CR&P's congestion-aware cost function and criticality priority give
// it the edge.
//
// Usage: congestion_relief [numCells] [hotspots]
#include <cstdlib>
#include <iostream>

#include "baseline/median_ilp.hpp"
#include "bmgen/generator.hpp"
#include "crp/framework.hpp"
#include "droute/detailed_router.hpp"
#include "eval/evaluator.hpp"
#include "groute/global_router.hpp"

namespace {

using namespace crp;

eval::Metrics detailedMetrics(const db::Database& db,
                              groute::GlobalRouter& router) {
  droute::DetailedRouter detailed(db, router.buildGuides());
  return eval::collectMetrics(detailed.run());
}

void printRow(const char* label, const eval::Metrics& m,
              const eval::Metrics& base) {
  std::cout << label << ": wl=" << m.wirelengthDbu << " vias=" << m.viaCount
            << " drvs=" << m.totalDrvs() << "  (vs baseline: wl "
            << eval::improvementPercent(
                   static_cast<double>(base.wirelengthDbu),
                   static_cast<double>(m.wirelengthDbu))
            << "%, vias "
            << eval::improvementPercent(static_cast<double>(base.viaCount),
                                        static_cast<double>(m.viaCount))
            << "%)\n";
}

}  // namespace

int main(int argc, char** argv) {
  const int numCells = argc > 1 ? std::atoi(argv[1]) : 1200;
  const int hotspots = argc > 2 ? std::atoi(argv[2]) : 3;

  bmgen::BenchmarkSpec spec;
  spec.name = "congestion_relief";
  spec.targetCells = numCells;
  spec.utilization = 0.86;
  spec.hotspots = hotspots;
  spec.hotspotStrength = 0.6;
  spec.seed = 7;

  // ---- Baseline: GR + DR, no movement ----------------------------------------
  auto dbBase = bmgen::generateBenchmark(spec);
  groute::GlobalRouter routerBase(dbBase);
  routerBase.run();
  const auto congestion = routerBase.graph().congestionStats();
  std::cout << "congestion after GR: " << congestion.overflowedEdges
            << " overflowed edges, total overflow "
            << congestion.totalOverflow << "\n\n";
  const eval::Metrics base = detailedMetrics(dbBase, routerBase);
  printRow("baseline (GR+DR)   ", base, base);

  // ---- [18]: median-move ILP ---------------------------------------------------
  auto dbMedian = bmgen::generateBenchmark(spec);
  groute::GlobalRouter routerMedian(dbMedian);
  routerMedian.run();
  const auto medianResult =
      baseline::runMedianIlpOptimizer(dbMedian, routerMedian);
  std::cout << "[18] moved " << medianResult.movedCells << " cells\n";
  const eval::Metrics median = detailedMetrics(dbMedian, routerMedian);
  printRow("median-move ILP [18]", median, base);

  // ---- CR&P k = 10 ------------------------------------------------------------
  auto dbCrp = bmgen::generateBenchmark(spec);
  groute::GlobalRouter routerCrp(dbCrp);
  routerCrp.run();
  core::CrpOptions options;
  options.iterations = 10;
  core::CrpFramework framework(dbCrp, routerCrp, options);
  const obs::RunReport& report = framework.run();
  std::cout << "CR&P moved " << report.totalMoves << " cells over "
            << report.iterationStats.size() << " iterations\n";
  const eval::Metrics crp = detailedMetrics(dbCrp, routerCrp);
  printRow("CR&P (k=10)        ", crp, base);

  return 0;
}
