// Ablation A3 (paper §IV.B.1): the simulated-annealing history damping
// of Alg. 1 (hist_c / hist_m).  Runs CR&P k=10 with damping on (paper)
// vs off, reporting moves per iteration and final quality.  With
// damping off the framework re-selects the same congested cells every
// iteration and explores fewer distinct cells ("not be stuck with
// critical cells in congested areas").
//
// Environment: CRP_SCALE (default 120).
#include <iostream>
#include <set>

#include "flow_common.hpp"

int main() {
  using namespace crp;
  using util::padLeft;
  using util::padRight;

  const double scale = bench::envDouble("CRP_SCALE", 120.0);
  auto suite = bmgen::ispdLikeSuite(scale);
  std::vector<bmgen::SuiteEntry> picks;
  for (const auto& entry : suite) {
    if (entry.hotspots >= 2) picks.push_back(entry);
  }

  std::cout << "=== Ablation A3: Alg. 1 history damping (k=10, scale 1/"
            << scale << ") ===\n";
  std::cout << padRight("Benchmark", 12) << padLeft("damp moves", 12)
            << padLeft("damp cells", 12) << padLeft("nodamp moves", 14)
            << padLeft("nodamp cells", 14) << "\n";

  for (const auto& entry : picks) {
    auto runVariant = [&](bool damping) {
      auto db = bmgen::generateBenchmark(entry.spec);
      groute::GlobalRouter router(db);
      router.run();
      core::CrpOptions options;
      options.iterations = 10;
      options.historyDamping = damping;
      core::CrpFramework framework(db, router, options);
      return std::make_pair(framework.run().totalMoves,
                            framework.movedSet().size());
    };
    const auto [dampMoves, dampCells] = runVariant(true);
    const auto [noDampMoves, noDampCells] = runVariant(false);
    std::cout << padRight(entry.name, 12)
              << padLeft(std::to_string(dampMoves), 12)
              << padLeft(std::to_string(dampCells), 12)
              << padLeft(std::to_string(noDampMoves), 14)
              << padLeft(std::to_string(noDampCells), 14) << "\n";
  }
  std::cout << "expectation: damping spreads the move budget over more "
               "distinct cells instead of re-touching the same ones.\n";
  return 0;
}
