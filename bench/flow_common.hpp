// Shared flow runner for the paper-reproduction benches.
//
// Each bench binary regenerates one table or figure of the paper by
// running full flows (generate -> GR -> optional optimizer -> DR ->
// evaluate) over the crp_test1..10 suite.  The suite scale divisor is
// tunable through the CRP_SCALE environment variable (paper scale = 1;
// default divisors keep every bench a few minutes on a laptop).
#pragma once

#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "baseline/median_ilp.hpp"
#include "bmgen/generator.hpp"
#include "bmgen/suite.hpp"
#include "crp/framework.hpp"
#include "droute/detailed_router.hpp"
#include "eval/evaluator.hpp"
#include "groute/global_router.hpp"
#include "obs/run_report.hpp"
#include "util/string_util.hpp"
#include "util/timer.hpp"

namespace crp::bench {

enum class FlowKind {
  kBaseline,  ///< GR + DR only (CUGR + TritonRoute analogue)
  kMedian18,  ///< GR + median-move ILP [18] + DR
  kCrp,       ///< GR + CR&P(k) + DR
};

struct FlowOutcome {
  bool failed = false;  ///< only for [18]: budget exhausted
  eval::Metrics metrics;
  double grSeconds = 0.0;
  double optSeconds = 0.0;  ///< CR&P or [18] optimizer time
  double drSeconds = 0.0;
  double totalSeconds() const { return grSeconds + optSeconds + drSeconds; }
  int moves = 0;
  obs::RunReport crpReport;  ///< populated for kCrp (phase seconds etc.)
};

/// Environment override helper.
inline double envDouble(const char* name, double fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr) return fallback;
  const double parsed = std::atof(value);
  return parsed > 0.0 ? parsed : fallback;
}

inline int envInt(const char* name, int fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr) return fallback;
  const int parsed = std::atoi(value);
  return parsed > 0 ? parsed : fallback;
}

/// Runs one flow over one suite entry.  `iterations` is the CR&P k
/// (ignored unless kind == kCrp).  `options` tweaks (for ablations) are
/// applied on top of the paper defaults.  `prebuilt`, when given, skips
/// benchmark generation and copies the provided database instead (flows
/// mutate their copy) — benches comparing several flows on one design
/// share one generation this way.
inline FlowOutcome runFlow(const bmgen::SuiteEntry& entry, FlowKind kind,
                           int iterations = 1,
                           std::optional<core::CrpOptions> crpOverride = {},
                           double median18BudgetSeconds = 1e9,
                           const db::Database* prebuilt = nullptr) {
  FlowOutcome outcome;
  auto db = prebuilt != nullptr ? *prebuilt
                                : bmgen::generateBenchmark(entry.spec);

  util::Stopwatch watch;
  groute::GlobalRouter router(db);
  router.run();
  outcome.grSeconds = watch.seconds();

  watch.restart();
  switch (kind) {
    case FlowKind::kBaseline:
      break;
    case FlowKind::kMedian18: {
      baseline::BaselineOptions options;
      options.timeBudgetSeconds = median18BudgetSeconds;
      const auto result =
          baseline::runMedianIlpOptimizer(db, router, options);
      outcome.moves = result.movedCells;
      if (result.failed) {
        outcome.failed = true;
        outcome.optSeconds = watch.seconds();
        return outcome;
      }
      break;
    }
    case FlowKind::kCrp: {
      core::CrpOptions options =
          crpOverride.has_value() ? *crpOverride : core::CrpOptions{};
      options.iterations = iterations;
      core::CrpFramework framework(db, router, options);
      outcome.crpReport = framework.run();
      outcome.moves = outcome.crpReport.totalMoves;
      break;
    }
  }
  outcome.optSeconds = watch.seconds();

  watch.restart();
  droute::DetailedRouter detailed(db, router.buildGuides());
  outcome.metrics = eval::collectMetrics(detailed.run());
  outcome.drSeconds = watch.seconds();
  return outcome;
}

/// Formats an improvement percentage like Table III (positive = better).
inline std::string pct(double value) {
  return util::formatDouble(value, 2);
}

}  // namespace crp::bench
