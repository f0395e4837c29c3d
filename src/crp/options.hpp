// Configuration of the CR&P framework.  Defaults are the paper's
// values (§IV.B, §V); the boolean switches exist for the ablation
// benches (DESIGN.md experiments A1-A3).
#pragma once

#include <cstdint>
#include <limits>
#include <string>

#include "check/audit.hpp"
#include "legalizer/ilp_legalizer.hpp"

namespace crp::util {
class ThreadPool;
}

namespace crp::core {

struct CrpOptions {
  int iterations = 1;        ///< k in the paper (Table III: 1 and 10)
  double gamma = 0.6;        ///< max fraction of cells labeled critical
  double temperature = 1.0;  ///< T in Alg. 1 line 11

  /// Alg. 1 sorts cells by routing cost (paper) — false = random order
  /// (ablation A2, the [18]-style no-priority selection).
  bool prioritizeByCost = true;
  /// Alg. 1 damps re-selection via exp(-(hist_c + hist_m)/T) — false =
  /// always re-eligible (ablation A3).
  bool historyDamping = true;

  legalizer::LegalizerOptions legalizer;

  std::uint64_t seed = 1;  ///< Alg. 1's annealing draw (reproducible)
  int threads = 0;         ///< worker threads for Alg. 2/3; 0 = hardware

  /// Worker pool for Alg. 2/3 (and, via GlobalRouterOptions, the UD
  /// batch reroute).  Null: the framework owns a private pool of
  /// `threads` workers, as before.  Non-null: the framework submits to
  /// this shared pool instead (the serve daemon runs every session on
  /// one pool); `threads` is then ignored.  Safe because parallelFor
  /// is reentrant and waits on per-call state, and workers inherit the
  /// submitter's ObsContext through the submit-time task wrapper.
  util::ThreadPool* sharedPool = nullptr;

  /// Worker threads for the UD phase's conflict-free batch reroute
  /// (applied to the GlobalRouter at framework construction): 1 =
  /// serial, 0 = hardware.  Value-exact: routes, demand maps and the
  /// run fingerprint are bit-identical for every setting (the batch
  /// plan is deterministic and batch members touch disjoint regions).
  int routerThreads = 0;

  /// In-flow invariant auditing (src/check, docs/checking.md).  Off is
  /// free (a single enum compare per phase); phase-boundary audits
  /// placement/routes/demand once per iteration after the UD commit;
  /// paranoid audits after every phase, replays the ECC pricing cache
  /// against from-scratch prices, re-prices every ECC candidate with
  /// the reference pricer, and round-trips the guide/DEF
  /// writers at iteration ends.  A dirty audit throws check::AuditError.
  /// Value-exact: no level mutates any flow state, so the run
  /// fingerprint is identical at every setting.
  check::AuditLevel auditLevel = check::AuditLevel::kOff;

  /// Spatial observability tier (docs/observability.md): when true and
  /// the obs runtime gate is on, the framework captures a congestion
  /// HeatmapSnapshot after global routing and after every UD commit
  /// (k+1 snapshots, delta-encoded in CrpFramework::heatmaps()) and
  /// marks each iteration's RunReport record as captured (its overflow
  /// bracket joins the "timeline").
  /// Value-exact and schedule-independent: captures read committed
  /// state only, so no flow decision changes and the grids are
  /// bit-identical across --threads / --router-threads.
  bool snapshots = false;

  /// When non-empty, a dirty in-flow audit dumps the flight recorder
  /// (recent events + latest heatmap + the audit failures) into this
  /// directory before AuditError propagates (docs/observability.md).
  std::string flightRecorderDir;

  /// Safety cap on critical cells per iteration on top of gamma.
  int maxCriticalCells = std::numeric_limits<int>::max();

  /// Total cell-move budget across all iterations (critical + displaced
  /// conflict cells).  Mirrors the ICCAD-2020/2021 "routing with cell
  /// movement" contest constraint the paper cites ([3], [17]): those
  /// contests allow a bounded number of cell moves.  When the budget
  /// would be exceeded, the UD phase commits only the selected moves
  /// with the best estimated cost gain.  Default: unlimited.
  int maxMovesTotal = std::numeric_limits<int>::max();
};

}  // namespace crp::core
