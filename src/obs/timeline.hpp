// Flow timeline: one structured record per CR&P iteration.
//
// A TimelineRecord is the single per-iteration record of a run
// (RunReport::iterationStats; CrpFramework::runIteration returns it):
// how many cells the LCC phase labeled and how many the annealing
// history damped away, how many candidates GCP generated and ECC
// priced, what SEL selected vs what the UD commit actually applied,
// the displacement the moves cost, and — when the spatial tier
// captured it — the wire overflow before/after the iteration
// (matching the congestion totals of the bracketing
// HeatmapSnapshots).  All fields are deterministic across thread
// counts, so captured records are part of the RunReport fingerprint.
#pragma once

#include <cstdint>
#include <vector>

#include "obs/json.hpp"

namespace crp::obs {

struct TimelineRecord {
  int iteration = 0;

  // LCC
  int criticalCells = 0;  ///< labeled critical
  int dampedCells = 0;    ///< skipped by the annealing history damp

  // GCP / ECC / SEL
  int candidatesGenerated = 0;
  std::uint64_t netsPriced = 0;
  int movesSelected = 0;  ///< non-current candidates the ILP picked
  double selectedCost = 0.0;

  // UD commit
  int movedCells = 0;      ///< critical cells committed
  int displacedCells = 0;  ///< conflict cells moved alongside
  std::int64_t totalDisplacementDbu = 0;
  std::int64_t maxDisplacementDbu = 0;
  int reroutedNets = 0;

  // Wire overflow bracketing the iteration (congestionStats totals);
  // zero unless overflowCaptured.
  double overflowBefore = 0.0;
  double overflowAfter = 0.0;
  int overflowedEdgesBefore = 0;
  int overflowedEdgesAfter = 0;

  /// True for iterations driven by CrpFramework::runEco (restricted
  /// scope, persistent pricing cache).  Serialized only when set, so
  /// batch-run reports — and their fingerprints — stay byte-identical
  /// to the pre-ECO format.
  bool eco = false;

  /// True when the spatial tier captured the overflow bracket
  /// (CrpOptions::snapshots with the obs gate on).  Only captured
  /// records make up the serialized "timeline", so the flag itself is
  /// not serialized and fromJson sets it.
  bool overflowCaptured = false;

  Json toJson() const;
  static TimelineRecord fromJson(const Json& json);
};

/// Renders records as an aligned text table (crp_report timeline).
std::string formatTimeline(const std::vector<TimelineRecord>& timeline);

/// One CSV line per record, with a header row.
std::string timelineCsv(const std::vector<TimelineRecord>& timeline);

}  // namespace crp::obs
