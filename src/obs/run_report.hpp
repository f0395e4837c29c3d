// Machine-readable per-run report for the CR&P flow.
//
// The framework fills a RunReport as it runs (phase wall times,
// one record per iteration, pricing-cache and ILP counter deltas, final
// router stats); the CLI serializes it with toJson() and formats the
// human-readable telemetry from the same object, so phase names exist
// in exactly one place (core::kPhases) instead of being re-typed by
// every consumer.
//
// The JSON document is versioned: fromJson() rejects any payload whose
// "schemaVersion" differs from kSchemaVersion, so downstream tooling
// fails loudly instead of misreading renamed fields.
//
// fingerprint() extracts the deterministic subset — values that are
// identical across thread counts and schedules (moves, costs,
// wirelength, schedule-independent event totals) — which is what the
// golden regression test asserts.  Wall-clock fields and racy splits
// (cache hit vs miss) are deliberately excluded; see metrics.hpp.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/timeline.hpp"

namespace crp::obs {

/// ECC pricing-engine counters: one phase's (PricingCache), or summed
/// over a run (RunReport::pricing).
struct PricingStats {
  std::uint64_t cacheHits = 0;    ///< priced from the cache
  std::uint64_t cacheMisses = 0;  ///< pattern routes actually executed
  std::uint64_t deltaSkips = 0;   ///< nets skipped: terminals unchanged

  std::uint64_t netsPriced() const {
    return cacheHits + cacheMisses + deltaSkips;
  }
  double hitRate() const {
    const std::uint64_t reused = cacheHits + deltaSkips;
    const std::uint64_t total = reused + cacheMisses;
    return total == 0 ? 0.0 : static_cast<double>(reused) / total;
  }
  PricingStats& operator+=(const PricingStats& other) {
    cacheHits += other.cacheHits;
    cacheMisses += other.cacheMisses;
    deltaSkips += other.deltaSkips;
    return *this;
  }
};

struct RunReport {
  /// v2: adds the optional "timeline" array (spatial observability
  /// tier, the full record of every captured iteration).
  static constexpr int kSchemaVersion = 2;
  /// Version stamp inside fingerprint() documents.  Deliberately
  /// decoupled from kSchemaVersion: the fingerprint only changes when
  /// the *deterministic subset* changes shape, so additive schema bumps
  /// do not invalidate checked-in golden fingerprints.
  static constexpr int kFingerprintVersion = 1;

  // ---- flow configuration ---------------------------------------------------
  int iterations = 0;  ///< the paper's k
  int threads = 0;
  std::uint64_t seed = 0;

  // ---- phase wall times (insertion order = flow order) ----------------------
  struct PhaseStat {
    std::string name;
    double seconds = 0.0;
  };
  std::vector<PhaseStat> phases;

  // ---- per-iteration records ------------------------------------------------
  /// One record per CR&P iteration, in run order (record i has
  /// iteration == i).  Every record is serialized under
  /// "iterations_detail" (its scalar summary); the records whose
  /// overflow bracket was captured (CrpOptions::snapshots) are also
  /// serialized in full under "timeline", which is absent when there
  /// are none — so snapshot-off reports keep the pre-timeline shape.
  std::vector<TimelineRecord> iterationStats;

  // ---- ECC pricing-cache totals (summed over iterations) --------------------
  PricingStats pricing;

  // ---- ILP solver totals (GCP legalizer + SEL selection) --------------------
  struct IlpTotals {
    std::uint64_t solves = 0;
    std::uint64_t nodes = 0;     ///< branch-and-bound nodes explored
    std::uint64_t lpCalls = 0;   ///< LP relaxations solved
    std::uint64_t lpPivots = 0;  ///< simplex pivots across all LPs
  };
  IlpTotals ilp;

  // ---- final router state ---------------------------------------------------
  struct RouterStats {
    std::int64_t wirelengthDbu = 0;
    std::int64_t vias = 0;
    double totalOverflow = 0.0;
    int overflowedEdges = 0;
    int openNets = 0;
    int reroutedNets = 0;
  };
  RouterStats router;

  // ---- flow totals ----------------------------------------------------------
  int totalMoves = 0;
  int totalReroutes = 0;

  /// Raw counter deltas for this run (everything the registry saw),
  /// exported verbatim under "counters" for ad-hoc analysis.
  std::map<std::string, std::uint64_t> counters;

  /// Wall time of the named phase; 0.0 when the phase never ran.
  double phaseSeconds(const std::string& name) const;
  /// Sum of all phase wall times.
  double totalPhaseSeconds() const;
  /// The records with a captured overflow bracket (the "timeline").
  std::vector<TimelineRecord> timeline() const;

  Json toJson() const;
  /// Throws JsonError on malformed payloads or schema-version mismatch.
  static RunReport fromJson(const Json& json);

  /// Deterministic subset for golden assertions (no wall clock, no
  /// racy counter splits).  Stable across --threads values.
  Json fingerprint() const;
};

/// Human-readable telemetry (what `crp run` prints).  All phase names
/// come from the report itself.
std::string formatRunReport(const RunReport& report);

}  // namespace crp::obs
