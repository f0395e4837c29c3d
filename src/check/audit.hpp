// The invariant-audit subsystem: a first-class checking layer for the
// cross-module contracts the CR&P flow relies on implicitly.
//
// The paper assumes (without ever stating them as checkable predicates)
// that placement stays legal after every ILP-legalizer/commit step
// (Alg. 2), that the GCell demand maps stay conserved through rip-up
// and reroute (§IV.B.5), and that every committed net route stays a
// connected, terminal-covering tree — Eq. 9/10 pricing is meaningless
// over a broken route.  DbAuditor audits a whole database (plus an
// optional attached GlobalRouter) against a catalog of named
// invariants and returns structured AuditFailure records instead of
// bare booleans, so a failing audit says *which* object broke *which*
// contract and what the expected/actual values were.
//
// The same catalog serves three consumers:
//   * tests — via the building-block helpers (auditRoute,
//     auditDemandAgainstRoutes, auditCachedPrices) and the
//     EXPECT_CLEAN_AUDIT macro in tests/test_helpers.hpp,
//   * the fuzz harness — FuzzCampaign (fuzz.hpp) audits after every
//     flow phase and diffs run fingerprints across paired configs, and
//   * production runs — CrpOptions::auditLevel arms the framework's
//     phase-boundary audits (off / phase-boundary / paranoid), which
//     publish check.* observability counters and throw AuditError on
//     the first dirty report.
//
// Demand-exactness note: RoutingGraph's fixed usage (U_f) is a
// construction-time snapshot of blockages and macro obstructions, by
// design (the flow never rebuilds it when cells move).  The audit
// therefore recomputes and diffs only the route-induced state — wire
// and via usage, via counts, and the wire/via totals — which is
// exactly what the incremental applyRoute bookkeeping maintains.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "db/database.hpp"
#include "groute/global_router.hpp"
#include "groute/pattern_route.hpp"
#include "groute/route.hpp"
#include "groute/routing_graph.hpp"
#include "obs/json.hpp"

namespace crp::check {

// ---- audit levels (the CrpOptions knob) -------------------------------------

/// How much checking production code performs while the flow runs.
enum class AuditLevel {
  kOff = 0,            ///< no audits (the default; zero overhead)
  kPhaseBoundary = 1,  ///< audit once per iteration, after the UD commit
  kParanoid = 2,       ///< audit after every phase + cache coherence +
                       ///< candidate re-pricing + write/parse
                       ///< round-trips at iteration ends
};

const char* auditLevelName(AuditLevel level);

/// Parses "off" / "phase" / "phase-boundary" / "paranoid" (CLI flags);
/// nullopt on anything else.
std::optional<AuditLevel> auditLevelFromString(const std::string& text);

// ---- the invariant catalog --------------------------------------------------

enum class Invariant {
  kPlacementLegality,  ///< die/row/site alignment, overlaps (db/legality)
  kDemandExactness,    ///< incremental demand maps == from-scratch recompute
  kRouteValidity,      ///< connected segment graph, pins covered, in bounds
  kPricingCoherence,   ///< cached price == from-scratch priceTree
  kGuideRoundTrip,     ///< guide write -> parse reproduces the guides
  kDefRoundTrip,       ///< DEF write -> parse -> write is byte-identical
  kBlockageDemand,     ///< U_f/blocked-map snapshot still matches the db;
                       ///< no route crosses a hard-blocked edge
  kMacroLegality,      ///< no cell overlaps a fixed macro; macros in-die
  kHeightAlignment,    ///< multi-row cells aligned to whole row spans
  kCandidatePricing,   ///< ECC engine price == reference re-price
};
inline constexpr int kNumInvariants = 10;

const char* invariantName(Invariant invariant);

// ---- structured failures ----------------------------------------------------

/// One violated invariant instance.  Never a bare bool: the record
/// carries the object that broke the contract and the expected/actual
/// values, so a failing audit (or fuzz seed) is diagnosable from the
/// report alone.
struct AuditFailure {
  Invariant invariant = Invariant::kPlacementLegality;
  std::string object;    ///< e.g. "net net_17", "wire edge L2 (4,1)"
  std::string expected;
  std::string actual;

  /// "[demand-exactness] wire edge L2 (4,1): expected 2, actual 3"
  std::string describe() const;
};

/// Outcome of one audit pass.
struct AuditReport {
  std::vector<AuditFailure> failures;
  int invariantsChecked = 0;  ///< catalog entries actually evaluated

  bool clean() const { return failures.empty(); }
  /// Failures recorded against one invariant.
  int countFor(Invariant invariant) const;
  /// True when every failure belongs to `invariant` and there is at
  /// least one (the mutation tests' "caught by exactly the expected
  /// invariant" predicate).
  bool onlyFailure(Invariant invariant) const;
  /// Multi-line human-readable dump (empty string when clean).
  std::string summary() const;
};

/// Thrown by production audit points (CrpFramework, FuzzCampaign) when
/// a report is dirty; carries the report for programmatic inspection.
class AuditError : public std::runtime_error {
 public:
  AuditError(std::string message, AuditReport report)
      : std::runtime_error(std::move(message)), report_(std::move(report)) {}
  const AuditReport& report() const { return report_; }

 private:
  AuditReport report_;
};

// ---- the auditor ------------------------------------------------------------

class DbAuditor {
 public:
  /// Audits `db` (and, when given, `router`'s routes/demand/guides).
  /// Both must outlive the auditor.  Router-dependent invariants are
  /// skipped — not failed — when no router is attached.
  explicit DbAuditor(const db::Database& db,
                     const groute::GlobalRouter* router = nullptr);

  /// Runs every applicable invariant of the catalog.
  AuditReport auditAll() const;

  // Individual invariants (appended into an existing report so callers
  // can compose a custom pass).
  /// Covers three catalog entries (placement-legality, macro-overlap
  /// legality, height/row alignment) from one db::checkPlacement scan,
  /// classifying each violation to its invariant.
  void auditPlacement(AuditReport& report) const;
  void auditDemand(AuditReport& report) const;         ///< needs router
  void auditRoutes(AuditReport& report) const;         ///< needs router
  void auditGuideRoundTrip(AuditReport& report) const; ///< needs router
  void auditDefRoundTrip(AuditReport& report) const;
  /// Blockage-demand exactness: the router graph's fixed-usage and
  /// hard-blocked maps must equal a from-scratch rebuild (they are
  /// construction-time snapshots, valid only while obstructed cells
  /// stay put — exactly what fixed-only hard blocking guarantees), and
  /// no committed route may cross a hard-blocked edge.  Needs router.
  void auditBlockages(AuditReport& report) const;

 private:
  const db::Database& db_;
  const groute::GlobalRouter* router_;
};

// ---- standalone building blocks (shared by tests and the auditor) -----------

/// Route validity of a single route against its terminal set: segments
/// inside the graph and direction-legal, one connected component,
/// every terminal column covered.  `object` labels failures (net name).
void auditRoute(const groute::RoutingGraph& graph,
                const groute::NetRoute& route,
                const std::vector<groute::GPoint>& terminals,
                const std::string& object, AuditReport& report);

/// Demand-map exactness: rebuilds a fresh RoutingGraph from `db` (same
/// cost config as `graph`), applies exactly `routes`, and diffs every
/// route-induced counter — per-edge wire/via usage, per-node via
/// counts, wire/via totals — against `graph`.  Pass an empty list to
/// assert the graph carries no residual demand (conservation).
void auditDemandAgainstRoutes(const db::Database& db,
                              const groute::RoutingGraph& graph,
                              const std::vector<const groute::NetRoute*>& routes,
                              AuditReport& report);

/// Pricing-cache coherence: every (canonical terminal set, cached
/// price) entry must equal a from-scratch PatternRouter::priceTree on
/// the pattern router's current graph state.
void auditCachedPrices(
    const groute::PatternRouter& pattern,
    const std::vector<std::pair<std::vector<groute::GPoint>, double>>& entries,
    AuditReport& report);

/// Candidate pricing of one ECC candidate: the engine's `enginePrice`
/// must equal the reference `referencePrice` bit for bit.  The
/// re-pricing itself is core::auditCandidatePrices (crp sits above
/// this library).
void auditCandidatePrice(const std::string& cellName, std::size_t candidate,
                         double referencePrice, double enginePrice,
                         AuditReport& report);

// ---- flight-recorder dumps --------------------------------------------------

/// Structured JSON form of an audit report (the failures array plus
/// invariantsChecked) — the trigger payload of flight-recorder dumps.
obs::Json auditReportToJson(const AuditReport& report);

/// Dumps the process-wide obs::FlightRecorder (recent events + latest
/// heatmap) triggered by `report`'s failures into
/// `dir/flight_<context>.json`, creating `dir` on demand.  Returns the
/// written path, or an empty string when the write fails (the caller's
/// failure handling must not die on a diagnostic I/O error).
std::string writeFlightRecorderDump(const AuditReport& report,
                                    const std::string& dir,
                                    const std::string& context);

// ---- run fingerprint --------------------------------------------------------

/// Deterministic 64-bit fingerprint of the flow-visible state: every
/// cell position, every committed route's segments, and the router's
/// wire/via totals.  Unlike RunReport::fingerprint() this reads the
/// database and router directly, so it is identical whether or not
/// observability was enabled — the property the differential fuzz
/// harness needs for its obs-on vs obs-off pairing.
std::uint64_t flowFingerprint(const db::Database& db,
                              const groute::GlobalRouter& router);

}  // namespace crp::check
