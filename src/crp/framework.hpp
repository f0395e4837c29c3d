// The CR&P framework driver (paper Fig. 1, step 2).
//
// Each iteration executes the five phases:
//   LCC  Label Critical Cells            (Alg. 1)
//   GCP  Generate Candidate Positions    (Alg. 2, ILP legalizer)
//   ECC  Estimate Candidates Cost        (Alg. 3, 3D pattern route)
//   SEL  Find Best Candidates            (Eq. 12 ILP)
//   UD   Update Database                 (§IV.B.5: move + reroute)
// and records per-phase wall-clock plus pricing/ILP counters into an
// obs::RunReport (Fig. 2 / Fig. 3 and the --report-out JSON).
#pragma once

#include <memory>
#include <unordered_set>

#include "crp/candidate_generation.hpp"
#include "crp/critical_cells.hpp"
#include "crp/options.hpp"
#include "crp/selection.hpp"
#include "db/database.hpp"
#include "db/eco.hpp"
#include "groute/global_router.hpp"
#include "obs/context.hpp"
#include "obs/heatmap.hpp"
#include "obs/metrics.hpp"
#include "obs/run_report.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace crp::core {

/// Phase names (Fig. 3 buckets GCP / ECC / UD; LCC and SEL fall into
/// the figure's "Misc").
inline constexpr const char* kPhaseLcc = "LCC";
inline constexpr const char* kPhaseGcp = "GCP";
inline constexpr const char* kPhaseEcc = "ECC";
inline constexpr const char* kPhaseSel = "SEL";
inline constexpr const char* kPhaseUd = "UD";

/// The five phases in flow order — the single source of phase names.
/// RunReport phases, telemetry output, and the schema test all iterate
/// this array instead of re-typing the literals.
inline constexpr const char* kPhases[] = {kPhaseLcc, kPhaseGcp, kPhaseEcc,
                                          kPhaseSel, kPhaseUd};
inline constexpr int kNumPhases = 5;

/// Knobs of one runEco call (CrpOptions still governs pricing, audit
/// level, threads and the RNG stream).
struct EcoOptions {
  int iterations = 1;  ///< restricted CR&P iterations after the patch
  /// Dirty-region halo in gcells: rip-up and the candidate scope use
  /// the delta's footprint grown by this much, so cost neighborhoods
  /// that merely border the change still participate.
  int haloGCells = 2;
  /// Candidates proposed per critical cell during the restricted
  /// iterations (full runs use LegalizerOptions::maxCandidates).  The
  /// base placement already converged and the delta is small, so the
  /// top-ranked Eq. 11 slots carry the gain; narrowing the exploration
  /// cuts the dominant GCP/ECC per-cell cost on the eco side while the
  /// eco-vs-scratch parity bounds guard the quality.  <= 0 keeps the
  /// full-run width.
  int maxCandidates = 4;
};

/// What one runEco call did (eco.* obs counters mirror this).
struct EcoReport {
  // Delta application (EcoApplyResult counts).
  int movedCells = 0;
  int addedCells = 0;
  int removedCells = 0;
  int addedNets = 0;
  int rewiredPins = 0;

  // Dirty-region patch.
  int dirtyRects = 0;       ///< rects in the dirty region
  int dirtyNets = 0;        ///< nets ripped up / rerouted by the patch
  int failedReroutes = 0;   ///< patch reroutes that restored old routes
  int scopeCells = 0;       ///< cells eligible for restricted iterations
  std::size_t cacheEvictions = 0;  ///< pricing entries evicted this call

  double patchSeconds = 0.0;  ///< apply + dirty tracking + patch reroute
  double totalSeconds = 0.0;  ///< whole runEco call

  // Restricted iterations (their records join RunReport::iterationStats).
  int moves = 0;                 ///< cells moved, displaced ones included
  int reroutes = 0;              ///< nets rerouted by the UD phases
  std::uint64_t netsPriced = 0;  ///< ECC nets priced
};

/// The UD phase's move-commit plan: which selected moves to apply.
struct CommitPlan {
  /// Indices into the candidates vector, in commit (gain) order.
  std::vector<std::size_t> committed;
  int movesNeeded = 0;    ///< cells moved by the committed set
  int conflictSkips = 0;  ///< moves dropped: cell or site already claimed
  int budgetSkips = 0;    ///< moves dropped: over the remaining budget
};

/// The deterministic configuration surface of a run as an ordered JSON
/// object: every CrpOptions knob that can change flow decisions or
/// QoR (iterations, gamma, temperature, the ablation switches, seed,
/// budgets) — not the engine-placement knobs (threads, pools) that are
/// value-exact by contract.  The run ledger digests this document
/// (obs::fnv1a64Hex) so "same options" is checkable across runs and
/// hosts without storing the whole option set.
obs::Json optionsFingerprintJson(const CrpOptions& options);

/// Plans the UD commit for one iteration (§IV.B.5 plus the ICCAD-style
/// move budget).  Ranks the non-current selected moves by estimated
/// gain — the cost of the cell's *current* candidate (isCurrent entry)
/// minus the chosen one — then walks them in rank order, skipping any
/// move that (a) moves a cell another committed move already moves or
/// displaces, (b) lands a cell on a site another committed move already
/// claims, or (c) does not fit the remaining move budget.  Without the
/// claim tracking two selected moves could double-move a shared
/// displaced cell or stack two cells on one site.
CommitPlan planMoveCommits(const std::vector<CellCandidates>& candidates,
                           const std::vector<int>& chosen, int budget);

class CrpFramework {
 public:
  /// The framework mutates `db` (cell positions) and `router` (routes
  /// and demand maps); both must outlive it, as must the ambient
  /// ObsContext it is constructed under and options.sharedPool when
  /// set.
  CrpFramework(db::Database& db, groute::GlobalRouter& router,
               CrpOptions options = {});

  /// Runs options.iterations iterations (the paper's k) and returns the
  /// refreshed runReport().  Also drops the persistent ECO pricing
  /// cache: a full run changes demand everywhere, so nothing in it
  /// could survive.
  const obs::RunReport& run();

  /// Runs a single iteration (exposed for tests and custom loops):
  /// appends its record to RunReport::iterationStats and returns it.
  obs::TimelineRecord runIteration();

  /// The incremental entry point (docs/eco.md): applies `delta`
  /// transactionally, invalidates only the dirty gcell region — routes
  /// crossing it are ripped up and rerouted through the batch planner,
  /// pricing-cache entries whose terminal bbox it touches are evicted —
  /// and then runs eco.iterations CR&P iterations restricted to cells
  /// whose nets intersect the region.  Throws db::EcoError (database
  /// untouched) for an invalid delta; audit behavior and determinism
  /// contracts match run().  Wall clock scales with the delta, not the
  /// design: that is the ≥10x win BENCH_eco.json records.
  EcoReport runEco(const db::EcoDelta& delta, const EcoOptions& eco = {});

  /// The observability run report.  Phase wall times and per-iteration
  /// records accumulate as iterations execute (run, runEco and manual
  /// runIteration alike); config, final router stats, and
  /// metric-counter deltas (relative to the registry snapshot taken at
  /// construction) are refreshed on each call.
  const obs::RunReport& runReport();

  /// Called after every completed iteration (run, runEco, or a manual
  /// runIteration) with its record — while the framework's ObsContext
  /// is still installed, so the callback can read heatmaps() to stream
  /// progress (the serve daemon's per-iteration events).  Keep it
  /// cheap; it runs on the flow thread.
  void setIterationCallback(
      std::function<void(const obs::TimelineRecord&)> callback) {
    iterationCallback_ = std::move(callback);
  }

  /// The context this framework records into: the ambient one at
  /// construction.
  obs::ObsContext& obsContext() { return obsCtx_; }

  const std::unordered_set<db::CellId>& movedSet() const { return moved_; }
  const std::unordered_set<db::CellId>& criticalHistory() const {
    return criticalHistory_;
  }

  /// Delta-encoded congestion snapshots captured this run (empty
  /// unless options.snapshots and the obs gate are on): one "post-gr"
  /// baseline plus one per iteration — the k+1 heatmaps bracketing the
  /// captured RunReport records.
  const obs::HeatmapSeries& heatmaps() const { return heatmaps_; }

 private:
  /// Adds `seconds` to the named phase's RunReport bucket.
  void chargePhase(const char* phase, double seconds);

  /// Appends a finished iteration's record to the RunReport (records
  /// and totals), runs the iteration callback, and returns the record.
  obs::TimelineRecord recordIteration(const obs::TimelineRecord& record);

  /// True when the spatial tier records this run (options.snapshots
  /// and the runtime obs gate both on).
  bool spatialEnabled() const;

  /// Captures a heatmap into heatmaps_ and hands a copy to the flight
  /// recorder as "latest"; returns the series' newest snapshot.
  const obs::HeatmapSnapshot& captureSnapshot(std::string label,
                                              int iteration);

  /// The options.auditLevel hook, called at the end of each phase.
  /// `iterationEnd` marks the post-UD boundary (the only point the
  /// phase-boundary level audits; paranoid adds the I/O round-trips
  /// there).  `eccCandidates`, passed right after ECC while the demand
  /// maps are still frozen, adds the pricing-cache coherence replay and
  /// the candidate-pricing re-price of those candidates.  Read-only on
  /// all flow state; throws check::AuditError when a report comes back
  /// dirty.
  void maybeAudit(const char* phase, bool iterationEnd,
                  const std::vector<CellCandidates>* eccCandidates = nullptr);

  /// Evicts persistent-cache entries whose terminal bbox overlaps the
  /// about-to-change region of `nets` (each net's current extent plus
  /// the maze margin and one halo gcell — the same write-region bound
  /// the batch planner uses).  Call *before* the rip-up/reroute so the
  /// extents still cover the old routes.
  void invalidateEcoCache(const std::vector<db::NetId>& nets);

  db::Database& db_;
  groute::GlobalRouter& router_;
  CrpOptions options_;
  util::Rng rng_;
  /// The ambient context of the constructing thread.  Every entry
  /// point installs it and runReport() reads it, so a caller outside
  /// the session's scope (Server::appendLedgerEntry) still sees this
  /// run's counters.
  obs::ObsContext& obsCtx_;
  std::unique_ptr<util::ThreadPool> ownedPool_;  ///< null on sharedPool
  util::ThreadPool* pool_ = nullptr;
  std::function<void(const obs::TimelineRecord&)> iterationCallback_;
  obs::RunReport runReport_;
  obs::MetricsSnapshot baseline_;  ///< context registry at construction
  ilp::SolveTotals ilpTotals_;     ///< GCP + SEL solves (RunReport::ilp)
  obs::HeatmapSeries heatmaps_;    ///< spatial tier (options.snapshots)
  std::unordered_set<db::CellId> criticalHistory_;  ///< db.critical_hist
  std::unordered_set<db::CellId> moved_;            ///< db.moved_set
  int movesUsed_ = 0;  ///< against options.maxMovesTotal

  // ---- ECO mode (set for the span of runEco's iterations) ----------------
  bool ecoMode_ = false;
  /// Candidate scope of the current runEco call (null = unrestricted).
  const std::unordered_set<db::CellId>* ecoScope_ = nullptr;
  /// EcoOptions::maxCandidates for the current runEco call (<= 0 keeps
  /// the full-run legalizer width).
  int ecoMaxCandidates_ = 0;
  /// Pricing cache that outlives individual ECC phases: every ECC
  /// phase prices through it.  run() empties it (fresh GR invalidates
  /// everything) and then keeps it across its iterations; runEco
  /// inherits the warm cache.  Cached values are bit-identical to
  /// recomputed ones (pricing_cache.hpp), so goldens are untouched.
  PricingCache ecoCache_;
  std::size_t ecoEvictions_ = 0;  ///< evictions within the current runEco
};

}  // namespace crp::core
