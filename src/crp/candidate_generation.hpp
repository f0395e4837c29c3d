// Alg. 2 (Generate Candidate Positions) + Alg. 3 (Cost Estimation).
//
// Each critical cell receives its current position plus the ILP
// legalizer's proposals (Alg. 2 lines 1-6, run in parallel).  Every
// candidate is then priced by re-building the Steiner topology of each
// affected net and 3D-pattern-routing it against the live congestion
// state (Alg. 3, run in parallel).  Nets of displaced conflict cells
// are priced too, so a candidate pays for the collateral movement it
// causes.
//
// Pricing runs through the incremental candidate-cost engine
// (docs/pricing_cache.md): each cell's baseline net prices are
// computed once, non-current candidates re-price only the nets whose
// terminal GCell set actually changed (delta pricing), and every
// pattern route is memoized by canonical terminal set in a shared
// PricingCache.  Every layer is value-exact: the engine's price of a
// candidate equals estimateCandidateCost's bit for bit, which the
// paranoid audit (auditCandidatePrices) checks in flow.
#pragma once

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "check/audit.hpp"
#include "crp/pricing_cache.hpp"
#include "db/database.hpp"
#include "groute/global_router.hpp"
#include "groute/pattern_route.hpp"
#include "legalizer/ilp_legalizer.hpp"
#include "util/thread_pool.hpp"

namespace crp::core {

/// One placement candidate of a critical cell, with its bundled
/// conflict-cell displacement and the Alg. 3 estimated routing cost.
struct Candidate {
  geom::Point position;
  std::vector<std::pair<db::CellId, geom::Point>> displaced;
  double routeCost = 0.0;
  bool isCurrent = false;
};

struct CellCandidates {
  db::CellId cell = db::kInvalidId;
  std::vector<Candidate> candidates;
  ilp::SolveTotals ilp;  ///< effort of the legalizer ILPs behind them
};

/// Pin terminals of `net` with some cells hypothetically relocated.
std::vector<groute::GPoint> terminalsWithOverrides(
    const db::Database& db, const groute::RoutingGraph& graph, db::NetId net,
    const std::unordered_map<db::CellId, geom::Point>& overrides);

/// Alg. 3 for one candidate: total pattern-route price of every net
/// touching the moved cells, at the hypothetical positions.  Reference
/// implementation (no cache, no delta): it sums the same per-net
/// prices in the engine's order (the cell's nets in netsOfCell order,
/// then the displaced cells' other nets ascending), so it returns the
/// engine's price bit for bit.
double estimateCandidateCost(
    const db::Database& db, const groute::GlobalRouter& router,
    const groute::PatternRouter& pattern, db::CellId cell,
    const Candidate& candidate, groute::PatternRouter::Scratch& scratch);

/// Candidate-pricing invariant (paranoid ECC audit): re-prices every
/// candidate with estimateCandidateCost against the frozen demand and
/// records each whose routeCost differs.  Call before UD changes
/// demand.
void auditCandidatePrices(const db::Database& db,
                          const groute::GlobalRouter& router,
                          const std::vector<CellCandidates>& candidates,
                          check::AuditReport& report);

/// Alg. 2 (GCP phase): builds the candidate lists — current position
/// plus the legalizer's proposals.  Candidates that would displace
/// another critical cell are dropped (the selection ILP treats each
/// critical cell's assignment as independent; see DESIGN.md §6).
/// `pool` may be null for single-threaded execution.
std::vector<CellCandidates> buildCandidates(
    const db::Database& db, const legalizer::IlpLegalizer& legalizer,
    const std::vector<db::CellId>& criticalSet, util::ThreadPool* pool);

/// Alg. 3 (ECC phase): prices every candidate in place through the
/// incremental engine, memoizing into `cache`.  Entries outlive the
/// phase, so the caller owns coherence: it must evict
/// (invalidateRegions) every entry whose terminal bbox saw a demand
/// change before the next phase prices against the cache
/// (docs/eco.md).  `stats`, when given, receives the phase's
/// cache/delta counters (deltas against the cache's counters at the
/// start of the phase).
void priceCandidates(const db::Database& db,
                     const groute::GlobalRouter& router,
                     std::vector<CellCandidates>& candidates,
                     util::ThreadPool* pool, PricingCache& cache,
                     obs::PricingStats* stats = nullptr);

/// Convenience: buildCandidates + priceCandidates.
std::vector<CellCandidates> generateCandidates(
    const db::Database& db, const groute::GlobalRouter& router,
    const legalizer::IlpLegalizer& legalizer,
    const std::vector<db::CellId>& criticalSet, util::ThreadPool* pool,
    PricingCache& cache, obs::PricingStats* stats = nullptr);

}  // namespace crp::core
