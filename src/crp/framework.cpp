#include "crp/framework.hpp"

#include <algorithm>
#include <cstdlib>
#include <set>
#include <string>
#include <utility>

#include "groute/heatmap_capture.hpp"
#include "obs/obs.hpp"
#include "util/logger.hpp"

namespace crp::core {

CrpFramework::CrpFramework(db::Database& db, groute::GlobalRouter& router,
                           CrpOptions options)
    : db_(db),
      router_(router),
      options_(options),
      rng_(options.seed),
      obsCtx_(obs::currentContext()) {
  if (options_.sharedPool != nullptr) {
    pool_ = options_.sharedPool;
  } else {
    ownedPool_ = std::make_unique<util::ThreadPool>(
        options.threads == 0 ? 0
                             : static_cast<std::size_t>(options.threads));
    pool_ = ownedPool_.get();
  }
  router_.setRouterThreads(options.routerThreads);
  baseline_ = obsCtx_.metrics().snapshot();
  for (const char* phase : kPhases) {
    runReport_.phases.push_back(obs::RunReport::PhaseStat{phase, 0.0});
  }
  if (spatialEnabled()) captureSnapshot("post-gr", -1);
}

bool CrpFramework::spatialEnabled() const {
  return options_.snapshots && obsCtx_.enabled();
}

const obs::HeatmapSnapshot& CrpFramework::captureSnapshot(std::string label,
                                                          int iteration) {
  heatmaps_.add(
      groute::captureHeatmap(router_.graph(), std::move(label), iteration));
  const obs::HeatmapSnapshot& snapshot = heatmaps_.latest();
  obsCtx_.flightRecorder().setLatestHeatmap(snapshot.toJson());
  CRP_OBS_COUNT("obs.heatmap_snapshots", 1);
  return snapshot;
}

obs::Json optionsFingerprintJson(const CrpOptions& options) {
  obs::Json json = obs::Json::object();
  json.set("iterations", options.iterations);
  json.set("gamma", options.gamma);
  json.set("temperature", options.temperature);
  json.set("prioritizeByCost", options.prioritizeByCost);
  json.set("historyDamping", options.historyDamping);
  json.set("seed", options.seed);
  json.set("maxCriticalCells", options.maxCriticalCells);
  json.set("maxMovesTotal", options.maxMovesTotal);
  json.set("maxCandidates", options.legalizer.maxCandidates);
  return json;
}

CommitPlan planMoveCommits(const std::vector<CellCandidates>& candidates,
                           const std::vector<int>& chosen, int budget) {
  CommitPlan plan;
  std::vector<std::size_t> moveOrder;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (!candidates[i].candidates[chosen[i]].isCurrent) moveOrder.push_back(i);
  }
  // The "current" cost is the isCurrent entry's — not necessarily the
  // front of the list (delta pricing and future reorderings make no
  // placement promise about candidate order).
  auto currentCost = [&](const CellCandidates& cc) {
    for (const Candidate& candidate : cc.candidates) {
      if (candidate.isCurrent) return candidate.routeCost;
    }
    return cc.candidates.front().routeCost;
  };
  auto gain = [&](std::size_t i) {
    return currentCost(candidates[i]) -
           candidates[i].candidates[chosen[i]].routeCost;
  };
  std::sort(moveOrder.begin(), moveOrder.end(),
            [&](std::size_t a, std::size_t b) {
              const double ga = gain(a), gb = gain(b);
              if (ga != gb) return ga > gb;
              return a < b;  // deterministic tie-break
            });

  std::unordered_set<db::CellId> claimedCells;
  std::set<std::pair<geom::Coord, geom::Coord>> claimedSites;
  auto site = [](const geom::Point& p) { return std::make_pair(p.x, p.y); };
  for (const std::size_t i : moveOrder) {
    const Candidate& candidate = candidates[i].candidates[chosen[i]];
    bool clash = claimedCells.count(candidates[i].cell) != 0 ||
                 claimedSites.count(site(candidate.position)) != 0;
    for (const auto& [id, pos] : candidate.displaced) {
      if (clash) break;
      clash = claimedCells.count(id) != 0 ||
              claimedSites.count(site(pos)) != 0;
    }
    if (clash) {
      ++plan.conflictSkips;
      continue;
    }
    const int needed = 1 + static_cast<int>(candidate.displaced.size());
    if (needed > budget - plan.movesNeeded) {
      ++plan.budgetSkips;
      continue;
    }
    plan.movesNeeded += needed;
    plan.committed.push_back(i);
    claimedCells.insert(candidates[i].cell);
    claimedSites.insert(site(candidate.position));
    for (const auto& [id, pos] : candidate.displaced) {
      claimedCells.insert(id);
      claimedSites.insert(site(pos));
    }
  }
  return plan;
}

void CrpFramework::maybeAudit(
    const char* phase, bool iterationEnd,
    const std::vector<CellCandidates>* eccCandidates) {
  const check::AuditLevel level = options_.auditLevel;
  if (level == check::AuditLevel::kOff) return;
  if (level == check::AuditLevel::kPhaseBoundary && !iterationEnd) return;

  CRP_OBS_SPAN("check", "check.audit");
  CRP_OBS_EVENT("check", std::string("audit.arm/") + phase, iterationEnd);
  check::AuditReport report;
  const check::DbAuditor auditor(db_, &router_);
  auditor.auditPlacement(report);
  auditor.auditRoutes(report);
  auditor.auditDemand(report);
  if (eccCandidates != nullptr) {
    if (ecoCache_.size() > 0) {
      ++report.invariantsChecked;
      const groute::PatternRouter pattern(router_.graph());
      check::auditCachedPrices(pattern, ecoCache_.entries(), report);
    }
    ++report.invariantsChecked;
    auditCandidatePrices(db_, router_, *eccCandidates, report);
  }
  if (iterationEnd && level == check::AuditLevel::kParanoid) {
    auditor.auditGuideRoundTrip(report);
    auditor.auditDefRoundTrip(report);
  }

  CRP_OBS_COUNT("check.audits", 1);
  CRP_OBS_COUNT("check.invariants_checked", report.invariantsChecked);
  CRP_OBS_COUNT("check.failures", report.failures.size());
  if (!report.clean()) {
    std::string message = "invariant audit failed after phase " +
                          std::string(phase) + " (level " +
                          check::auditLevelName(level) + "):\n" +
                          report.summary();
    // Black-box moment: preserve the recent event trail + latest
    // heatmap next to the failure before the throw unwinds the flow.
    if (!options_.flightRecorderDir.empty()) {
      const std::string dumpPath = check::writeFlightRecorderDump(
          report, options_.flightRecorderDir, phase);
      if (!dumpPath.empty()) {
        message += "\nflight recorder dump: " + dumpPath;
      }
    }
    throw check::AuditError(std::move(message), std::move(report));
  }
}

void CrpFramework::chargePhase(const char* phase, double seconds) {
  for (obs::RunReport::PhaseStat& stat : runReport_.phases) {
    if (stat.name == phase) {
      stat.seconds += seconds;
      return;
    }
  }
}

obs::TimelineRecord CrpFramework::runIteration() {
  obs::ObsContextScope obsScope(obsCtx_);
  const int iterIndex = static_cast<int>(runReport_.iterationStats.size());
  CRP_OBS_SPAN_ARG("crp", "crp.iteration", iterIndex);
  obs::TimelineRecord record;
  record.iteration = iterIndex;
  record.eco = ecoMode_;

  // Spatial tier: the baseline snapshot normally exists from
  // construction; recapture here if observability was enabled later.
  const bool spatial = spatialEnabled();
  if (spatial && heatmaps_.empty()) captureSnapshot("post-gr", -1);
  if (spatial) {
    record.overflowCaptured = true;
    record.overflowBefore = heatmaps_.latest().totalOverflow;
    record.overflowedEdgesBefore = heatmaps_.latest().overflowedEdges;
  }
  auto captureAfter = [&] {
    if (!spatial) return;
    const obs::HeatmapSnapshot& after =
        captureSnapshot("iter" + std::to_string(iterIndex), iterIndex);
    record.overflowAfter = after.totalOverflow;
    record.overflowedEdgesAfter = after.overflowedEdges;
  };

  // ---- LCC: Alg. 1 -----------------------------------------------------------
  std::vector<db::CellId> criticalSet;
  {
    CRP_OBS_SPAN("crp", "phase.LCC");
    CRP_OBS_EVENT("crp", "phase.LCC", iterIndex);
    util::Stopwatch watch;
    criticalSet = labelCriticalCells(db_, router_, criticalHistory_, moved_,
                                     rng_, options_, &record.dampedCells,
                                     ecoScope_);
    chargePhase(kPhaseLcc, watch.seconds());
  }
  record.criticalCells = static_cast<int>(criticalSet.size());
  CRP_OBS_COUNT("crp.critical_cells", criticalSet.size());
  if (criticalSet.empty()) {
    maybeAudit(kPhaseLcc, /*iterationEnd=*/true);
    // Nothing moved: the capture yields an empty delta, and the
    // timeline keeps its k-entries-per-k-iterations shape.
    captureAfter();
    return recordIteration(record);
  }
  maybeAudit(kPhaseLcc, /*iterationEnd=*/false);

  // ---- GCP + ECC: Alg. 2 / Alg. 3 ---------------------------------------------
  std::vector<CellCandidates> candidates;
  {
    // The legalizer snapshot reads current positions; a fresh instance
    // per iteration keeps it consistent after the previous UD phase.
    CRP_OBS_SPAN("crp", "phase.GCP");
    CRP_OBS_EVENT("crp", "phase.GCP", iterIndex);
    util::Stopwatch watch;
    legalizer::LegalizerOptions legalizerOptions = options_.legalizer;
    if (ecoMode_ && ecoMaxCandidates_ > 0) {
      // Restricted iterations explore a narrower, top-ranked candidate
      // set (EcoOptions::maxCandidates).
      legalizerOptions.maxCandidates = ecoMaxCandidates_;
    }
    const legalizer::IlpLegalizer legalizer(db_, legalizerOptions);
    candidates = buildCandidates(db_, legalizer, criticalSet, pool_);
    chargePhase(kPhaseGcp, watch.seconds());
  }
  for (const CellCandidates& cc : candidates) {
    record.candidatesGenerated += static_cast<int>(cc.candidates.size());
    ilpTotals_ += cc.ilp;  // per-cell sums, after the parallel loop
  }
  maybeAudit(kPhaseGcp, /*iterationEnd=*/false);
  obs::PricingStats eccStats;
  {
    CRP_OBS_SPAN("crp", "phase.ECC");
    CRP_OBS_EVENT("crp", "phase.ECC", iterIndex);
    util::Stopwatch watch;
    // All iterations price through the persistent cache so clean-region
    // entries survive from one iteration (and run()/runEco call) to the
    // next; the UD hook below evicts the dirty ones before demand
    // changes.
    priceCandidates(db_, router_, candidates, pool_, ecoCache_, &eccStats);
    chargePhase(kPhaseEcc, watch.seconds());
    // One aggregate publish per ECC phase (the pricing hot path keeps
    // its own atomics in PricingCache; see obs.hpp on hot-path policy).
    CRP_OBS_COUNT("pricing.cache_hits", eccStats.cacheHits);
    CRP_OBS_COUNT("pricing.cache_misses", eccStats.cacheMisses);
    CRP_OBS_COUNT("pricing.delta_skips", eccStats.deltaSkips);
    CRP_OBS_COUNT("pricing.nets_priced", eccStats.netsPriced());
  }
  // Coherence and candidate prices are only checkable here: the UD
  // phase unfreezes demand, after which recomputed prices legitimately
  // diverge from the cache and the candidates.
  maybeAudit(kPhaseEcc, /*iterationEnd=*/false, &candidates);

  // ---- SEL: Eq. 12 -----------------------------------------------------------
  SelectionResult selection;
  {
    CRP_OBS_SPAN("crp", "phase.SEL");
    CRP_OBS_EVENT("crp", "phase.SEL", iterIndex);
    util::Stopwatch watch;
    selection = selectCandidates(db_, candidates);
    ilpTotals_ += selection.ilp;
    chargePhase(kPhaseSel, watch.seconds());
  }
  maybeAudit(kPhaseSel, /*iterationEnd=*/false);
  record.selectedCost = selection.totalCost;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (!candidates[i].candidates[selection.chosen[i]].isCurrent) {
      ++record.movesSelected;
    }
  }

  // ---- UD: §IV.B.5 -----------------------------------------------------------
  {
    CRP_OBS_SPAN("crp", "phase.UD");
    CRP_OBS_EVENT("crp", "phase.UD", iterIndex);
    util::Stopwatch watch;

    // Plan the commit: gain-ranked moves, conflict claims (no
    // double-moved cell, no doubly-claimed site) and the ICCAD-style
    // move budget carried over across iterations.
    const CommitPlan plan = planMoveCommits(
        candidates, selection.chosen, options_.maxMovesTotal - movesUsed_);
    CRP_OBS_COUNT("crp.commit_conflicts", plan.conflictSkips);
    CRP_OBS_EVENT("crp", "commit", plan.movesNeeded);

    auto trackDisplacement = [&record](const geom::Point& from,
                                       const geom::Point& to) {
      const std::int64_t dist = std::llabs(to.x - from.x) +
                                std::llabs(to.y - from.y);
      record.totalDisplacementDbu += dist;
      record.maxDisplacementDbu = std::max(record.maxDisplacementDbu, dist);
    };
    std::vector<db::NetId> affectedNets;
    for (const std::size_t i : plan.committed) {
      const Candidate& chosen =
          candidates[i].candidates[selection.chosen[i]];
      const db::CellId cell = candidates[i].cell;
      trackDisplacement(db_.cell(cell).pos, chosen.position);
      db_.moveCell(cell, chosen.position);
      moved_.insert(cell);
      ++record.movedCells;
      for (const db::NetId n : db_.netsOfCell(cell)) {
        affectedNets.push_back(n);
      }
      for (const auto& [id, pos] : chosen.displaced) {
        trackDisplacement(db_.cell(id).pos, pos);
        db_.moveCell(id, pos);
        moved_.insert(id);
        ++record.displacedCells;
        for (const db::NetId n : db_.netsOfCell(id)) {
          affectedNets.push_back(n);
        }
      }
    }
    std::sort(affectedNets.begin(), affectedNets.end());
    affectedNets.erase(
        std::unique(affectedNets.begin(), affectedNets.end()),
        affectedNets.end());
    // Persistent-cache coherence: entries covering the about-to-change
    // region go before the demand does (pre-reroute extents).  A moved
    // cell's old-terminal entries sit inside its nets' old extents, so
    // they are evicted here too rather than lingering as orphans.
    invalidateEcoCache(affectedNets);
    router_.rerouteNets(affectedNets);
    record.reroutedNets = static_cast<int>(affectedNets.size());
    CRP_OBS_EVENT("crp", "reroute", record.reroutedNets);
    movesUsed_ += record.movedCells + record.displacedCells;
    chargePhase(kPhaseUd, watch.seconds());
  }
  captureAfter();
  maybeAudit(kPhaseUd, /*iterationEnd=*/true);

  for (const db::CellId c : criticalSet) criticalHistory_.insert(c);
  CRP_OBS_COUNT("crp.moves", record.movedCells + record.displacedCells);
  CRP_OBS_COUNT("crp.reroutes", record.reroutedNets);
  record.netsPriced = eccStats.netsPriced();
  runReport_.pricing += eccStats;

  CRP_LOG_DEBUG(
      "crp iteration: {} critical, {} moved (+{} displaced), {} rerouted",
      record.criticalCells, record.movedCells, record.displacedCells,
      record.reroutedNets);
  return recordIteration(record);
}

obs::TimelineRecord CrpFramework::recordIteration(
    const obs::TimelineRecord& record) {
  runReport_.iterationStats.push_back(record);
  runReport_.totalMoves += record.movedCells + record.displacedCells;
  runReport_.totalReroutes += record.reroutedNets;
  if (iterationCallback_) iterationCallback_(record);
  return record;
}

const obs::RunReport& CrpFramework::run() {
  obs::ObsContextScope obsScope(obsCtx_);
  CRP_OBS_SPAN("crp", "crp.run");
  // A run starts after a fresh GR, so entries from any earlier run are
  // priced against dead demand — empty the cache.  It then lives
  // across this run's iterations AND into a later runEco: the UD hook evicts every entry whose bbox overlaps a
  // rerouted net's write region before the demand changes, so the
  // survivors are exact by the containment contract.  That is what
  // lets the first ECO iteration price mostly from cache instead of
  // re-paying ECC for the whole clean region.
  ecoCache_.clear();
  for (int k = 0; k < options_.iterations; ++k) runIteration();
  return runReport();
}

void CrpFramework::invalidateEcoCache(const std::vector<db::NetId>& nets) {
  if (ecoCache_.size() == 0 || nets.empty()) return;
  // Each net's rip-up + reroute writes within its current extent (old
  // route + terminals) grown by the maze margin; one extra gcell covers
  // edge-endpoint reads, mirroring planRerouteBatches.  By the
  // pattern-route containment contract an entry only ever reads inside
  // its terminal bbox, so entries whose bbox misses every write region
  // stay exact and survive.
  const int margin = router_.options().mazeMargin + 1;
  const auto& grid = router_.graph().grid();
  const int maxX = grid.countX() - 1;
  const int maxY = grid.countY() - 1;
  std::vector<groute::GCellRect> regions;
  regions.reserve(nets.size());
  for (const db::NetId net : nets) {
    groute::GCellRect rect = router_.netExtent(net);
    if (rect.empty()) continue;
    rect.expand(margin, maxX, maxY);
    regions.push_back(rect);
  }
  if (regions.empty()) return;
  ecoEvictions_ += ecoCache_.invalidateRegions(regions);
}

EcoReport CrpFramework::runEco(const db::EcoDelta& delta,
                               const EcoOptions& eco) {
  obs::ObsContextScope obsScope(obsCtx_);
  CRP_OBS_SPAN("crp", "crp.eco");
  util::Stopwatch total;
  util::Stopwatch patch;
  EcoReport report;
  ecoEvictions_ = 0;

  // 1. Transactional delta application; throws with the database
  //    untouched when the delta is invalid.
  const db::EcoApplyResult applied = db::applyEcoDelta(db_, delta);
  router_.syncNetCount();
  report.movedCells = applied.movedCells;
  report.addedCells = applied.addedCells;
  report.removedCells = applied.removedCells;
  report.addedNets = applied.addedNets;
  report.rewiredPins = applied.rewiredPins;

  // 2. Dirty region: one rect per touched cell (old + new gcell) and
  //    per terminal-changed net (current pins + still-committed old
  //    route), grown by the halo.
  const auto& grid = router_.graph().grid();
  const int maxX = grid.countX() - 1;
  const int maxY = grid.countY() - 1;
  // Three rect granularities, coarsest to finest:
  //   touchedRects   the endpoint gcells a cell left and landed in —
  //                  NOT the old->new spanning bbox.  A cell changes
  //                  the demand under its source and destination (via
  //                  its nets' reroutes), not along the corridor it
  //                  notionally traveled; with clustered deltas the
  //                  spanning bbox of one long swap admits every cell
  //                  in between into the candidate scope and the
  //                  restricted iteration stops scaling with the edit.
  //   deltaFootprint the haloed spanning bboxes — the crossing /
  //                  damage-detection region, where an over-
  //                  approximation is cheap (it only gates which routes
  //                  get *inspected*, not which cells get re-placed).
  //   dirty          deltaFootprint plus rewired-net extents, the
  //                  region reported as invalidated.
  std::vector<groute::GCellRect> touchedRects;    // endpoint gcells only
  std::vector<groute::GCellRect> deltaFootprint;  // haloed spanning bboxes
  std::vector<groute::GCellRect> dirty;           // + rewired-net extents
  for (const db::EcoTouchedCell& touched : applied.cells) {
    const db::GCell oldG = grid.cellAt(touched.oldPos);
    const db::GCell newG = grid.cellAt(db_.cell(touched.cell).pos);
    groute::GCellRect oldPoint;
    oldPoint.cover(oldG.x, oldG.y);
    touchedRects.push_back(oldPoint);
    groute::GCellRect newPoint;
    newPoint.cover(newG.x, newG.y);
    touchedRects.push_back(newPoint);
    groute::GCellRect rect = oldPoint;
    rect.cover(newG.x, newG.y);
    rect.expand(eco.haloGCells, maxX, maxY);
    deltaFootprint.push_back(rect);
    dirty.push_back(rect);
  }
  for (const db::NetId net : applied.nets) {
    groute::GCellRect rect = router_.netExtent(net);
    if (rect.empty()) continue;
    rect.expand(eco.haloGCells, maxX, maxY);
    dirty.push_back(rect);
  }
  report.dirtyRects = static_cast<int>(dirty.size());

  // 3. Region-scoped rip-up, two waves:
  //      must    nets whose terminals changed — rewired nets plus every
  //              net of a touched cell (its pins moved in space even
  //              when the netlist did not change) — their routes may no
  //              longer cover their terminals;
  //      damage  after the must wave landed: routes crossing the haloed
  //              touched-cell footprint that are overflowed *within it*
  //              on an edge that was clean before the patch.  This is
  //              the RRR-style response to congestion the patch itself
  //              caused.  Overflow that predates the delta is
  //              deliberately left alone — cell moves change no demand
  //              until the must wave reroutes, so everything overflowed
  //              at entry is inherited from the base flow, and "rip
  //              every overflowed crosser" degenerates into a full RRR
  //              round on a congested design — exactly the work ECO
  //              exists to avoid (same contract as UD reroutes).
  //    Both waves go through the PR-3 batch planner; before each wave
  //    the persistent cache sheds its entries over that wave's nets,
  //    while the extents still describe the old routes.
  std::vector<db::NetId> ripSet = applied.nets;
  for (const db::EcoTouchedCell& touched : applied.cells) {
    const std::vector<db::NetId>& nets = db_.netsOfCell(touched.cell);
    ripSet.insert(ripSet.end(), nets.begin(), nets.end());
  }
  std::sort(ripSet.begin(), ripSet.end());
  ripSet.erase(std::unique(ripSet.begin(), ripSet.end()), ripSet.end());
  const std::vector<db::NetId> crossers =
      router_.netsTouchingRegion(deltaFootprint);
  std::vector<char> crosserWasOverflowed(crossers.size(), 0);
  for (std::size_t i = 0; i < crossers.size(); ++i) {
    if (std::binary_search(ripSet.begin(), ripSet.end(), crossers[i])) {
      continue;
    }
    crosserWasOverflowed[i] =
        router_.routeOverflowed(crossers[i], &deltaFootprint) ? 1 : 0;
  }
  invalidateEcoCache(ripSet);
  std::vector<db::NetId> pending;
  pending.reserve(ripSet.size());
  for (const db::NetId net : ripSet) {
    if (router_.netTerminals(net).size() < 2) {
      router_.ripUp(net);  // degenerate after a rewire: no route needed
    } else {
      pending.push_back(net);
    }
  }
  const groute::RerouteBatchStats batch = router_.rerouteNets(pending);
  std::vector<db::NetId> damaged;
  for (std::size_t i = 0; i < crossers.size(); ++i) {
    if (crosserWasOverflowed[i] != 0) continue;
    if (std::binary_search(ripSet.begin(), ripSet.end(), crossers[i])) {
      continue;
    }
    if (router_.routeOverflowed(crossers[i], &deltaFootprint)) {
      damaged.push_back(crossers[i]);
    }
  }
  invalidateEcoCache(damaged);
  const groute::RerouteBatchStats damageBatch = router_.rerouteNets(damaged);
  report.dirtyNets = static_cast<int>(ripSet.size() + damaged.size());
  report.failedReroutes = batch.failed + damageBatch.failed;
  report.patchSeconds = patch.seconds();

  // 4. Candidate scope: cells whose cost neighborhood intersects the
  //    *delta* — the touched cells, the cells of netlist-edited nets
  //    (pricing changed structurally), and cells sharing a gcell with a
  //    move endpoint (colocated with a departure or arrival, so the
  //    demand under them changed).  Deliberately NOT every cell of
  //    every ripped net and
  //    NOT every netlist neighbor of a touched cell: a crosser or a
  //    shared net can span the die, and with gamma at 0.6 every cell
  //    admitted here is priced — scope is the knob that keeps the
  //    restricted iteration scaling with the edit instead of the
  //    design.  (Neighbors that sit near the edit are colocated and
  //    enter through the footprint test; far endpoints saw one net
  //    reroute, not a cost neighborhood shift.)
  std::unordered_set<db::CellId> scope;
  for (const db::EcoTouchedCell& touched : applied.cells) {
    scope.insert(touched.cell);
  }
  for (const db::NetId net : applied.nets) {
    for (const db::CellId cell : db_.cellsOfNet(net)) scope.insert(cell);
  }
  for (db::CellId cell = 0; cell < db_.numCells(); ++cell) {
    const db::GCell g = grid.cellAt(db_.cell(cell).pos);
    groute::GCellRect point;
    point.cover(g.x, g.y);
    if (groute::overlapsAny(point, touchedRects)) scope.insert(cell);
  }
  report.scopeCells = static_cast<int>(scope.size());

  // 5. Restricted CR&P iterations with the persistent pricing cache.
  ecoMode_ = true;
  ecoScope_ = &scope;
  ecoMaxCandidates_ = eco.maxCandidates;
  try {
    for (int k = 0; k < eco.iterations; ++k) {
      const obs::TimelineRecord record = runIteration();
      report.moves += record.movedCells + record.displacedCells;
      report.reroutes += record.reroutedNets;
      report.netsPriced += record.netsPriced;
    }
  } catch (...) {
    ecoMode_ = false;
    ecoScope_ = nullptr;
    ecoMaxCandidates_ = 0;
    throw;
  }
  ecoMode_ = false;
  ecoScope_ = nullptr;
  ecoMaxCandidates_ = 0;

  report.cacheEvictions = ecoEvictions_;
  report.totalSeconds = total.seconds();
  CRP_OBS_COUNT("eco.runs", 1);
  CRP_OBS_COUNT("eco.delta_edits", delta.size());
  CRP_OBS_COUNT("eco.dirty_nets", report.dirtyNets);
  CRP_OBS_COUNT("eco.scope_cells", report.scopeCells);
  CRP_OBS_COUNT("eco.failed_reroutes", report.failedReroutes);
  CRP_OBS_COUNT("eco.moves", report.moves);
  CRP_OBS_GAUGE_SET("eco.patch_seconds", report.patchSeconds);
  CRP_OBS_GAUGE_SET("eco.total_seconds", report.totalSeconds);
  CRP_LOG_DEBUG(
      "eco: {} edits -> {} dirty nets, {} scope cells, {} evictions, "
      "{} moves",
      delta.size(), report.dirtyNets, report.scopeCells,
      report.cacheEvictions, report.moves);
  return report;
}

const obs::RunReport& CrpFramework::runReport() {
  runReport_.iterations = static_cast<int>(runReport_.iterationStats.size());
  runReport_.threads = static_cast<int>(pool_->threadCount());
  runReport_.seed = options_.seed;

  const groute::GlobalRouteStats stats = router_.stats();
  runReport_.router.wirelengthDbu = stats.wirelengthDbu;
  runReport_.router.vias = stats.vias;
  runReport_.router.totalOverflow = stats.totalOverflow;
  runReport_.router.overflowedEdges = stats.overflowedEdges;
  runReport_.router.openNets = stats.openNets;
  runReport_.router.reroutedNets = stats.reroutedNets;

  runReport_.ilp = {ilpTotals_.solves, ilpTotals_.nodes, ilpTotals_.lpCalls,
                    ilpTotals_.lpPivots};
  // Telemetry only: deltas against the construction-time snapshot of
  // *this* context's registry.
  const obs::MetricsSnapshot now = obsCtx_.metrics().snapshot();
  runReport_.counters = now.deltaSince(baseline_).counters;
  return runReport_;
}

}  // namespace crp::core
