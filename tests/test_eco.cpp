// Tests for the incremental ECO engine: the EcoDelta JSON codec and
// transactional application, the deterministic perturbation generator,
// CrpFramework::runEco (clean audits, thread-count determinism), and
// the persistent pricing cache's targeted invalidation — including the
// mutation test that shows a deliberately-stale entry is caught by the
// pricing-coherence invariant and cured by invalidateRegions.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "bmgen/generator.hpp"
#include "bmgen/perturb.hpp"
#include "check/audit.hpp"
#include "check/eco_equivalence.hpp"
#include "crp/framework.hpp"
#include "crp/pricing_cache.hpp"
#include "db/eco.hpp"
#include "db/legality.hpp"
#include "obs/json.hpp"
#include "obs/timeline.hpp"
#include "test_helpers.hpp"

namespace crp {
namespace {

using groute::GPoint;

// ---- EcoDelta codec ---------------------------------------------------------

db::EcoDelta sampleDelta() {
  db::EcoDelta delta;
  delta.moves.push_back({"c0", geom::Point{120, 200}});
  delta.addCells.push_back(
      {"x0", "INV_X1", geom::Point{300, 0}, geom::Orientation::kFS});
  delta.removeCells.push_back("c3");
  delta.addNets.push_back({"nx", {{"x0", "A"}, {"c1", "Y"}}});
  delta.addPins.push_back({"n1", "c0", "A"});
  delta.removePins.push_back({"n1", "c2", "A"});
  return delta;
}

TEST(EcoDelta, JsonRoundTrip) {
  const db::EcoDelta delta = sampleDelta();
  const obs::Json json = db::ecoDeltaToJson(delta);
  const db::EcoDelta back = db::ecoDeltaFromJson(json);
  EXPECT_EQ(back.size(), delta.size());
  ASSERT_EQ(back.moves.size(), 1u);
  EXPECT_EQ(back.moves[0].cell, "c0");
  EXPECT_EQ(back.moves[0].to, (geom::Point{120, 200}));
  ASSERT_EQ(back.addCells.size(), 1u);
  EXPECT_EQ(back.addCells[0].macro, "INV_X1");
  EXPECT_EQ(back.addCells[0].orient, geom::Orientation::kFS);
  ASSERT_EQ(back.removeCells.size(), 1u);
  EXPECT_EQ(back.removeCells[0], "c3");
  ASSERT_EQ(back.addNets.size(), 1u);
  ASSERT_EQ(back.addNets[0].pins.size(), 2u);
  EXPECT_EQ(back.addNets[0].pins[1].first, "c1");
  ASSERT_EQ(back.addPins.size(), 1u);
  EXPECT_EQ(back.addPins[0].net, "n1");
  ASSERT_EQ(back.removePins.size(), 1u);
  EXPECT_EQ(back.removePins[0].cell, "c2");
  // Round-trip through text too (the crp eco --delta path).
  const db::EcoDelta again =
      db::ecoDeltaFromJson(obs::Json::parse(json.dump(2)));
  EXPECT_EQ(again.size(), delta.size());
}

TEST(EcoDelta, FromJsonRejectsUnknownSchema) {
  obs::Json json = obs::Json::object();
  json.set("schemaVersion", 99);
  EXPECT_THROW(db::ecoDeltaFromJson(json), db::EcoError);
}

// ---- transactional application ----------------------------------------------

TEST(EcoApply, MoveAndRewire) {
  db::Database db = testing::makeTinyDatabase();
  const db::CellId c0 = db.findCell("c0");
  const db::NetId n1 = db.findNet("n1");

  db::EcoDelta delta;
  delta.moves.push_back({"c0", geom::Point{300, 200}});
  delta.removePins.push_back({"n1", "c3", "A"});
  delta.addPins.push_back({"n0", "c3", "A"});
  const db::EcoApplyResult applied = db::applyEcoDelta(db, delta);

  EXPECT_EQ(db.cell(c0).pos, (geom::Point{300, 200}));
  EXPECT_EQ(applied.movedCells, 1);
  EXPECT_EQ(applied.rewiredPins, 2);  // each detach and attach counts
  // Terminal-changed nets: n0 gained a pin, n1 lost one.
  const db::NetId n0 = db.findNet("n0");
  EXPECT_TRUE(std::count(applied.nets.begin(), applied.nets.end(), n0) == 1);
  EXPECT_TRUE(std::count(applied.nets.begin(), applied.nets.end(), n1) == 1);
  // Connectivity index stays consistent.
  const db::CellId c3 = db.findCell("c3");
  const auto& netsOfC3 = db.netsOfCell(c3);
  EXPECT_TRUE(std::count(netsOfC3.begin(), netsOfC3.end(), n0) == 1);
  EXPECT_TRUE(std::count(netsOfC3.begin(), netsOfC3.end(), n1) == 0);
}

TEST(EcoApply, AddAndRemoveCells) {
  db::Database db = testing::makeTinyDatabase();
  const int cellsBefore = db.numCells();

  db::EcoDelta delta;
  delta.addCells.push_back(
      {"x0", "INV_X1", geom::Point{400, 0}, geom::Orientation::kN});
  delta.addNets.push_back({"nx", {{"x0", "Y"}, {"c2", "A"}}});
  delta.removeCells.push_back("c3");
  const db::EcoApplyResult applied = db::applyEcoDelta(db, delta);

  EXPECT_EQ(db.numCells(), cellsBefore + 1);
  EXPECT_EQ(applied.addedCells, 1);
  EXPECT_EQ(applied.addedNets, 1);
  EXPECT_EQ(applied.removedCells, 1);
  // The removed cell is tombstoned: fixed, detached from every net.
  const db::CellId c3 = db.findCell("c3");
  EXPECT_TRUE(db.cell(c3).fixed);
  EXPECT_TRUE(db.netsOfCell(c3).empty());
  // The new cell is wired.
  const db::CellId x0 = db.findCell("x0");
  ASSERT_EQ(db.netsOfCell(x0).size(), 1u);
  EXPECT_EQ(db.net(db.netsOfCell(x0)[0]).name, "nx");
}

TEST(EcoApply, RollsBackOnIllegalMove) {
  db::Database db = testing::makeTinyDatabase();
  const geom::Point before = db.cell(db.findCell("c0")).pos;
  const geom::Point c1Before = db.cell(db.findCell("c1")).pos;

  db::EcoDelta delta;
  // First edit is fine, second lands c1 off-row — the whole delta must
  // roll back, including the already-applied first move.
  delta.moves.push_back({"c0", geom::Point{300, 200}});
  delta.moves.push_back({"c1", geom::Point{150, 250}});
  EXPECT_THROW(db::applyEcoDelta(db, delta), db::EcoError);
  EXPECT_EQ(db.cell(db.findCell("c0")).pos, before);
  EXPECT_EQ(db.cell(db.findCell("c1")).pos, c1Before);
}

TEST(EcoApply, RollsBackNetlistEdits) {
  db::Database db = testing::makeTinyDatabase();
  const int cellsBefore = db.numCells();
  const int netsBefore = db.numNets();
  const std::size_t n1Pins = db.net(db.findNet("n1")).pins.size();

  db::EcoDelta delta;
  delta.addCells.push_back(
      {"x0", "INV_X1", geom::Point{400, 0}, geom::Orientation::kN});
  delta.removePins.push_back({"n1", "c3", "A"});
  delta.addNets.push_back({"nx", {{"x0", "Y"}, {"c2", "A"}}});
  delta.removeCells.push_back("no_such_cell");  // fails late
  EXPECT_THROW(db::applyEcoDelta(db, delta), db::EcoError);
  EXPECT_EQ(db.numCells(), cellsBefore);
  EXPECT_EQ(db.numNets(), netsBefore);
  EXPECT_EQ(db.net(db.findNet("n1")).pins.size(), n1Pins);
  EXPECT_EQ(db.findCell("no_such_cell"), db::kInvalidId);
  EXPECT_EQ(db.findCell("x0"), db::kInvalidId);
}

// ---- perturbation generator -------------------------------------------------

TEST(Perturb, DeterministicAndApplicable) {
  bmgen::BenchmarkSpec spec;
  spec.name = "perturb_test";
  spec.targetCells = 150;
  spec.seed = 5;
  db::Database db = bmgen::generateBenchmark(spec);

  bmgen::PerturbOptions options;
  options.frac = 0.02;
  options.seed = 7;
  const db::EcoDelta a = bmgen::perturbDesign(db, options);
  const db::EcoDelta b = bmgen::perturbDesign(db, options);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(db::ecoDeltaToJson(a).dump(), db::ecoDeltaToJson(b).dump());
  // Swaps come in pairs and respect the frac cap.
  EXPECT_EQ(a.moves.size() % 2, 0u);
  // Applies cleanly to the design it was derived from (legal by
  // construction, so no EcoError).
  EXPECT_NO_THROW(db::applyEcoDelta(db, a));
}

// On a mixed-height design the generator must only pair cells of equal
// footprint (width AND height): a single-row cell swapped onto a
// double-row slot would overlap its upper-strip neighbours.  The delta
// must stay legal by construction.
TEST(Perturb, MixedHeightSwapsStayLegal) {
  bmgen::BenchmarkSpec spec;
  spec.name = "perturb_multirow";
  spec.targetCells = 150;
  spec.seed = 5;
  spec.multiRowFrac = 0.3;
  db::Database db = bmgen::generateBenchmark(spec);

  bmgen::PerturbOptions options;
  options.frac = 0.05;
  options.seed = 7;
  const db::EcoDelta delta = bmgen::perturbDesign(db, options);
  ASSERT_FALSE(delta.empty());
  EXPECT_NO_THROW(db::applyEcoDelta(db, delta));
  EXPECT_TRUE(db::isPlacementLegal(db));
}

TEST(Perturb, DifferentSeedsDiffer) {
  bmgen::BenchmarkSpec spec;
  spec.targetCells = 150;
  spec.seed = 5;
  db::Database db = bmgen::generateBenchmark(spec);
  const db::EcoDelta a = bmgen::perturbDesign(db, {0.02, 1});
  const db::EcoDelta b = bmgen::perturbDesign(db, {0.02, 2});
  EXPECT_NE(db::ecoDeltaToJson(a).dump(), db::ecoDeltaToJson(b).dump());
}

// ---- pricing-cache invalidation ---------------------------------------------

struct RoutedFixture {
  RoutedFixture() : db(testing::makeGridDatabase(10, 6)), router(db) {
    router.run();
  }
  db::Database db;
  groute::GlobalRouter router;
};

TEST(EcoCache, InvalidateRegionsEvictsOnlyOverlap) {
  RoutedFixture f;
  const groute::PatternRouter pattern(f.router.graph());
  groute::PatternRouter::Scratch scratch;
  core::PricingCache cache;
  std::vector<GPoint> left{{0, 0, 0}, {0, 1, 1}};
  std::vector<GPoint> right{{0, 4, 4}, {0, 4, 5}};
  core::canonicalizeTerminals(left);
  core::canonicalizeTerminals(right);
  cache.price(left, pattern, scratch);
  cache.price(right, pattern, scratch);
  ASSERT_EQ(cache.size(), 2u);

  // Dirty region covering only the left entry's bbox.
  const std::size_t evicted =
      cache.invalidateRegions({groute::GCellRect{0, 0, 2, 2}});
  EXPECT_EQ(evicted, 1u);
  EXPECT_EQ(cache.size(), 1u);
  // Survivor is the right entry, still value-exact.
  const core::PricingCacheEntries entries = cache.entries();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].first, right);
  EXPECT_EQ(entries[0].second, pattern.priceTree(right));
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
}

TEST(EcoCache, StaleEntryCaughtByCoherenceAuditThenCured) {
  RoutedFixture f;
  const groute::PatternRouter pattern(f.router.graph());
  groute::PatternRouter::Scratch scratch;
  core::PricingCache cache;
  std::vector<GPoint> terminals{{0, 1, 1}, {0, 3, 3}};
  core::canonicalizeTerminals(terminals);
  cache.price(terminals, pattern, scratch);

  {
    check::AuditReport clean;
    check::auditCachedPrices(pattern, cache.entries(), clean);
    EXPECT_CLEAN_AUDIT(clean);
  }

  // Mutation: change demand inside the entry's bbox *without*
  // invalidating — re-apply an existing route crossing it.  The cached
  // price is now stale and the coherence invariant must say so.
  db::NetId crossing = db::kInvalidId;
  for (db::NetId n = 0; n < f.db.numNets() && crossing == db::kInvalidId;
       ++n) {
    const groute::NetRoute& route = f.router.route(n);
    if (!route.routed) continue;
    for (const groute::RouteSegment& seg : route.segments) {
      const groute::GCellRect bbox{1, 1, 3, 3};
      groute::GCellRect segRect;
      segRect.cover(seg.a.x, seg.a.y);
      segRect.cover(seg.b.x, seg.b.y);
      if (!seg.isVia() && segRect.overlaps(bbox)) {
        crossing = n;
        break;
      }
    }
  }
  ASSERT_NE(crossing, db::kInvalidId);
  f.router.graph().applyRoute(f.router.route(crossing), +1);

  check::AuditReport stale;
  check::auditCachedPrices(pattern, cache.entries(), stale);
  EXPECT_FALSE(stale.clean());
  bool sawCoherence = false;
  for (const auto& failure : stale.failures) {
    if (failure.invariant == check::Invariant::kPricingCoherence) {
      sawCoherence = true;
    }
  }
  EXPECT_TRUE(sawCoherence);

  // The cure is exactly what invalidateEcoCache does: evict entries
  // whose bbox overlaps the changed region, then the audit is clean.
  groute::GCellRect region = f.router.netExtent(crossing);
  region.expand(f.router.options().mazeMargin + 1,
                f.router.graph().grid().countX() - 1,
                f.router.graph().grid().countY() - 1);
  cache.invalidateRegions({region});
  check::AuditReport cured;
  check::auditCachedPrices(pattern, cache.entries(), cured);
  EXPECT_CLEAN_AUDIT(cured);

  // Undo the mutation so the fixture's graph is consistent again.
  f.router.graph().applyRoute(f.router.route(crossing), -1);
}

// ---- runEco -----------------------------------------------------------------

core::EcoReport runEcoOn(db::Database& db, groute::GlobalRouter& router,
                         const db::EcoDelta& delta, int routerThreads) {
  core::CrpOptions options;
  options.iterations = 1;
  options.seed = 11;
  options.threads = 1;
  options.routerThreads = routerThreads;
  options.auditLevel = check::AuditLevel::kParanoid;
  core::CrpFramework framework(db, router, options);
  framework.run();
  core::EcoOptions eco;
  eco.iterations = 1;
  return framework.runEco(delta, eco);
}

TEST(RunEco, PatchesAndAuditsClean) {
  bmgen::BenchmarkSpec spec;
  spec.name = "eco_small";
  spec.targetCells = 120;
  spec.seed = 3;
  db::Database db = bmgen::generateBenchmark(spec);
  groute::GlobalRouterOptions routerOptions;
  groute::GlobalRouter router(db, routerOptions);
  router.run();

  core::CrpOptions options;
  options.iterations = 1;
  options.seed = 11;
  options.auditLevel = check::AuditLevel::kParanoid;
  core::CrpFramework framework(db, router, options);
  framework.run();

  const db::EcoDelta delta = bmgen::perturbDesign(db, {0.02, 9});
  ASSERT_FALSE(delta.empty());
  const core::EcoReport report = framework.runEco(delta);
  EXPECT_GT(report.movedCells, 0);
  EXPECT_GT(report.dirtyNets, 0);
  EXPECT_GT(report.scopeCells, 0);
  EXPECT_EQ(report.failedReroutes, 0);
  const obs::RunReport& runReport = framework.runReport();
  ASSERT_EQ(runReport.iterationStats.size(), 2u);
  EXPECT_TRUE(runReport.iterationStats.back().eco);

  const check::DbAuditor auditor(db, &router);
  EXPECT_CLEAN_AUDIT(auditor.auditAll());
}

TEST(RunEco, FingerprintIdenticalAcrossRouterThreads) {
  // Satellite: ECO determinism under the batch reroute planner — the
  // post-ECO state fingerprint must be identical at 1 vs 8 router
  // threads (conflict-free batches are value-exact by construction).
  bmgen::BenchmarkSpec spec;
  spec.name = "eco_threads";
  spec.targetCells = 140;
  spec.seed = 4;

  std::uint64_t fingerprints[2] = {0, 0};
  const int threadCounts[2] = {1, 8};
  for (int i = 0; i < 2; ++i) {
    db::Database db = bmgen::generateBenchmark(spec);
    groute::GlobalRouterOptions routerOptions;
    routerOptions.routerThreads = threadCounts[i];
    groute::GlobalRouter router(db, routerOptions);
    router.run();
    const db::EcoDelta delta = [&db] {
      bmgen::PerturbOptions p;
      p.frac = 0.02;
      p.seed = 13;
      // Derive from the routed-but-pre-CRP state so both variants see
      // the same design; the base CR&P run is deterministic anyway.
      return bmgen::perturbDesign(db, p);
    }();
    runEcoOn(db, router, delta, threadCounts[i]);
    fingerprints[i] = check::flowFingerprint(db, router);
  }
  EXPECT_EQ(fingerprints[0], fingerprints[1]);
}

TEST(RunEco, SecondDeltaReusesCache) {
  bmgen::BenchmarkSpec spec;
  spec.name = "eco_reuse";
  spec.targetCells = 120;
  spec.seed = 6;
  db::Database db = bmgen::generateBenchmark(spec);
  groute::GlobalRouter router(db);
  router.run();
  core::CrpOptions options;
  options.iterations = 1;
  options.seed = 11;
  core::CrpFramework framework(db, router, options);
  framework.run();

  const db::EcoDelta first = bmgen::perturbDesign(db, {0.01, 21});
  ASSERT_FALSE(first.empty());
  const core::EcoReport r1 = framework.runEco(first);
  // A second, disjointly-seeded delta prices against the persistent
  // cache: the prior call's entries give hits, and its own invalidation
  // evicts some of them.
  const db::EcoDelta second = bmgen::perturbDesign(db, {0.01, 22});
  ASSERT_FALSE(second.empty());
  const core::EcoReport r2 = framework.runEco(second);
  EXPECT_GT(r1.netsPriced, 0u);
  EXPECT_GT(r2.netsPriced, 0u);
  const check::DbAuditor auditor(db, &router);
  EXPECT_CLEAN_AUDIT(auditor.auditAll());
}

// ---- eco-vs-scratch pairing -------------------------------------------------

TEST(EcoEquivalence, PairedRunClean) {
  bmgen::BenchmarkSpec spec;
  spec.name = "eco_pair";
  spec.targetCells = 120;
  spec.utilization = 0.75;
  spec.seed = 8;
  check::EcoPairOptions options;
  options.baseIterations = 1;
  options.ecoIterations = 1;
  options.perturbSeed = 8;
  const check::EcoPairResult result = check::runEcoVsScratch(spec, options);
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_GT(result.deltaEdits, 0u);
  EXPECT_GT(result.dirtyNets, 0);
  EXPECT_GT(result.ecoSeconds, 0.0);
  EXPECT_GT(result.scratchSeconds, 0.0);
}

// The eco-vs-scratch contract must hold on macro designs too: the
// dirty-region patch has to respect hard-blocked edges and fixed-cell
// footprints exactly like the scratch rebuild, or the paired audits
// diverge.  This is the scenario-axis coverage for the ECO engine
// (docs/scenarios.md).
TEST(EcoEquivalence, PairedRunCleanOnMacroDesign) {
  bmgen::BenchmarkSpec spec;
  spec.name = "eco_macro_pair";
  spec.targetCells = 120;
  spec.utilization = 0.75;
  spec.seed = 9;
  spec.macroCount = 2;
  check::EcoPairOptions options;
  options.baseIterations = 1;
  options.ecoIterations = 1;
  options.perturbSeed = 9;
  const check::EcoPairResult result = check::runEcoVsScratch(spec, options);
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_GT(result.deltaEdits, 0u);
  EXPECT_GT(result.dirtyNets, 0);
}

// ---- timeline eco flag ------------------------------------------------------

TEST(Timeline, EcoFlagRoundTripsAndStaysAbsentForBatch) {
  obs::TimelineRecord record;
  record.iteration = 2;
  record.eco = true;
  const obs::Json json = record.toJson();
  EXPECT_NE(json.find("eco"), nullptr);
  EXPECT_TRUE(obs::TimelineRecord::fromJson(json).eco);

  obs::TimelineRecord batch;
  batch.iteration = 1;
  // Batch records serialize without the key at all, so pre-ECO golden
  // fingerprints stay byte-identical.
  EXPECT_EQ(batch.toJson().find("eco"), nullptr);
  EXPECT_FALSE(obs::TimelineRecord::fromJson(batch.toJson()).eco);
}

}  // namespace
}  // namespace crp
