// Tests for the invariant-audit subsystem (src/check): clean flows
// audit clean, and seeded corruptions of a known-good database are each
// caught by exactly the invariant that owns the broken contract — the
// audit catalog's precision guarantee (docs/checking.md).
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "check/audit.hpp"
#include "check/fuzz.hpp"
#include "crp/framework.hpp"
#include "crp/pricing_cache.hpp"
#include "groute/global_router.hpp"
#include "groute/route.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/heatmap.hpp"
#include "obs/obs.hpp"
#include "test_helpers.hpp"
#include "util/file_io.hpp"

namespace crp {
namespace {

using check::AuditReport;
using check::DbAuditor;
using check::Invariant;
using groute::GPoint;
using groute::NetRoute;

// ---- catalog plumbing -------------------------------------------------------

TEST(AuditLevel, ParsesCliSpellings) {
  EXPECT_EQ(check::auditLevelFromString("off"), check::AuditLevel::kOff);
  EXPECT_EQ(check::auditLevelFromString("none"), check::AuditLevel::kOff);
  EXPECT_EQ(check::auditLevelFromString("phase"),
            check::AuditLevel::kPhaseBoundary);
  EXPECT_EQ(check::auditLevelFromString("phase-boundary"),
            check::AuditLevel::kPhaseBoundary);
  EXPECT_EQ(check::auditLevelFromString("paranoid"),
            check::AuditLevel::kParanoid);
  EXPECT_EQ(check::auditLevelFromString("full"), check::AuditLevel::kParanoid);
  EXPECT_FALSE(check::auditLevelFromString("bogus").has_value());
  EXPECT_STREQ(check::auditLevelName(check::AuditLevel::kParanoid), "paranoid");
}

TEST(AuditReportApi, OnlyFailureAndCountSemantics) {
  AuditReport report;
  EXPECT_TRUE(report.clean());
  EXPECT_FALSE(report.onlyFailure(Invariant::kRouteValidity));  // empty != only

  report.failures.push_back(
      {Invariant::kRouteValidity, "net n0", "connected", "disconnected"});
  EXPECT_FALSE(report.clean());
  EXPECT_TRUE(report.onlyFailure(Invariant::kRouteValidity));
  EXPECT_EQ(report.countFor(Invariant::kRouteValidity), 1);
  EXPECT_EQ(report.countFor(Invariant::kDemandExactness), 0);

  report.failures.push_back(
      {Invariant::kDemandExactness, "wire edge L0 (1,1)", "1", "2"});
  EXPECT_FALSE(report.onlyFailure(Invariant::kRouteValidity));
  EXPECT_NE(report.summary().find("route-validity"), std::string::npos);
  EXPECT_NE(report.summary().find("demand-exactness"), std::string::npos);
}

// ---- clean baseline ---------------------------------------------------------

TEST(DbAuditorTest, CleanFlowAuditsClean) {
  const auto db = crp::testing::makeGridDatabase(12, 6);
  groute::GlobalRouter router(db);
  router.run();
  const AuditReport report = DbAuditor(db, &router).auditAll();
  EXPECT_CLEAN_AUDIT(report);
  // placement (3 catalog entries: single-row legality, macro legality,
  // height alignment) + DEF round trip + routes + demand + guide round
  // trip + blockage demand.
  EXPECT_EQ(report.invariantsChecked, 8);

  // Without a router only the router-free invariants run.
  const AuditReport dbOnly = DbAuditor(db).auditAll();
  EXPECT_CLEAN_AUDIT(dbOnly);
  EXPECT_EQ(dbOnly.invariantsChecked, 4);
}

// ---- scenario fixture: fixed macro + double-height cell ---------------------

// Hand-built design exercising the scenario axes with geometry small
// enough to reason about by hand: die 1000x500 over 10x5 gcells of
// 100x100, a 200x200 fixed macro block at (300,100) whose obstructions
// fully cover gcells (3..4, 1..2) on layers 0-1 (so the layer-0 H edge
// (3,1)->(4,1) is interior to the macro and hard-blocked), one 2-pin
// net whose terminals sit in gcells (2,1) and (5,1) on either side of
// the macro, and a legally-placed double-height cell spanning rows 1-2.
inline db::Database makeMacroFixtureDatabase() {
  using namespace crp::db;
  using geom::Point;
  using geom::Rect;

  Tech tech = Tech::makeDefault(/*numLayers=*/4, /*pitch=*/20, /*width=*/6,
                                /*spacing=*/8, /*minArea=*/120,
                                /*siteWidth=*/10, /*rowHeight=*/100);
  Library lib = Library::makeDefault(10, 100, /*pinLayer=*/0);
  const int inv = *lib.findMacro("INV_X1");

  Macro blk;
  blk.name = "BLK";
  blk.width = 200;
  blk.height = 200;
  blk.obstructions.push_back(Obstruction{0, Rect{0, 0, 200, 200}});
  blk.obstructions.push_back(Obstruction{1, Rect{0, 0, 200, 200}});
  const int blkId = lib.addMacro(std::move(blk));

  Macro dh;  // double-height movable cell, two sites wide
  dh.name = "DH2";
  dh.width = 20;
  dh.height = 200;
  const int dhId = lib.addMacro(std::move(dh));

  Design design;
  design.name = "macro_fixture";
  design.dieArea = Rect{0, 0, 1000, 500};
  for (int r = 0; r < 5; ++r) {
    design.rows.push_back(Row{"row" + std::to_string(r), Point{0, 100 * r},
                              100, geom::Orientation::kN});
  }
  design.gcellCountX = 10;
  design.gcellCountY = 5;
  crp::testing::addDefaultTracks(design, tech);

  auto addCell = [&](const std::string& name, int macro, Point pos,
                     bool fixed) {
    Component c;
    c.name = name;
    c.macro = macro;
    c.pos = pos;
    c.fixed = fixed;
    design.components.push_back(c);
  };
  addCell("blk", blkId, Point{300, 100}, true);
  addCell("c0", inv, Point{250, 100}, false);   // gcell (2,1)
  addCell("c1", inv, Point{550, 100}, false);   // gcell (5,1)
  addCell("d0", dhId, Point{700, 100}, false);  // rows 1-2, aligned

  // INV_X1 pins: 0 = A (input), 1 = Y (output).
  Net net;
  net.name = "n0";
  net.pins = {NetPin{CompPinRef{1, 1}}, NetPin{CompPinRef{2, 0}}};
  design.nets.push_back(std::move(net));

  return Database(std::move(tech), std::move(lib), std::move(design));
}

// ---- seeded corruptions: each caught by exactly its invariant ---------------

// Shifting a cell off its site grid breaks placement legality and
// nothing else (the 3-dbu shift stays inside the cell's gcell, so
// terminals, routes and demand are untouched).
TEST(DbAuditorMutation, OffSiteCellCaughtByPlacementLegalityOnly) {
  auto db = crp::testing::makeGridDatabase(12, 6);
  groute::GlobalRouter router(db);
  router.run();

  const geom::Point pos = db.cell(0).pos;
  db.moveCell(0, geom::Point{pos.x + 3, pos.y});

  const AuditReport report = DbAuditor(db, &router).auditAll();
  EXPECT_TRUE(report.onlyFailure(Invariant::kPlacementLegality))
      << report.summary();
  EXPECT_GE(report.countFor(Invariant::kPlacementLegality), 1);
}

// Dropping a load-bearing segment from a committed route (with the
// demand maps compensated, as a buggy rip-up would) is a route-validity
// failure and nothing else.
TEST(DbAuditorMutation, DroppedSegmentCaughtByRouteValidityOnly) {
  const auto db = crp::testing::makeGridDatabase(12, 6);
  groute::GlobalRouter router(db);
  router.run();

  // Find a segment whose removal disconnects its net.
  db::NetId targetNet = db::kInvalidId;
  std::size_t targetSeg = 0;
  for (db::NetId net = 0; net < db.numNets() && targetNet == db::kInvalidId;
       ++net) {
    const std::vector<GPoint> terminals = router.netTerminals(net);
    const NetRoute& route = router.route(net);
    if (terminals.size() < 2 || !route.routed || route.segments.size() < 2) {
      continue;
    }
    for (std::size_t i = 0; i < route.segments.size(); ++i) {
      NetRoute pruned = route;
      pruned.segments.erase(pruned.segments.begin() +
                            static_cast<std::ptrdiff_t>(i));
      if (!groute::routeConnectsTerminals(pruned, terminals)) {
        targetNet = net;
        targetSeg = i;
        break;
      }
    }
  }
  ASSERT_NE(targetNet, db::kInvalidId);

  NetRoute& route = router.mutableRoute(targetNet);
  NetRoute removed;
  removed.routed = true;
  removed.segments = {route.segments[targetSeg]};
  route.segments.erase(route.segments.begin() +
                       static_cast<std::ptrdiff_t>(targetSeg));
  router.graph().applyRoute(removed, -1);  // keep demand == routes

  const AuditReport report = DbAuditor(db, &router).auditAll();
  EXPECT_TRUE(report.onlyFailure(Invariant::kRouteValidity))
      << report.summary();
}

// Charging the demand maps for a phantom route that belongs to no net
// is a demand-exactness failure and nothing else (routes themselves
// are untouched and still valid).
TEST(DbAuditorMutation, SkewedDemandCaughtByDemandExactnessOnly) {
  const auto db = crp::testing::makeGridDatabase(12, 6);
  groute::GlobalRouter router(db);
  router.run();

  NetRoute phantom;
  phantom.routed = true;
  if (router.graph().layerDir(0) == db::LayerDir::kHorizontal) {
    phantom.segments.push_back({GPoint{0, 0, 0}, GPoint{0, 1, 0}});
  } else {
    phantom.segments.push_back({GPoint{0, 0, 0}, GPoint{0, 0, 1}});
  }
  router.graph().applyRoute(phantom, +1);

  const AuditReport report = DbAuditor(db, &router).auditAll();
  EXPECT_TRUE(report.onlyFailure(Invariant::kDemandExactness))
      << report.summary();
  // The skewed edge and the wirelength total both diverge.
  EXPECT_GE(report.countFor(Invariant::kDemandExactness), 2);
}

// Swapping a committed route for a straight shot through the macro's
// interior (demand maps compensated, so the route/demand contracts
// still hold and the route still connects its terminals) is a
// blockage-demand failure and nothing else.  Exactly one of the three
// crossed edges — (3,1)->(4,1), interior to the macro — is hard.
TEST(DbAuditorMutation, RouteOverHardBlockedEdgeCaughtByBlockageDemandOnly) {
  const auto db = makeMacroFixtureDatabase();
  groute::GlobalRouter router(db);
  router.run();
  ASSERT_TRUE(router.graph().hardBlocked(groute::WireEdge{0, 3, 1}));
  ASSERT_FALSE(router.graph().hardBlocked(groute::WireEdge{0, 2, 1}));
  EXPECT_CLEAN_AUDIT(DbAuditor(db, &router).auditAll());

  const db::NetId net = db.findNet("n0");
  ASSERT_NE(net, db::kInvalidId);
  NetRoute& route = router.mutableRoute(net);
  router.graph().applyRoute(route, -1);
  route.segments = {{GPoint{0, 2, 1}, GPoint{0, 5, 1}}};
  router.graph().applyRoute(route, +1);  // keep demand == routes

  const AuditReport report = DbAuditor(db, &router).auditAll();
  EXPECT_TRUE(report.onlyFailure(Invariant::kBlockageDemand))
      << report.summary();
  EXPECT_EQ(report.countFor(Invariant::kBlockageDemand), 1);
}

// Moving a movable cell onto the fixed macro's footprint is a
// macro-legality failure and nothing else.  Router-free audit: moving
// the cell moves its net terminal, so a router-attached audit would
// legitimately also flag the stale route — the macro invariant is
// isolated on the placement-only side.
TEST(DbAuditorMutation, CellOnMacroFootprintCaughtByMacroLegalityOnly) {
  auto db = makeMacroFixtureDatabase();
  EXPECT_CLEAN_AUDIT(DbAuditor(db).auditAll());

  db.moveCell(db.findCell("c0"), geom::Point{350, 100});

  const AuditReport report = DbAuditor(db).auditAll();
  EXPECT_TRUE(report.onlyFailure(Invariant::kMacroLegality))
      << report.summary();
  EXPECT_GE(report.countFor(Invariant::kMacroLegality), 1);
}

// Shifting the double-height cell half a row down leaves it site- and
// die-legal but starts it off every row origin: a height-alignment
// failure and nothing else (the cell has no nets, so even routes stay
// coherent; db-only audit for symmetry with the macro mutation).
TEST(DbAuditorMutation, MisalignedMultiRowCellCaughtByHeightAlignmentOnly) {
  auto db = makeMacroFixtureDatabase();
  ASSERT_TRUE(db.isMultiRow(db.findCell("d0")));

  db.moveCell(db.findCell("d0"), geom::Point{700, 150});

  const AuditReport report = DbAuditor(db).auditAll();
  EXPECT_TRUE(report.onlyFailure(Invariant::kHeightAlignment))
      << report.summary();
  EXPECT_GE(report.countFor(Invariant::kHeightAlignment), 1);
}

// An ECC candidate priced one ulp away from the reference re-price is
// a candidate-pricing failure naming that cell, and nothing else: the
// engine and the reference must agree bit for bit.
TEST(DbAuditorMutation, CorruptCandidatePriceCaughtByCandidatePricingOnly) {
  const auto db = crp::testing::makeGridDatabase(12, 6);
  groute::GlobalRouter router(db);
  router.run();
  const legalizer::IlpLegalizer legalizer(db);
  auto candidates = core::buildCandidates(db, legalizer, {2, 9, 20}, nullptr);
  core::PricingCache cache;
  core::priceCandidates(db, router, candidates, nullptr, cache);

  AuditReport fresh;
  core::auditCandidatePrices(db, router, candidates, fresh);
  EXPECT_CLEAN_AUDIT(fresh);

  core::Candidate& victim = candidates[1].candidates.back();
  victim.routeCost = std::nextafter(victim.routeCost, 1e300);
  AuditReport report;
  core::auditCandidatePrices(db, router, candidates, report);
  EXPECT_TRUE(report.onlyFailure(Invariant::kCandidatePricing))
      << report.summary();
  ASSERT_EQ(report.failures.size(), 1u);
  const std::string cell = "cell " + db.cell(candidates[1].cell).name + " ";
  EXPECT_EQ(report.failures[0].object.rfind(cell, 0), 0u)
      << report.failures[0].object;
}

// A cached price that predates a demand change is stale: replaying the
// entries against the live graph is a pricing-coherence failure and
// nothing else.
TEST(DbAuditorMutation, StaleCacheEntryCaughtByPricingCoherenceOnly) {
  const auto db = crp::testing::makeGridDatabase(12, 6);
  groute::GlobalRouter router(db);
  router.run();
  const groute::PatternRouter pattern(router.graph());
  groute::PatternRouter::Scratch scratch;

  // Price one real net through the production cache.
  db::NetId net = db::kInvalidId;
  for (db::NetId n = 0; n < db.numNets(); ++n) {
    if (router.netTerminals(n).size() >= 2) {
      net = n;
      break;
    }
  }
  ASSERT_NE(net, db::kInvalidId);
  std::vector<GPoint> terminals = router.netTerminals(net);
  core::canonicalizeTerminals(terminals);
  core::PricingCache cache;
  cache.price(terminals, pattern, scratch);

  // While the graph is unchanged the snapshot replays clean.
  AuditReport fresh;
  check::auditCachedPrices(pattern, cache.entries(), fresh);
  EXPECT_CLEAN_AUDIT(fresh);

  // Saturate every wire edge: any tree over distinct gcells crosses at
  // least one, and the Eq. 10 logistic penalty is strictly increasing
  // in demand, so every cached price is now provably stale.
  for (int layer = 0; layer < router.graph().numLayers(); ++layer) {
    const bool horizontal =
        router.graph().layerDir(layer) == db::LayerDir::kHorizontal;
    const int lines = horizontal ? router.graph().grid().countY()
                                 : router.graph().grid().countX();
    const int span = horizontal ? router.graph().grid().countX()
                                : router.graph().grid().countY();
    for (int line = 0; line < lines; ++line) {
      NetRoute jam;
      jam.routed = true;
      jam.segments.push_back(
          horizontal
              ? groute::RouteSegment{GPoint{layer, 0, line},
                                     GPoint{layer, span - 1, line}}
              : groute::RouteSegment{GPoint{layer, line, 0},
                                     GPoint{layer, line, span - 1}});
      for (int i = 0; i < 16; ++i) router.graph().applyRoute(jam, +1);
    }
  }

  AuditReport stale;
  check::auditCachedPrices(pattern, cache.entries(), stale);
  EXPECT_TRUE(stale.onlyFailure(Invariant::kPricingCoherence))
      << stale.summary();
}

// ---- flow fingerprint -------------------------------------------------------

TEST(FlowFingerprint, DeterministicAndStateSensitive) {
  auto db = crp::testing::makeGridDatabase(12, 6);
  groute::GlobalRouter router(db);
  router.run();

  const std::uint64_t fp = check::flowFingerprint(db, router);
  EXPECT_EQ(fp, check::flowFingerprint(db, router));

  const geom::Point pos = db.cell(0).pos;
  db.moveCell(0, geom::Point{pos.x + 40, pos.y});
  EXPECT_NE(fp, check::flowFingerprint(db, router));
}

// ---- fuzz harness plumbing --------------------------------------------------

TEST(FuzzSpec, SeedFullyDeterminesDesign) {
  const check::FuzzOptions options;
  const auto a = check::specForSeed(7, options);
  const auto b = check::specForSeed(7, options);
  EXPECT_EQ(a.targetCells, b.targetCells);
  EXPECT_EQ(a.utilization, b.utilization);
  EXPECT_EQ(a.netsPerCell, b.netsPerCell);
  EXPECT_EQ(a.localityBias, b.localityBias);
  EXPECT_EQ(a.hotspots, b.hotspots);
  EXPECT_EQ(a.hotspotStrength, b.hotspotStrength);
  EXPECT_EQ(a.seed, 7u);
  EXPECT_GE(a.targetCells, options.minCells);
  EXPECT_LE(a.targetCells, options.maxCells);

  const auto c = check::specForSeed(8, options);
  EXPECT_TRUE(a.targetCells != c.targetCells ||
              a.utilization != c.utilization ||
              a.netsPerCell != c.netsPerCell);
}

// Turning a scenario axis on must not disturb the base draws: the axis
// draws are appended after them in the RNG stream, so seed N keeps
// meaning the same base design in every campaign, old or new.
TEST(FuzzSpec, ScenarioAxesPreserveBaseDraws) {
  const check::FuzzOptions base;
  check::FuzzOptions scenario;
  scenario.macroCount = 3;
  scenario.multiRowFrac = 0.3;

  const auto a = check::specForSeed(7, base);
  const auto b = check::specForSeed(7, scenario);
  EXPECT_EQ(a.targetCells, b.targetCells);
  EXPECT_EQ(a.utilization, b.utilization);
  EXPECT_EQ(a.netsPerCell, b.netsPerCell);
  EXPECT_EQ(a.localityBias, b.localityBias);
  EXPECT_EQ(a.hotspots, b.hotspots);
  EXPECT_EQ(a.hotspotStrength, b.hotspotStrength);

  EXPECT_EQ(a.macroCount, 0);
  EXPECT_EQ(a.multiRowFrac, 0.0);
  EXPECT_GE(b.macroCount, 1);
  EXPECT_LE(b.macroCount, 3);
  EXPECT_GE(b.multiRowFrac, 0.05);
  EXPECT_LE(b.multiRowFrac, 0.3);
}

// A minimized repro must carry the scenario flags: the axes change the
// seed's spec draw, so `crp_fuzz --replay N` without them rebuilds the
// base design and the failure silently stops reproducing.
TEST(FuzzSpec, ReplayCommandCarriesScenarioAxes) {
  check::FuzzOptions base;
  base.routerThreadsVariant = 4;
  EXPECT_EQ(check::replayCommandFor(base, 7, 80, 2),
            "crp_fuzz --replay 7 --cells 80 --k 2 --router-threads 4");

  check::FuzzOptions scenario = base;
  scenario.macroCount = 3;
  scenario.multiRowFrac = 0.3;
  EXPECT_EQ(check::replayCommandFor(scenario, 7, 80, 2),
            "crp_fuzz --replay 7 --cells 80 --k 2 --router-threads 4"
            " --macros 3 --multi-row 0.3");
}

// ---- audit-triggered flight-recorder dumps ----------------------------------

// The whole diagnostic loop: run a spatially-instrumented flow (fills
// the event ring and the latest heatmap), inject the off-site-cell
// corruption from the mutation tests above, and let the dirty audit
// dump the flight recorder.  The artifact must carry the triggering
// failure, the recent events, and a decodable heatmap.
TEST(FlightDump, DirtyAuditWritesRenderableArtifact) {
  obs::EnabledScope enabled(true);
  obs::currentContext().reset();

  auto db = crp::testing::makeGridDatabase(12, 6);
  groute::GlobalRouter router(db);
  router.run();
  core::CrpOptions options;
  options.iterations = 1;
  options.snapshots = true;
  core::CrpFramework framework(db, router, options);
  framework.run();
  ASSERT_GT(obs::currentContext().flightRecorder().totalRecorded(), 0u);

  // Inject the corruption, audit, and dump on the dirty report.  The
  // context string's '/' must be sanitized away in the filename.
  const geom::Point pos = db.cell(0).pos;
  db.moveCell(0, geom::Point{pos.x + 3, pos.y});
  const AuditReport report = DbAuditor(db, &router).auditAll();
  ASSERT_FALSE(report.clean());

  const std::string dir = ::testing::TempDir() + "crp_flight_dump_test";
  const std::string path =
      check::writeFlightRecorderDump(report, dir, "UD/iter0");
  ASSERT_FALSE(path.empty());
  EXPECT_NE(path.find("flight_UD-iter0.json"), std::string::npos) << path;

  const obs::Json dump = obs::Json::parse(util::readFile(path));

  EXPECT_EQ(dump.at("schemaVersion").asInt(),
            obs::FlightRecorder::kSchemaVersion);
  EXPECT_EQ(dump.at("trigger").at("source").asString(), "audit");
  EXPECT_EQ(dump.at("trigger").at("context").asString(), "UD/iter0");

  // The trigger embeds the structured audit report, including the
  // placement-legality failure the mutation caused.
  const obs::Json& audit = dump.at("trigger").at("audit");
  EXPECT_GT(audit.at("invariantsChecked").asInt(), 0);
  bool sawPlacementFailure = false;
  for (const obs::Json& failure : audit.at("failures").asArray()) {
    if (failure.at("invariant").asString() ==
        check::invariantName(Invariant::kPlacementLegality)) {
      sawPlacementFailure = true;
      EXPECT_FALSE(failure.at("object").asString().empty());
    }
  }
  EXPECT_TRUE(sawPlacementFailure) << audit.dump(2);

  // The event ring holds at most `capacity` events, ending with the
  // flow's most recent ones.
  const auto& events = dump.at("events").asArray();
  ASSERT_FALSE(events.empty());
  EXPECT_LE(events.size(),
            static_cast<std::size_t>(dump.at("capacity").asInt()));
  bool sawPhaseEvent = false;
  for (const obs::Json& event : events) {
    if (event.at("category").asString() == "crp") sawPhaseEvent = true;
  }
  EXPECT_TRUE(sawPhaseEvent);

  // The attached heatmap is the flow's latest snapshot and decodes.
  const obs::HeatmapSnapshot heatmap =
      obs::HeatmapSnapshot::fromJson(dump.at("latestHeatmap"));
  EXPECT_EQ(heatmap.toJson(), framework.heatmaps().latest().toJson());
  obs::currentContext().reset();
}

TEST(FlightDump, AuditReportJsonMirrorsFailures) {
  AuditReport report;
  report.invariantsChecked = 3;
  report.failures.push_back(check::AuditFailure{
      Invariant::kDemandExactness, "wire edge L2 (4,1)", "2", "3"});
  const obs::Json j = check::auditReportToJson(report);
  EXPECT_EQ(j.at("invariantsChecked").asInt(), 3);
  const auto& failures = j.at("failures").asArray();
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_EQ(failures[0].at("invariant").asString(),
            check::invariantName(Invariant::kDemandExactness));
  EXPECT_EQ(failures[0].at("object").asString(), "wire edge L2 (4,1)");
  EXPECT_EQ(failures[0].at("expected").asString(), "2");
  EXPECT_EQ(failures[0].at("actual").asString(), "3");
}

TEST(FuzzCampaignTest, SingleSeedPassesAllLegs) {
  check::FuzzOptions options;
  options.seedStart = 3;
  options.seedCount = 1;
  options.iterations = 1;
  options.minCells = 60;
  options.maxCells = 90;
  check::FuzzCampaign campaign(options);
  const check::CampaignReport report = campaign.run();
  EXPECT_TRUE(report.clean()) << report.summary();
  ASSERT_EQ(report.seeds.size(), 1u);
  ASSERT_EQ(report.seeds.front().legs.size(), 3u);
  for (const check::LegResult& leg : report.seeds.front().legs) {
    EXPECT_TRUE(leg.ok) << leg.name << ": " << leg.error;
    EXPECT_EQ(leg.stateFingerprint,
              report.seeds.front().legs.front().stateFingerprint)
        << leg.name;
  }
}

}  // namespace
}  // namespace crp
