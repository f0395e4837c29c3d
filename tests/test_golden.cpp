// Golden end-to-end regression: the full CR&P flow on a small bmgen
// design with a fixed seed, fingerprinted (moves, costs, wirelength,
// schedule-independent counter totals — see RunReport::fingerprint)
// and compared against a checked-in golden JSON.
//
// The fingerprint must be identical across thread counts: the test
// runs the flow at --threads 1 and --threads 8 and requires equality
// before diffing against the golden file, so a nondeterminism bug
// fails here rather than silently updating a golden.
//
// Regenerate with scripts/update_goldens.sh (sets CRP_UPDATE_GOLDENS=1,
// which makes this test write the golden instead of asserting it).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "bmgen/generator.hpp"
#include "check/audit.hpp"
#include "crp/framework.hpp"
#include "db/legality.hpp"
#include "groute/global_router.hpp"
#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "obs/run_report.hpp"

#ifndef CRP_GOLDEN_DIR
#error "CRP_GOLDEN_DIR must point at tests/golden"
#endif

namespace crp {
namespace {

bmgen::BenchmarkSpec goldenSpec() {
  bmgen::BenchmarkSpec spec;
  spec.name = "golden_small";
  spec.targetCells = 400;
  spec.hotspots = 2;
  spec.seed = 7;
  spec.utilization = 0.8;
  return spec;
}

/// Scenario goldens (docs/scenarios.md): the same flow over a design
/// with fixed macro blocks + routing blockages, and one with a quarter
/// of the cells double-height.  60x6-site macros guarantee interior
/// hard-blocked edges at any placement, so routes provably detour.
bmgen::BenchmarkSpec macroSpec() {
  bmgen::BenchmarkSpec spec;
  spec.name = "golden_macro";
  spec.targetCells = 300;
  spec.seed = 13;
  spec.utilization = 0.75;
  spec.hotspots = 1;
  spec.macroCount = 3;
  spec.macroWidthSites = 60;
  spec.macroRowSpan = 6;
  return spec;
}

bmgen::BenchmarkSpec multiRowSpec() {
  bmgen::BenchmarkSpec spec;
  spec.name = "golden_multirow";
  spec.targetCells = 300;
  spec.seed = 17;
  spec.utilization = 0.75;
  spec.hotspots = 1;
  spec.multiRowFrac = 0.25;
  return spec;
}

/// Runs the full flow (generate -> GR -> CR&P k=2) and returns the
/// deterministic fingerprint of the run report.  `routerThreads`
/// drives the conflict-free batch reroute engine (GR RRR rounds and
/// the UD phase); the determinism contract says it is value-exact.
/// The end state must pass every audit; `state`, when given, receives
/// its check::flowFingerprint (cell positions, routes, totals).
obs::Json runFingerprint(const bmgen::BenchmarkSpec& spec, int threads,
                         int routerThreads = 1,
                         std::uint64_t* state = nullptr) {
  obs::EnabledScope enabled(true);
  auto db = bmgen::generateBenchmark(spec);
  groute::GlobalRouterOptions routerOptions;
  routerOptions.routerThreads = routerThreads;
  groute::GlobalRouter router(db, routerOptions);
  router.run();
  core::CrpOptions options;
  options.iterations = 2;
  options.seed = 11;
  options.threads = threads;
  options.routerThreads = routerThreads;
  core::CrpFramework framework(db, router, options);
  framework.run();
  EXPECT_TRUE(db::isPlacementLegal(db));
  const check::AuditReport audit = check::DbAuditor(db, &router).auditAll();
  EXPECT_TRUE(audit.clean()) << spec.name << ":\n" << audit.summary();
  if (state != nullptr) *state = check::flowFingerprint(db, router);
  return framework.runReport().fingerprint();
}

std::string goldenPath() {
  return std::string(CRP_GOLDEN_DIR) + "/crp_small_fingerprint.json";
}

/// Shared body of the scenario goldens: router-thread independence of
/// the end state and the report asserted first, then update-or-compare
/// against `goldenFile`.
void checkScenarioGolden(const bmgen::BenchmarkSpec& spec,
                         const std::string& goldenFile) {
  std::uint64_t serialState = 0;
  std::uint64_t parallelState = 0;
  const obs::Json serial =
      runFingerprint(spec, 1, /*routerThreads=*/1, &serialState);
  const obs::Json parallel =
      runFingerprint(spec, 1, /*routerThreads=*/8, &parallelState);
  EXPECT_EQ(serialState, parallelState)
      << spec.name << ": --router-threads 1 vs 8 end states diverge";
  ASSERT_EQ(serial, parallel)
      << spec.name << ": --router-threads 1 vs 8 fingerprints diverge:\n"
      << serial.dump(2) << "\nvs\n"
      << parallel.dump(2);

  const std::string path = std::string(CRP_GOLDEN_DIR) + "/" + goldenFile;
  if (std::getenv("CRP_UPDATE_GOLDENS") != nullptr) {
    std::ofstream out(path);
    ASSERT_TRUE(out) << "cannot write " << path;
    out << serial.dump(2) << "\n";
    GTEST_SKIP() << "golden regenerated at " << path;
  }

  std::ifstream in(path);
  ASSERT_TRUE(in) << "missing golden file " << path
                  << " — run scripts/update_goldens.sh";
  std::stringstream buffer;
  buffer << in.rdbuf();
  const obs::Json golden = obs::Json::parse(buffer.str());
  EXPECT_EQ(serial, golden)
      << spec.name << " fingerprint drifted from golden.\ngolden:\n"
      << golden.dump(2) << "\ncurrent:\n"
      << serial.dump(2)
      << "\nIf the change is intentional, run scripts/update_goldens.sh";
}

TEST(Golden, CrpFlowFingerprintMatchesGolden) {
  const obs::Json single = runFingerprint(goldenSpec(), 1);
  const obs::Json parallel = runFingerprint(goldenSpec(), 8);
  // Thread-count independence first: a scheduling leak would otherwise
  // masquerade as a golden mismatch (or worse, get baked into one).
  ASSERT_EQ(single, parallel)
      << "--threads 1 vs --threads 8 fingerprints diverge:\n"
      << single.dump(2) << "\nvs\n"
      << parallel.dump(2);

  if (std::getenv("CRP_UPDATE_GOLDENS") != nullptr) {
    std::ofstream out(goldenPath());
    ASSERT_TRUE(out) << "cannot write " << goldenPath();
    out << single.dump(2) << "\n";
    GTEST_SKIP() << "golden regenerated at " << goldenPath();
  }

  std::ifstream in(goldenPath());
  ASSERT_TRUE(in) << "missing golden file " << goldenPath()
                  << " — run scripts/update_goldens.sh";
  std::stringstream buffer;
  buffer << in.rdbuf();
  const obs::Json golden = obs::Json::parse(buffer.str());
  EXPECT_EQ(single, golden)
      << "fingerprint drifted from golden.\ngolden:\n"
      << golden.dump(2) << "\ncurrent:\n"
      << single.dump(2)
      << "\nIf the change is intentional, run scripts/update_goldens.sh";
}

// The router-thread knob must also be value-exact: the conflict-free
// batch plan is computed sequentially and batch members touch disjoint
// graph regions, so the whole-flow fingerprint — demand maps, routes,
// moves — is bit-identical at 1 vs 8 router threads, and both match
// the checked-in golden.
TEST(Golden, RouterThreadCountIndependence) {
  std::uint64_t serialState = 0;
  std::uint64_t parallelState = 0;
  const obs::Json serial =
      runFingerprint(goldenSpec(), 1, /*routerThreads=*/1, &serialState);
  const obs::Json parallel =
      runFingerprint(goldenSpec(), 1, /*routerThreads=*/8, &parallelState);
  EXPECT_EQ(serialState, parallelState)
      << "--router-threads 1 vs 8 end states diverge";
  ASSERT_EQ(serial, parallel)
      << "--router-threads 1 vs 8 fingerprints diverge:\n"
      << serial.dump(2) << "\nvs\n"
      << parallel.dump(2);

  if (std::getenv("CRP_UPDATE_GOLDENS") != nullptr) {
    GTEST_SKIP() << "golden handled by CrpFlowFingerprintMatchesGolden";
  }
  std::ifstream in(goldenPath());
  ASSERT_TRUE(in) << "missing golden file " << goldenPath()
                  << " — run scripts/update_goldens.sh";
  std::stringstream buffer;
  buffer << in.rdbuf();
  const obs::Json golden = obs::Json::parse(buffer.str());
  EXPECT_EQ(parallel, golden)
      << "parallel-reroute fingerprint drifted from golden.\ngolden:\n"
      << golden.dump(2) << "\ncurrent:\n"
      << parallel.dump(2);
}

// Scenario goldens: the macro-heavy design (fixed blocks, hard-blocked
// interiors, routing blockages) and the mixed-height design each pin
// their own end-to-end fingerprint, with router-thread independence
// asserted before any golden comparison — exactly the protocol of the
// base golden, extended along the workload axes of docs/scenarios.md.
TEST(Golden, MacroHeavyFlowMatchesGoldenAndIsThreadIndependent) {
  checkScenarioGolden(macroSpec(), "crp_macro_fingerprint.json");
}

TEST(Golden, MixedHeightFlowMatchesGoldenAndIsThreadIndependent) {
  checkScenarioGolden(multiRowSpec(), "crp_multirow_fingerprint.json");
}

// The spatial tier obeys the same contract: heatmap snapshots are
// exact sums over committed routes, so the delta-encoded series (and
// the timeline-bearing report fingerprint) captured at 1 vs 8 router
// threads must be byte-identical — on the plain, macro-heavy and
// mixed-height designs alike.  The snapshot-free fingerprint is
// covered above; this test proves turning snapshots ON adds no
// schedule dependence.
TEST(Golden, SpatialSnapshotsAreRouterThreadIndependent) {
  struct SpatialRun {
    std::string heatmaps;
    obs::Json fingerprint;
    std::size_t snapshots = 0;
  };
  const auto runSpatial = [](const bmgen::BenchmarkSpec& spec,
                             int routerThreads) {
    obs::EnabledScope enabled(true);
    obs::currentContext().reset();
    auto db = bmgen::generateBenchmark(spec);
    groute::GlobalRouterOptions routerOptions;
    routerOptions.routerThreads = routerThreads;
    groute::GlobalRouter router(db, routerOptions);
    router.run();
    core::CrpOptions options;
    options.iterations = 2;
    options.seed = 11;
    options.routerThreads = routerThreads;
    options.snapshots = true;
    core::CrpFramework framework(db, router, options);
    framework.run();
    SpatialRun run;
    run.heatmaps = framework.heatmaps().toJson().dump(2);
    run.fingerprint = framework.runReport().fingerprint();
    run.snapshots = framework.heatmaps().size();
    obs::currentContext().reset();
    return run;
  };

  for (const bmgen::BenchmarkSpec& spec :
       {goldenSpec(), macroSpec(), multiRowSpec()}) {
    SCOPED_TRACE(spec.name);
    const SpatialRun serial = runSpatial(spec, 1);
    const SpatialRun parallel = runSpatial(spec, 8);
    EXPECT_EQ(serial.snapshots, 3u);  // post-gr + one per iteration (k=2)
    EXPECT_EQ(serial.heatmaps, parallel.heatmaps)
        << "heatmap series diverge between 1 and 8 router threads";
    ASSERT_EQ(serial.fingerprint, parallel.fingerprint)
        << "timeline-bearing fingerprints diverge:\n"
        << serial.fingerprint.dump(2) << "\nvs\n"
        << parallel.fingerprint.dump(2);
    // The timeline joined the fingerprint (spatial tier on), so it must
    // differ from the timeline-free golden — additive, not silent.
    EXPECT_NE(serial.fingerprint.find("timeline"), nullptr);
  }
}

}  // namespace
}  // namespace crp
