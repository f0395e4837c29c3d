#include "check/fuzz.hpp"

#include <exception>

#include "check/eco_equivalence.hpp"
#include <filesystem>
#include <sstream>
#include <utility>

#include "crp/framework.hpp"
#include "db/database.hpp"
#include "groute/global_router.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "obs/run_report.hpp"
#include "util/file_io.hpp"
#include "util/logger.hpp"
#include "util/rng.hpp"

namespace crp::check {
namespace {

/// One paired configuration of the differential harness.
struct LegConfig {
  std::string name;
  int routerThreads = 1;
  bool obsOn = true;
};

/// CR&P seed used inside every leg.  Fixed (not the fuzz seed): the
/// design already varies per seed, and a constant framework seed keeps
/// a leg's annealing draws identical across configurations by
/// construction rather than by luck.
constexpr std::uint64_t kFrameworkSeed = 11;

LegResult runLeg(const bmgen::BenchmarkSpec& spec, const LegConfig& config,
                 int iterations, AuditLevel auditLevel) {
  LegResult result;
  result.name = config.name;
  obs::EnabledScope enabled(config.obsOn);
  try {
    db::Database db = bmgen::generateBenchmark(spec);
    groute::GlobalRouterOptions routerOptions;
    routerOptions.routerThreads = config.routerThreads;
    groute::GlobalRouter router(db, routerOptions);
    router.run();
    {
      // The flow's precondition is audited too: a GR bug would
      // otherwise surface as a confusing CR&P divergence.
      const DbAuditor auditor(db, &router);
      const AuditReport postRoute = auditor.auditAll();
      if (!postRoute.clean()) {
        result.error = "post-global-route audit:\n" + postRoute.summary();
        return result;
      }
    }

    core::CrpOptions options;
    options.iterations = iterations;
    options.seed = kFrameworkSeed;
    options.threads = 1;
    options.routerThreads = config.routerThreads;
    options.auditLevel = auditLevel;
    // Spatial tier on: the obs-on legs then exercise snapshot capture
    // and the timeline joins their report fingerprints (value-exact
    // across the paired configs), and a failure's flight-recorder dump
    // carries the last heatmap.  The runtime obs gate keeps this a
    // no-op on the obs-off leg.
    options.snapshots = true;
    core::CrpFramework framework(db, router, options);
    framework.run();  // in-flow audits throw AuditError on violation

    const DbAuditor auditor(db, &router);
    const AuditReport finalReport = auditor.auditAll();
    if (!finalReport.clean()) {
      result.error = "final audit:\n" + finalReport.summary();
      return result;
    }
    result.stateFingerprint = flowFingerprint(db, router);
    if (config.obsOn) {
      result.reportFingerprint = framework.runReport().fingerprint().dump();
    }
    result.ok = true;
  } catch (const AuditError& e) {
    result.error = e.what();
  } catch (const std::exception& e) {
    result.error = std::string("exception: ") + e.what();
  }
  return result;
}

}  // namespace

bmgen::BenchmarkSpec specForSeed(std::uint64_t seed,
                                 const FuzzOptions& options) {
  // All spec parameters derive from the seed through one RNG stream, so
  // a seed fully identifies its design (the replay contract).
  util::Rng rng(seed ^ 0x66757a7a63727026ULL);
  bmgen::BenchmarkSpec spec;
  spec.name = "fuzz_" + std::to_string(seed);
  spec.targetCells = static_cast<int>(
      rng.uniformInt(options.minCells, options.maxCells));
  spec.utilization = rng.uniform(0.70, 0.85);
  spec.netsPerCell = rng.uniform(0.8, 1.2);
  spec.localityBias = rng.uniform(0.6, 0.9);
  spec.hotspots = static_cast<int>(rng.uniformInt(0, 2));
  spec.hotspotStrength = rng.uniform(0.3, 0.7);
  // Scenario-axis draws come AFTER the base draws and are guarded, so a
  // campaign with the axes off consumes the exact RNG stream of older
  // campaigns — seed N keeps meaning the same base design forever.
  if (options.macroCount > 0) {
    spec.macroCount = static_cast<int>(rng.uniformInt(1, options.macroCount));
  }
  if (options.multiRowFrac > 0.0) {
    spec.multiRowFrac = rng.uniform(0.05, options.multiRowFrac);
  }
  spec.seed = seed;
  return spec;
}

std::string CampaignReport::summary() const {
  std::ostringstream os;
  os << seedsRun << " seed(s) run, " << seedsFailed << " failed";
  for (const SeedResult& seed : seeds) {
    if (seed.passed) continue;
    os << "\n  seed " << seed.seed << ": " << seed.failure;
    if (!seed.replayCommand.empty()) os << "\n    replay: " << seed.replayCommand;
    if (!seed.artifactPath.empty()) os << "\n    artifact: " << seed.artifactPath;
    if (!seed.flightRecorderPath.empty()) {
      os << "\n    flight recorder: " << seed.flightRecorderPath;
    }
  }
  return os.str();
}

FuzzCampaign::FuzzCampaign(FuzzOptions options) : options_(std::move(options)) {}

SeedResult FuzzCampaign::runSeedAt(std::uint64_t seed, int targetCells,
                                   int iterations) {
  SeedResult result;
  result.seed = seed;
  bmgen::BenchmarkSpec spec = specForSeed(seed, options_);
  if (targetCells > 0) spec.targetCells = targetCells;
  const int k = iterations > 0 ? iterations : options_.iterations;
  result.minimizedCells = spec.targetCells;
  result.minimizedIterations = k;

  const LegConfig legs[] = {
      {"serial", 1, true},
      {"rt-" + std::to_string(options_.routerThreadsVariant),
       options_.routerThreadsVariant, true},
      {"obs-off", 1, false},
  };
  for (const LegConfig& config : legs) {
    result.legs.push_back(runLeg(spec, config, k, options_.auditLevel));
  }

  const LegResult& reference = result.legs.front();
  for (const LegResult& leg : result.legs) {
    if (!leg.ok) {
      result.failure = "leg " + leg.name + " failed: " + leg.error;
      return result;
    }
  }
  for (const LegResult& leg : result.legs) {
    if (leg.stateFingerprint != reference.stateFingerprint) {
      std::ostringstream os;
      os << "state fingerprint diverges: " << reference.name << "="
         << reference.stateFingerprint << " vs " << leg.name << "="
         << leg.stateFingerprint;
      result.failure = os.str();
      return result;
    }
    if (!leg.reportFingerprint.empty() &&
        leg.reportFingerprint != reference.reportFingerprint) {
      result.failure = "run-report fingerprint diverges between " +
                       reference.name + " and " + leg.name;
      return result;
    }
  }

  if (options_.ecoLeg) {
    // Fourth leg, after the three differential legs agree: the same seed's
    // design goes through the paired eco-vs-scratch check.  Its
    // fingerprint is recorded for the artifact but not compared against
    // the reference — the eco side legitimately diverges in state (the
    // equivalence contract is audits + quality parity, docs/eco.md).
    LegResult leg;
    leg.name = "eco-vs-scratch";
    EcoPairOptions pair;
    pair.baseIterations = k;
    pair.ecoIterations = 1;
    pair.auditLevel = options_.auditLevel;
    pair.routerThreads = 1;
    pair.perturbSeed = seed;
    const EcoPairResult paired = runEcoVsScratch(spec, pair);
    leg.ok = paired.ok;
    leg.error = paired.error;
    leg.stateFingerprint = paired.ecoFingerprint;
    result.legs.push_back(std::move(leg));
    if (!paired.ok) {
      result.failure = "leg eco-vs-scratch failed: " + paired.error;
      return result;
    }
  }

  result.passed = true;
  return result;
}

std::string replayCommandFor(const FuzzOptions& options, std::uint64_t seed,
                             int cells, int iterations) {
  std::ostringstream replay;
  replay << "crp_fuzz --replay " << seed << " --cells " << cells << " --k "
         << iterations << " --router-threads " << options.routerThreadsVariant;
  // The scenario axes change the seed's spec draw, so a replay must
  // carry them to reproduce the same design.
  if (options.macroCount > 0) replay << " --macros " << options.macroCount;
  if (options.multiRowFrac > 0.0) {
    replay << " --multi-row " << options.multiRowFrac;
  }
  return replay.str();
}

void FuzzCampaign::minimizeAndRecord(SeedResult& result) {
  const std::uint64_t seed = result.seed;
  const int fullCells = result.minimizedCells;
  const int fullK = result.minimizedIterations;

  if (options_.minimize) {
    // Fixed shrink ladder, smallest first; the original configuration
    // is known-failing, so the walk always terminates with a repro.
    const std::pair<int, int> ladder[] = {
        {std::max(40, fullCells / 4), 1},
        {std::max(40, fullCells / 2), 1},
        {fullCells, 1},
        {fullCells, fullK},
    };
    for (const auto& [cells, k] : ladder) {
      if (cells == fullCells && k == fullK) break;  // original; still failing
      SeedResult shrunk = runSeedAt(seed, cells, k);
      if (!shrunk.passed) {
        shrunk.seed = seed;
        result.failure = shrunk.failure;
        result.legs = std::move(shrunk.legs);
        result.minimizedCells = cells;
        result.minimizedIterations = k;
        break;
      }
    }
  }

  result.replayCommand =
      replayCommandFor(options_, seed, result.minimizedCells,
                       result.minimizedIterations);

  if (options_.artifactDir.empty()) return;
  try {
    std::filesystem::create_directories(options_.artifactDir);

    // Flight-recorder dump first: the ring still holds the events of
    // the minimized repro (the last legs run), and the obs-on legs'
    // snapshot capture left the latest heatmap with the recorder.
    {
      obs::Json trigger = obs::Json::object();
      trigger.set("source", "crp_fuzz");
      trigger.set("seed", seed);
      trigger.set("failure", result.failure);
      trigger.set("replay", result.replayCommand);
      const std::string flightPath = options_.artifactDir + "/fuzz_seed_" +
                                     std::to_string(seed) + "_flight.json";
      if (obs::currentContext().flightRecorder().dumpToFile(
              flightPath, std::move(trigger))) {
        result.flightRecorderPath = flightPath;
      } else {
        CRP_LOG_WARN("fuzz: cannot write flight dump {}", flightPath);
      }
    }

    obs::Json doc = obs::Json::object();
    doc.set("schema", 1);
    doc.set("seed", seed);
    doc.set("failure", result.failure);
    doc.set("replay", result.replayCommand);
    if (!result.flightRecorderPath.empty()) {
      doc.set("flightRecorder", result.flightRecorderPath);
    }
    doc.set("cells", result.minimizedCells);
    doc.set("iterations", result.minimizedIterations);
    const bmgen::BenchmarkSpec spec = specForSeed(seed, options_);
    obs::Json specObj = obs::Json::object();
    specObj.set("name", spec.name);
    specObj.set("targetCells", spec.targetCells);
    specObj.set("utilization", spec.utilization);
    specObj.set("netsPerCell", spec.netsPerCell);
    specObj.set("localityBias", spec.localityBias);
    specObj.set("hotspots", spec.hotspots);
    specObj.set("hotspotStrength", spec.hotspotStrength);
    if (spec.macroCount > 0) specObj.set("macroCount", spec.macroCount);
    if (spec.multiRowFrac > 0.0) {
      specObj.set("multiRowFrac", spec.multiRowFrac);
    }
    doc.set("spec", std::move(specObj));
    obs::Json legsArr = obs::Json::array();
    for (const LegResult& leg : result.legs) {
      obs::Json legObj = obs::Json::object();
      legObj.set("name", leg.name);
      legObj.set("ok", leg.ok);
      legObj.set("stateFingerprint", std::to_string(leg.stateFingerprint));
      if (!leg.reportFingerprint.empty()) {
        legObj.set("reportFingerprint",
                   obs::Json::parse(leg.reportFingerprint));
      }
      if (!leg.error.empty()) legObj.set("error", leg.error);
      legsArr.append(std::move(legObj));
    }
    doc.set("legs", std::move(legsArr));

    const std::string path = options_.artifactDir + "/fuzz_seed_" +
                             std::to_string(seed) + ".json";
    std::string error;
    if (util::writeFileAtomic(path, doc.dump(2) + "\n", &error)) {
      result.artifactPath = path;
    } else {
      CRP_LOG_WARN("fuzz: cannot write artifact {}: {}", path, error);
    }
  } catch (const std::exception& e) {
    CRP_LOG_WARN("fuzz: artifact write failed: {}", e.what());
  }
}

SeedResult FuzzCampaign::replaySeed(std::uint64_t seed, int targetCells,
                                    int iterations) {
  SeedResult result = runSeedAt(seed, targetCells, iterations);
  if (!result.passed) minimizeAndRecord(result);
  return result;
}

CampaignReport FuzzCampaign::run() {
  CampaignReport report;
  for (int i = 0; i < options_.seedCount; ++i) {
    const std::uint64_t seed = options_.seedStart + static_cast<std::uint64_t>(i);
    SeedResult result = runSeedAt(seed, 0, 0);
    ++report.seedsRun;
    if (!result.passed) {
      ++report.seedsFailed;
      CRP_LOG_WARN("fuzz: seed {} FAILED: {}", seed, result.failure);
      minimizeAndRecord(result);
    } else {
      CRP_LOG_INFO("fuzz: seed {} ok ({} cells, fingerprint {})", seed,
                   result.minimizedCells,
                   result.legs.front().stateFingerprint);
    }
    report.seeds.push_back(std::move(result));
  }
  return report;
}

}  // namespace crp::check
