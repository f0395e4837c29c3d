#include "check/eco_equivalence.hpp"

#include <exception>
#include <sstream>

#include "bmgen/perturb.hpp"
#include "crp/framework.hpp"
#include "db/eco.hpp"
#include "groute/global_router.hpp"
#include "util/timer.hpp"

namespace crp::check {
namespace {

/// Same fixed framework seed the differential fuzz legs use, so the
/// shared base flow is identical across harnesses.
constexpr std::uint64_t kFrameworkSeed = 11;

core::CrpOptions crpOptionsFor(const EcoPairOptions& options, int iterations) {
  core::CrpOptions crp;
  crp.iterations = iterations;
  crp.seed = kFrameworkSeed;
  crp.threads = 1;
  crp.routerThreads = options.routerThreads;
  crp.auditLevel = options.auditLevel;
  return crp;
}

/// auditAll + error prefixing; true when clean.
bool auditSide(const char* side, const db::Database& db,
               const groute::GlobalRouter& router, std::string* error) {
  const DbAuditor auditor(db, &router);
  const AuditReport report = auditor.auditAll();
  if (report.clean()) return true;
  *error = std::string(side) + " audit:\n" + report.summary();
  return false;
}

}  // namespace

EcoPairResult runEcoVsScratch(const bmgen::BenchmarkSpec& spec,
                              const EcoPairOptions& options) {
  EcoPairResult result;
  try {
    // Shared base flow: design -> GR -> base CR&P.
    db::Database db = bmgen::generateBenchmark(spec);
    groute::GlobalRouterOptions routerOptions;
    routerOptions.routerThreads = options.routerThreads;
    groute::GlobalRouter router(db, routerOptions);
    router.run();
    core::CrpFramework framework(db, router,
                                 crpOptionsFor(options, options.baseIterations));
    framework.run();
    if (!auditSide("post-base", db, router, &result.error)) return result;

    // The delta derives from the post-base state — the state it applies
    // to on both sides.
    bmgen::PerturbOptions perturb;
    perturb.frac = options.perturbFrac;
    perturb.seed = options.perturbSeed;
    const db::EcoDelta delta = bmgen::perturbDesign(db, perturb);
    result.deltaEdits = delta.size();
    if (delta.empty()) {
      result.error = "perturbation produced an empty delta";
      return result;
    }

    // Fork the state before either side touches it.  The database is
    // plain data, so a copy is exact; the scratch side rebuilds its
    // routes from zero anyway.
    db::Database scratchDb = db;

    // Eco side: delta application is inside runEco and inside the
    // timed region — it is part of the incremental cost.
    util::Stopwatch ecoTimer;
    core::EcoOptions eco;
    eco.iterations = options.ecoIterations;
    const core::EcoReport ecoReport = framework.runEco(delta, eco);
    result.ecoSeconds = ecoTimer.seconds();
    result.dirtyNets = ecoReport.dirtyNets;
    result.scopeCells = ecoReport.scopeCells;
    result.cacheEvictions = ecoReport.cacheEvictions;
    result.ecoPatchSeconds = ecoReport.patchSeconds;
    if (!auditSide("eco", db, router, &result.error)) return result;

    // Scratch side: same delta, then the full rebuild.
    util::Stopwatch scratchTimer;
    db::applyEcoDelta(scratchDb, delta);
    groute::GlobalRouter scratchRouter(scratchDb, routerOptions);
    scratchRouter.run();
    core::CrpFramework scratchFramework(
        scratchDb, scratchRouter,
        crpOptionsFor(options, options.ecoIterations));
    scratchFramework.run();
    result.scratchSeconds = scratchTimer.seconds();
    if (!auditSide("scratch", scratchDb, scratchRouter, &result.error)) {
      return result;
    }

    const groute::GlobalRouteStats ecoStats = router.stats();
    const groute::GlobalRouteStats scratchStats = scratchRouter.stats();
    result.ecoWirelength = ecoStats.wirelengthDbu;
    result.scratchWirelength = scratchStats.wirelengthDbu;
    result.ecoVias = ecoStats.vias;
    result.scratchVias = scratchStats.vias;
    result.ecoOverflow = ecoStats.totalOverflow;
    result.scratchOverflow = scratchStats.totalOverflow;
    result.ecoFingerprint = flowFingerprint(db, router);

    if (ecoStats.openNets > 0) {
      result.error =
          "eco side left " + std::to_string(ecoStats.openNets) + " open nets";
      return result;
    }
    const auto fail = [&result](const std::string& what) {
      result.error = "parity: " + what;
      return result;
    };
    if (static_cast<double>(result.ecoWirelength) >
        options.maxWirelengthRatio *
            static_cast<double>(result.scratchWirelength)) {
      std::ostringstream os;
      os << "wirelength eco=" << result.ecoWirelength
         << " scratch=" << result.scratchWirelength << " exceeds ratio "
         << options.maxWirelengthRatio;
      return fail(os.str());
    }
    if (static_cast<double>(result.ecoVias) >
        options.maxViaRatio * static_cast<double>(result.scratchVias)) {
      std::ostringstream os;
      os << "vias eco=" << result.ecoVias << " scratch=" << result.scratchVias
         << " exceeds ratio " << options.maxViaRatio;
      return fail(os.str());
    }
    if (result.ecoOverflow > options.maxOverflowRatio * result.scratchOverflow +
                                 options.overflowSlack) {
      std::ostringstream os;
      os << "overflow eco=" << result.ecoOverflow
         << " scratch=" << result.scratchOverflow << " exceeds ratio "
         << options.maxOverflowRatio << " + slack " << options.overflowSlack;
      return fail(os.str());
    }
    result.ok = true;
  } catch (const std::exception& e) {
    result.error = std::string("exception: ") + e.what();
  }
  return result;
}

}  // namespace crp::check
