// route-10k and detail-test7.
#include <filesystem>
#include <optional>
#include <string>
#include <unistd.h>

#include "bmgen/generator.hpp"
#include "bmgen/suite.hpp"
#include "checks.hpp"
#include "crp/framework.hpp"
#include "droute/detailed_router.hpp"
#include "groute/global_router.hpp"
#include "lefdef/def_parser.hpp"
#include "lefdef/def_writer.hpp"
#include "lefdef/guide_io.hpp"
#include "lefdef/lef_parser.hpp"
#include "lefdef/lef_writer.hpp"
#include "obs/obs.hpp"
#include "probes.hpp"
#include "workloads.hpp"

namespace flowbench {

namespace {

struct FlowConfig {
  crp::bmgen::BenchmarkSpec spec;
  int threads = 1;
  bool detail = false;
  int iterations = 10;  ///< CR&P k
};

FlowConfig configFor(const RunOptions& options) {
  FlowConfig config;
  if (options.workload == "route-10k") {
    // The reference design: `crp generate --cells 10000 --util 0.75
    // --seed 29` (hotspots at the CLI default of 2).
    config.spec.name = "route10k";
    config.spec.targetCells = 10000;
    config.spec.utilization = 0.75;
    config.spec.hotspots = 2;
    config.spec.seed = 29;
    config.threads = workloadThreads();
  } else {
    // ispdLikeSuite crp_test7 at 1/100 scale, as the suite makes it.
    for (const auto& entry : crp::bmgen::ispdLikeSuite(100.0)) {
      if (entry.name == "crp_test7") config.spec = entry.spec;
    }
    config.threads = 1;
    config.detail = true;
  }
  return config;
}

void appendProblems(Result& result, const std::string& where,
                    const checks::Problems& problems) {
  for (const auto& p : problems) result.fail(where + ": " + p);
}

crp::db::Database loadDesign(const std::string& lef, const std::string& def) {
  auto [tech, lib] = crp::lefdef::parseLefFile(lef);
  crp::db::Design design = crp::lefdef::parseDefFile(def, tech, lib);
  return crp::db::Database(std::move(tech), std::move(lib), std::move(design));
}

}  // namespace

void runFlowWorkload(const RunOptions& options, Result& result) {
  const FlowConfig config = configFor(options);
  const std::string stem =
      options.outDir + "/" + options.workload + "-" + std::to_string(getpid());
  const std::string lefIn = stem + ".lef", defIn = stem + ".def";
  const std::string defOut = stem + ".out.def", guideOut = stem + ".out.guide";
  crp::obs::ObsContext& obs = crp::obs::currentContext();

  // ---- set-up: generate, write and parse back the design -------------
  double parseSeconds = 0.0;
  crp::db::Database loaded = [&] {
    Span setup("setup");
    const crp::db::Database generated = [&] {
      Span span("bmgen.generate");
      return crp::bmgen::generateBenchmark(config.spec);
    }();
    {
      Span span("lefdef.write_input");
      crp::lefdef::writeLefFile(lefIn, generated.tech(), generated.library());
      crp::lefdef::writeDefFile(defIn, generated);
    }
    Span span("lefdef.parse");
    const auto start = Clock::now();
    crp::db::Database db = loadDesign(lefIn, defIn);
    parseSeconds = secondsSince(start);
    return db;
  }();
  result.set("setup_s", secondsSince(processStart()));

  // ---- measured rounds -----------------------------------------------
  std::vector<double> grS, crpS, flowS, drBuildS, drRouteS, writeS;
  const auto measureStart = Clock::now();
  do {
    obs.tracer().clear();
    obs.metrics().reset();
    crp::db::Database db = loaded;
    Span round("flow");
    const auto flowStart = Clock::now();

    crp::groute::GlobalRouterOptions routerOptions;
    routerOptions.routerThreads = config.threads;
    auto start = Clock::now();
    crp::groute::GlobalRouter router(db, routerOptions);
    crp::groute::GlobalRouteStats grStats;
    {
      Span span("groute.run");
      grStats = router.run();
    }
    grS.push_back(secondsSince(start));
    if (options.trace) recordGlobalRoute(obs, grStats, result);

    crp::core::CrpOptions crpOptions;
    crpOptions.iterations = config.iterations;
    crpOptions.threads = config.threads;
    crpOptions.routerThreads = config.threads;
    start = Clock::now();
    crp::core::CrpFramework framework(db, router, crpOptions);
    {
      Span span("crp.run");
      framework.run();
    }
    crpS.push_back(secondsSince(start));
    if (options.trace) recordCrp(framework.runReport(), result);

    const std::vector<crp::lefdef::NetGuide> guides = router.buildGuides();
    std::optional<crp::droute::DetailedRouter> detailed;
    crp::droute::DetailedRouteStats drStats;
    if (config.detail) {
      start = Clock::now();
      {
        Span span("droute.build");
        detailed.emplace(db, guides);
      }
      drBuildS.push_back(secondsSince(start));
      start = Clock::now();
      {
        Span span("droute.run");
        drStats = detailed->run();
      }
      drRouteS.push_back(secondsSince(start));
    }

    start = Clock::now();
    {
      Span span("lefdef.write_outputs");
      crp::lefdef::writeDefFile(defOut, db);
      crp::lefdef::writeGuidesFile(guideOut, db, guides);
    }
    writeS.push_back(secondsSince(start));
    flowS.push_back(secondsSince(flowStart));
    result.set("peak_rss_mib", peakRssMib());  // before the checks add their own

    // ---- checks (untimed) --------------------------------------------
    Span checkSpan("checks");
    const crp::db::Database placed(loaded.tech(), loaded.library(),
                                   crp::lefdef::parseDefFile(defOut, loaded.tech(),
                                                             loaded.library()));
    appendProblems(result, "placement", checks::placementLegal(placed, loaded));
    appendProblems(result, "DEF round trip", checks::samePlacement(placed, db));
    const auto routes = checks::globalRoutes(router);
    appendProblems(result, "global routes", routes.problems);
    result.attempted += routes.nets;
    if (config.detail) {
      appendProblems(result, "detailed routes", checks::detailedRoutes(*detailed, drStats));
      result.failed += drStats.openNets;
      result.set("wirelength_dbu", static_cast<double>(drStats.wirelengthDbu));
      result.set("vias", static_cast<double>(drStats.viaCount));
      result.set("droute.shorts", drStats.shortViolations);
      result.set("droute.min_area_patches", static_cast<double>(drStats.minAreaPatches));
    } else {
      result.failed += routes.openNets;
      const auto final = router.stats();
      result.set("wirelength_dbu", static_cast<double>(final.wirelengthDbu));
      result.set("vias", static_cast<double>(final.vias));
    }
    if (options.trace) probeGroute(router, options.seed, result);
  } while (secondsSince(measureStart) < options.seconds);

  result.set("flow_s", quantile(flowS, 0.5));
  result.set("groute.run_s", quantile(grS, 0.5));
  result.set("crp.run_s", quantile(crpS, 0.5));
  result.set("lefdef.parse_s", parseSeconds);
  result.set("lefdef.write_s", quantile(writeS, 0.5));
  result.set("droute.build_s", quantile(drBuildS, 0.5));
  result.set("droute.route_s", quantile(drRouteS, 0.5));

  for (const auto& path : {lefIn, defIn, defOut, guideOut}) {
    std::filesystem::remove(path);
  }
}

}  // namespace flowbench
