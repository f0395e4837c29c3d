// crp — command-line front end to the CR&P toolkit.
//
// Subcommands (all file formats are the LEF/DEF/guide subset the
// library reads and writes):
//
//   crp generate out.lef out.def [--cells N] [--util U] [--hotspots H]
//                [--seed S] [--perturb SEED,FRAC]
//       Generate a synthetic ISPD-2018-style benchmark.  --perturb also
//       derives an EcoDelta touching FRAC of the cells and writes it
//       next to out.def as <stem>.eco.json — the paired input for
//       `crp eco`.
//
//   crp eco in.lef in.def delta.json out.def out.guide [--k N]
//           [--base-k N] [--halo G] [--seed S] [--router-threads N]
//           [--audit off|phase|paranoid] [--compare-scratch 1]
//           [--report-out report.json]
//       Incremental ECO (docs/eco.md): global-route the input, apply
//       the JSON delta transactionally, patch only the dirty gcell
//       region, and run --k restricted CR&P iterations.  --base-k runs
//       full iterations before the delta (modelling an already-
//       optimized input).  --compare-scratch re-runs the same delta
//       from scratch and prints the wall-clock speedup.
//
//   crp route in.lef in.def out.guide
//       Global-route and write the route guides.
//
//   crp run in.lef in.def out.def out.guide [--k N] [--gamma G]
//           [--router-threads N] [--snapshots 0|1]
//           [--trace-out trace.json] [--report-out report.json]
//           [--heatmaps-out series.json] [--flight-out dump.json]
//           [--flight-dir DIR] [--metrics-out metrics.prom]
//           [--ledger ledger.jsonl]
//       Global route + CR&P iterations; writes the improved placement
//       and guides (the paper's Fig. 1 interface).  --trace-out dumps
//       a Chrome trace_event file (load in chrome://tracing or
//       https://ui.perfetto.dev); --report-out dumps the versioned
//       RunReport JSON (docs/observability.md).  --snapshots 1 arms the
//       spatial tier (k+1 congestion heatmaps + the RunReport
//       timeline); --heatmaps-out writes the delta-encoded series,
//       --flight-out dumps the flight-recorder event ring, and
//       --flight-dir makes a dirty in-flow audit dump the ring there
//       before aborting.  Render any of these with crp_report.
//       --metrics-out writes the run's metric registry as Prometheus
//       text exposition; --ledger appends a run-ledger entry (QoR,
//       phase times, provenance) to the given JSONL file — gate it
//       later with `crp_report ledger --check`.
//
//   crp detail in.lef in.def in.guide
//       Detailed-route against existing guides and print the ISPD-2018
//       metrics.
//
//   crp flow in.lef in.def [--k N]
//       Full flow with before/after comparison (GR -> DR baseline,
//       then GR -> CR&P -> DR).
//
//   crp congestion in.lef in.def [--layer L]
//       Global-route and print an ASCII congestion heatmap.
//
//   crp suite outdir [--scale S]
//       Export the crp_test1..10 suite as LEF/DEF pairs.
//
//   crp serve --socket PATH [--workers N] [--max-sessions N]
//             [--verbose 1] [--ledger ledger.jsonl]
//       Run the CR&P daemon (docs/serve.md): a unix-socket job server
//       with resident per-session state.  Stops cleanly on SIGTERM /
//       SIGINT or a client shutdown op.  --ledger appends one run-
//       ledger entry per completed run/eco job.
//
// A flag the subcommand does not read, one given without a value, a
// numeric flag whose value is not a number, or a thread count
// (--threads, --router-threads, --workers) that is not a whole number
// >= 0 fitting an int is an error: crp exits 2 naming it, before
// reading any input.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <csignal>
#include <filesystem>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "bmgen/generator.hpp"
#include "bmgen/perturb.hpp"
#include "bmgen/suite.hpp"
#include "check/audit.hpp"
#include "crp/framework.hpp"
#include "db/eco.hpp"
#include "db/legality.hpp"
#include "dplace/detailed_placer.hpp"
#include "droute/detailed_router.hpp"
#include "eval/evaluator.hpp"
#include "groute/congestion_report.hpp"
#include "groute/global_router.hpp"
#include "lefdef/def_parser.hpp"
#include "lefdef/def_writer.hpp"
#include "lefdef/guide_io.hpp"
#include "lefdef/lef_parser.hpp"
#include "lefdef/lef_writer.hpp"
#include "obs/obs.hpp"
#include "obs/prometheus.hpp"
#include "obs/run_ledger.hpp"
#include "obs/run_report.hpp"
#include "serve/server.hpp"
#include "util/file_io.hpp"
#include "util/string_util.hpp"
#include "util/timer.hpp"
#include "viz/svg_writer.hpp"

namespace {

using namespace crp;

/// Minimal --flag value parser: positional args + "--key value" pairs.
struct Args {
  std::vector<std::string> positional;
  std::map<std::string, std::string> flags;

  static Args parse(int argc, char** argv, int firstArg) {
    Args args;
    for (int i = firstArg; i < argc; ++i) {
      const std::string token = argv[i];
      if (token.rfind("--", 0) == 0 && i + 1 < argc) {
        args.flags[token.substr(2)] = argv[++i];
      } else {
        args.positional.push_back(token);
      }
    }
    return args;
  }

  /// Whole-string number: nullopt for "abc", "3x", "" or a non-finite
  /// value.
  static std::optional<double> parseNumber(const std::string& text) {
    double value = 0.0;
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc() || ptr != end || !std::isfinite(value)) {
      return std::nullopt;
    }
    return value;
  }

  /// Flags that size a thread pool: whole numbers >= 0 that fit an int
  /// (0 = hardware concurrency).
  static bool isThreadCount(const std::string& key) {
    return key == "threads" || key == "router-threads" || key == "workers";
  }

  /// Value of a numeric flag (checked by badFlag before the command
  /// runs), or `fallback` when the flag is absent.
  double number(const std::string& key, double fallback) const {
    const auto it = flags.find(key);
    return it == flags.end() ? fallback : parseNumber(it->second).value();
  }

  /// Describes the first flag outside `numbers` + `texts`, one left
  /// without a value, a `numbers` flag whose value is not a number, or
  /// a thread count that is not a whole number >= 0 fitting an int;
  /// empty when every flag is good.  A flag the command does not read
  /// would otherwise be dropped silently, a misspelt one would run the
  /// defaults, a non-numeric value would run as 0, and a thread count
  /// of -1 or 2.5 would be cast to a huge or truncated pool size.
  std::string badFlag(const std::vector<std::string>& numbers,
                      const std::vector<std::string>& texts) const {
    auto listed = [](const std::vector<std::string>& list,
                     const std::string& key) {
      return std::find(list.begin(), list.end(), key) != list.end();
    };
    for (const auto& [key, value] : flags) {
      if (!listed(numbers, key) && !listed(texts, key)) {
        return "unknown flag --" + key;
      }
    }
    for (const std::string& token : positional) {
      if (token.rfind("--", 0) == 0) return "flag " + token + " needs a value";
    }
    for (const auto& [key, value] : flags) {
      if (!listed(numbers, key)) continue;
      const std::optional<double> number = parseNumber(value);
      if (!number) return "flag --" + key + " needs a number";
      if (isThreadCount(key) &&
          (*number < 0 || *number != std::floor(*number) ||
           *number > std::numeric_limits<int>::max())) {
        return "flag --" + key + " needs a whole number >= 0";
      }
    }
    return {};
  }
};

db::Database loadDesign(const std::string& lefPath,
                        const std::string& defPath) {
  auto [tech, lib] = lefdef::parseLefFile(lefPath);
  db::Design design = lefdef::parseDefFile(defPath, tech, lib);
  return db::Database(std::move(tech), std::move(lib), std::move(design));
}

void printMetrics(const droute::DetailedRouteStats& stats,
                  const db::Database& db) {
  const auto metrics = eval::collectMetrics(stats);
  std::cout << "wirelength (dbu): " << metrics.wirelengthDbu << "\n"
            << "vias:             " << metrics.viaCount << "\n"
            << "shorts:           " << metrics.shorts << "\n"
            << "spacing DRVs:     " << metrics.spacing << "\n"
            << "min-area DRVs:    " << metrics.minArea << "\n"
            << "open nets:        " << metrics.openNets << "\n"
            << "contest score:    " << eval::score(metrics, db) << "\n";
}

int cmdGenerate(const Args& args) {
  if (args.positional.size() < 2) {
    std::cerr << "usage: crp generate out.lef out.def [--cells N] "
                 "[--util U] [--hotspots H] [--seed S] "
                 "[--perturb SEED,FRAC]\n";
    return 2;
  }
  // --perturb SEED,FRAC: the paired-benchmark emission (docs/eco.md).
  // Both halves are numbers, checked before anything is written.
  std::optional<bmgen::PerturbOptions> perturb;
  if (const auto it = args.flags.find("perturb"); it != args.flags.end()) {
    perturb.emplace();
    const std::size_t comma = it->second.find(',');
    const auto seed = Args::parseNumber(it->second.substr(0, comma));
    const auto frac = comma == std::string::npos
                          ? std::optional<double>(perturb->frac)
                          : Args::parseNumber(it->second.substr(comma + 1));
    if (!seed || !frac) {
      std::cerr << "crp generate: flag --perturb needs a number "
                   "(SEED or SEED,FRAC)\n";
      return 2;
    }
    perturb->seed = static_cast<std::uint64_t>(*seed);
    perturb->frac = *frac;
  }
  bmgen::BenchmarkSpec spec;
  spec.name = std::filesystem::path(args.positional[1]).stem().string();
  spec.targetCells = static_cast<int>(args.number("cells", 1000));
  spec.utilization = args.number("util", 0.85);
  spec.hotspots = static_cast<int>(args.number("hotspots", 2));
  spec.seed = static_cast<std::uint64_t>(args.number("seed", 1));
  const auto db = bmgen::generateBenchmark(spec);
  lefdef::writeLefFile(args.positional[0], db.tech(), db.library());
  lefdef::writeDefFile(args.positional[1], db);
  std::cout << "generated " << db.numCells() << " cells / " << db.numNets()
            << " nets -> " << args.positional[0] << ", "
            << args.positional[1] << "\n";
  if (perturb) {
    const db::EcoDelta delta = bmgen::perturbDesign(db, *perturb);
    std::filesystem::path deltaPath(args.positional[1]);
    deltaPath.replace_extension(".eco.json");
    std::string writeError;
    if (!util::writeFileAtomic(deltaPath.string(),
                               db::ecoDeltaToJson(delta).dump(2) + "\n",
                               &writeError)) {
      std::cerr << "error: cannot write " << deltaPath.string() << ": "
                << writeError << "\n";
      return 1;
    }
    std::cout << "eco delta (" << delta.size() << " edits, seed "
              << perturb->seed << ", frac " << perturb->frac << ") -> "
              << deltaPath.string() << "\n";
  }
  return 0;
}

int writeObsArtifacts(const Args& args, core::CrpFramework& framework);
int appendLedgerFromCli(const Args& args, const std::string& kind,
                        const db::Database& db,
                        core::CrpFramework& framework,
                        const core::CrpOptions& options);

int cmdEco(const Args& args) {
  if (args.positional.size() < 5) {
    std::cerr << "usage: crp eco in.lef in.def delta.json out.def out.guide "
                 "[--k N] [--base-k N] [--halo G] [--seed S] "
                 "[--router-threads N] [--audit off|phase|paranoid] "
                 "[--compare-scratch 1] [--report-out report.json] "
                 "[--metrics-out metrics.prom] [--ledger ledger.jsonl]\n";
    return 2;
  }
  obs::setEnabled(args.number("obs", 1) > 0);
  auto db = loadDesign(args.positional[0], args.positional[1]);
  if (!db::isPlacementLegal(db)) {
    std::cerr << "error: input placement is not legal\n";
    return 1;
  }
  const db::EcoDelta delta = db::ecoDeltaFromJson(
      obs::Json::parse(util::readFile(args.positional[2])));

  const int routerThreads =
      static_cast<int>(args.number("router-threads", 0));
  groute::GlobalRouterOptions routerOptions;
  routerOptions.routerThreads = routerThreads;
  groute::GlobalRouter router(db, routerOptions);
  router.run();

  core::CrpOptions options;
  options.iterations = static_cast<int>(args.number("base-k", 0));
  options.seed = static_cast<std::uint64_t>(args.number("seed", 1));
  options.routerThreads = routerThreads;
  if (args.flags.count("audit") != 0) {
    const auto level = check::auditLevelFromString(args.flags.at("audit"));
    if (!level) {
      std::cerr << "unknown --audit level '" << args.flags.at("audit")
                << "' (want off|phase|paranoid)\n";
      return 2;
    }
    options.auditLevel = *level;
  }
  core::CrpFramework framework(db, router, options);
  if (options.iterations > 0) framework.run();

  // Fork the pre-delta state only when the scratch comparison needs it.
  const bool compareScratch = args.number("compare-scratch", 0) > 0;
  std::optional<db::Database> scratchDb;
  if (compareScratch) scratchDb = db;

  core::EcoOptions eco;
  eco.iterations = static_cast<int>(args.number("k", 1));
  eco.haloGCells = static_cast<int>(args.number("halo", eco.haloGCells));
  const core::EcoReport report = framework.runEco(delta, eco);
  std::cout << "eco: " << delta.size() << " edits -> " << report.dirtyNets
            << " dirty nets, " << report.scopeCells << " scope cells, "
            << report.cacheEvictions << " cache evictions, "
            << report.moves << " moves, " << report.reroutes
            << " reroutes in "
            << report.totalSeconds << " s; placement legal: "
            << (db::isPlacementLegal(db) ? "yes" : "NO") << "\n";
  lefdef::writeDefFile(args.positional[3], db);
  lefdef::writeGuidesFile(args.positional[4], db, router.buildGuides());
  std::cout << "outputs -> " << args.positional[3] << ", "
            << args.positional[4] << "\n";

  if (compareScratch) {
    util::Stopwatch scratchTimer;
    db::applyEcoDelta(*scratchDb, delta);
    groute::GlobalRouter scratchRouter(*scratchDb, routerOptions);
    scratchRouter.run();
    core::CrpOptions scratchOptions = options;
    scratchOptions.iterations = eco.iterations;
    core::CrpFramework scratchFramework(*scratchDb, scratchRouter,
                                        scratchOptions);
    scratchFramework.run();
    const double scratchSeconds = scratchTimer.seconds();
    const auto ecoStats = router.stats();
    const auto scratchStats = scratchRouter.stats();
    std::cout << "scratch: " << scratchSeconds << " s ("
              << (report.totalSeconds > 0.0
                      ? scratchSeconds / report.totalSeconds
                      : 0.0)
              << "x speedup); wl eco=" << ecoStats.wirelengthDbu
              << " scratch=" << scratchStats.wirelengthDbu
              << ", vias eco=" << ecoStats.vias
              << " scratch=" << scratchStats.vias << "\n";
  }
  if (const int rc = appendLedgerFromCli(args, "eco", db, framework, options);
      rc != 0) {
    return rc;
  }
  return writeObsArtifacts(args, framework);
}

int cmdRoute(const Args& args) {
  if (args.positional.size() < 3) {
    std::cerr << "usage: crp route in.lef in.def out.guide\n";
    return 2;
  }
  const auto db = loadDesign(args.positional[0], args.positional[1]);
  groute::GlobalRouter router(db);
  const auto stats = router.run();
  lefdef::writeGuidesFile(args.positional[2], db, router.buildGuides());
  std::cout << "global route: wl=" << stats.wirelengthDbu
            << " dbu, vias=" << stats.vias << ", open nets=" << stats.openNets
            << ", overflowed edges=" << stats.overflowedEdges << "\n"
            << "guides -> " << args.positional[2] << "\n";
  return 0;
}

/// Prints the human-readable telemetry.  All phase names and counters
/// come from the RunReport itself — no literals re-typed here.
void printCrpTelemetry(core::CrpFramework& framework) {
  std::cout << obs::formatRunReport(framework.runReport());
}

/// Writes the Chrome trace and/or RunReport JSON files when the
/// corresponding --trace-out / --report-out flags were given.
int writeObsArtifacts(const Args& args, core::CrpFramework& framework) {
  // Every artifact goes through writeFileAtomic: a full disk or bad
  // path exits nonzero instead of leaving a truncated JSON that
  // downstream tooling would half-parse.
  std::string writeError;
  const auto traceIt = args.flags.find("trace-out");
  if (traceIt != args.flags.end()) {
    const bool ok = util::writeFileAtomic(
        traceIt->second,
        [&framework](std::ostream& os) -> bool {
          framework.obsContext().tracer().writeChromeTrace(os);
          return os.good();
        },
        &writeError);
    if (!ok) {
      std::cerr << "error: cannot write " << traceIt->second << ": "
                << writeError << "\n";
      return 1;
    }
    std::cout << "trace -> " << traceIt->second << "\n";
  }
  const auto reportIt = args.flags.find("report-out");
  if (reportIt != args.flags.end()) {
    if (!util::writeFileAtomic(reportIt->second,
                               framework.runReport().toJson().dump(2) + "\n",
                               &writeError)) {
      std::cerr << "error: cannot write " << reportIt->second << ": "
                << writeError << "\n";
      return 1;
    }
    std::cout << "report -> " << reportIt->second << "\n";
  }
  const auto heatmapsIt = args.flags.find("heatmaps-out");
  if (heatmapsIt != args.flags.end()) {
    if (!util::writeFileAtomic(heatmapsIt->second,
                               framework.heatmaps().toJson().dump(2) + "\n",
                               &writeError)) {
      std::cerr << "error: cannot write " << heatmapsIt->second << ": "
                << writeError << "\n";
      return 1;
    }
    std::cout << "heatmaps -> " << heatmapsIt->second << " ("
              << framework.heatmaps().size() << " snapshot(s))\n";
  }
  const auto flightIt = args.flags.find("flight-out");
  if (flightIt != args.flags.end()) {
    obs::Json trigger = obs::Json::object();
    trigger.set("source", "crp_cli");
    trigger.set("context", "flight-out");
    if (!framework.obsContext().flightRecorder().dumpToFile(
            flightIt->second, std::move(trigger))) {
      std::cerr << "error: cannot write " << flightIt->second << "\n";
      return 1;
    }
    std::cout << "flight recorder -> " << flightIt->second << "\n";
  }
  const auto metricsIt = args.flags.find("metrics-out");
  if (metricsIt != args.flags.end()) {
    // Prometheus text exposition of the run's metrics registry
    // (docs/observability.md "Operational telemetry").
    const std::string text = obs::renderPrometheus(
        framework.obsContext().metrics().snapshot(), "crp");
    if (!util::writeFileAtomic(metricsIt->second, text, &writeError)) {
      std::cerr << "error: cannot write " << metricsIt->second << ": "
                << writeError << "\n";
      return 1;
    }
    std::cout << "metrics -> " << metricsIt->second << "\n";
  }
  return 0;
}

/// --ledger FILE: appends one run-ledger entry (docs/observability.md)
/// for the finished flow.  `kind` is "run" or "eco".
int appendLedgerFromCli(const Args& args, const std::string& kind,
                        const db::Database& db,
                        core::CrpFramework& framework,
                        const core::CrpOptions& options) {
  const auto ledgerIt = args.flags.find("ledger");
  if (ledgerIt == args.flags.end()) return 0;
  obs::RunLedgerEntry entry = obs::makeRunLedgerEntry(framework.runReport());
  entry.kind = kind;
  entry.design = db.design().name;
  entry.optionsDigest =
      obs::fnv1a64Hex(core::optionsFingerprintJson(options).dump());
  obs::RunLedger ledger(ledgerIt->second);
  std::string error;
  if (!ledger.append(entry, &error)) {
    std::cerr << "error: ledger append to " << ledgerIt->second
              << " failed: " << error << "\n";
    return 1;
  }
  std::cout << "ledger += " << kind << " entry (" << entry.design << ", "
            << entry.fingerprintDigest << ") -> " << ledgerIt->second << "\n";
  return 0;
}

int cmdRun(const Args& args) {
  if (args.positional.size() < 4) {
    std::cerr << "usage: crp run in.lef in.def out.def out.guide [--k N] "
                 "[--gamma G] [--seed S] [--threads N] "
                 "[--router-threads N] [--obs 0|1] "
                 "[--audit off|phase|paranoid] "
                 "[--snapshots 0|1] "
                 "[--trace-out trace.json] "
                 "[--report-out report.json] "
                 "[--heatmaps-out series.json] "
                 "[--flight-out dump.json] [--flight-dir DIR] "
                 "[--metrics-out metrics.prom] [--ledger ledger.jsonl]\n";
    return 2;
  }
  obs::setEnabled(args.number("obs", 1) > 0);
  auto db = loadDesign(args.positional[0], args.positional[1]);
  if (!db::isPlacementLegal(db)) {
    std::cerr << "error: input placement is not legal\n";
    return 1;
  }
  // --router-threads N parallelizes the RRR rounds and the UD-phase
  // reroutes (1 = serial, 0 = hardware); value-exact, see DESIGN.md §6.
  const int routerThreads =
      static_cast<int>(args.number("router-threads", 0));
  groute::GlobalRouterOptions routerOptions;
  routerOptions.routerThreads = routerThreads;
  groute::GlobalRouter router(db, routerOptions);
  router.run();
  core::CrpOptions options;
  options.iterations = static_cast<int>(args.number("k", 10));
  options.gamma = args.number("gamma", options.gamma);
  options.seed = static_cast<std::uint64_t>(args.number("seed", 1));
  options.threads = static_cast<int>(args.number("threads", 0));
  options.routerThreads = routerThreads;
  // --audit arms the in-flow invariant audits (docs/checking.md); a
  // violation aborts the run with the structured failure list.
  if (args.flags.count("audit") != 0) {
    const auto level = check::auditLevelFromString(args.flags.at("audit"));
    if (!level) {
      std::cerr << "unknown --audit level '" << args.flags.at("audit")
                << "' (want off|phase|paranoid)\n";
      return 2;
    }
    options.auditLevel = *level;
  }
  // --snapshots arms the spatial observability tier: one heatmap after
  // GR plus one per iteration, and the RunReport timeline.
  options.snapshots = args.number("snapshots", 0) > 0;
  if (args.flags.count("flight-dir") != 0) {
    options.flightRecorderDir = args.flags.at("flight-dir");
  }
  core::CrpFramework framework(db, router, options);
  const obs::RunReport& report = framework.run();
  std::cout << "CR&P: " << options.iterations << " iterations, "
            << report.totalMoves << " moves, " << report.totalReroutes
            << " reroutes; placement legal: "
            << (db::isPlacementLegal(db) ? "yes" : "NO") << "\n";
  printCrpTelemetry(framework);
  lefdef::writeDefFile(args.positional[2], db);
  lefdef::writeGuidesFile(args.positional[3], db, router.buildGuides());
  std::cout << "outputs -> " << args.positional[2] << ", "
            << args.positional[3] << "\n";
  if (const int rc = appendLedgerFromCli(args, "run", db, framework, options);
      rc != 0) {
    return rc;
  }
  return writeObsArtifacts(args, framework);
}

int cmdDetail(const Args& args) {
  if (args.positional.size() < 3) {
    std::cerr << "usage: crp detail in.lef in.def in.guide\n";
    return 2;
  }
  const auto db = loadDesign(args.positional[0], args.positional[1]);
  const auto guides = lefdef::parseGuidesFile(args.positional[2], db.tech());
  droute::DetailedRouter detailed(db, guides);
  printMetrics(detailed.run(), db);
  return 0;
}

int cmdFlow(const Args& args) {
  if (args.positional.size() < 2) {
    std::cerr << "usage: crp flow in.lef in.def [--k N] [--obs 0|1] "
                 "[--trace-out trace.json] [--report-out report.json]\n";
    return 2;
  }
  obs::setEnabled(args.number("obs", 1) > 0);
  auto db = loadDesign(args.positional[0], args.positional[1]);
  groute::GlobalRouter router(db);
  router.run();
  std::cout << "--- baseline (GR + DR) ---\n";
  droute::DetailedRouter before(db, router.buildGuides());
  const auto beforeStats = before.run();
  printMetrics(beforeStats, db);

  core::CrpOptions options;
  options.iterations = static_cast<int>(args.number("k", 10));
  core::CrpFramework framework(db, router, options);
  framework.run();
  std::cout << "--- after CR&P (k=" << options.iterations << ") ---\n";
  printCrpTelemetry(framework);
  droute::DetailedRouter after(db, router.buildGuides());
  const auto afterStats = after.run();
  printMetrics(afterStats, db);

  std::cout << "--- improvement ---\n";
  std::cout << "wirelength: "
            << eval::improvementPercent(
                   static_cast<double>(beforeStats.wirelengthDbu),
                   static_cast<double>(afterStats.wirelengthDbu))
            << "%\n"
            << "vias:       "
            << eval::improvementPercent(
                   static_cast<double>(beforeStats.viaCount),
                   static_cast<double>(afterStats.viaCount))
            << "%\n";
  return writeObsArtifacts(args, framework);
}

int cmdCongestion(const Args& args) {
  if (args.positional.size() < 2) {
    std::cerr << "usage: crp congestion in.lef in.def [--layer L]\n";
    return 2;
  }
  const auto db = loadDesign(args.positional[0], args.positional[1]);
  groute::GlobalRouter router(db);
  router.run();
  const int layer = static_cast<int>(args.number("layer", -1));
  const auto map = groute::buildCongestionMap(router.graph(), layer);
  std::cout << "congestion map (" << map.width << "x" << map.height
            << "), mean=" << map.mean() << ", peak=" << map.peak()
            << ", hotspots=" << map.hotspotCount() << "\n";
  groute::printHeatmap(std::cout, map);
  return 0;
}

int cmdPlace(const Args& args) {
  if (args.positional.size() < 3) {
    std::cerr << "usage: crp place in.lef in.def out.def [--passes N]\n";
    return 2;
  }
  auto db = loadDesign(args.positional[0], args.positional[1]);
  dplace::DetailedPlacerOptions options;
  options.passes = static_cast<int>(args.number("passes", 2));
  dplace::DetailedPlacer placer(db, options);
  const auto report = placer.run();
  std::cout << "HPWL " << report.hpwlBefore << " -> " << report.hpwlAfter
            << " (" << report.improvementPercent() << "% better), "
            << report.swaps << " swaps, " << report.relocations
            << " relocations, " << report.reorders << " reorders\n";
  if (!db::isPlacementLegal(db)) {
    std::cerr << "internal error: placer broke legality\n";
    return 1;
  }
  lefdef::writeDefFile(args.positional[2], db);
  std::cout << "placement -> " << args.positional[2] << "\n";
  return 0;
}

int cmdSvg(const Args& args) {
  if (args.positional.size() < 3) {
    std::cerr << "usage: crp svg in.lef in.def out.svg [--routes 1] "
                 "[--congestion 1]\n";
    return 2;
  }
  const auto db = loadDesign(args.positional[0], args.positional[1]);
  viz::SvgOptions options;
  options.drawRoutes = args.number("routes", 1) > 0;
  options.drawCongestion = args.number("congestion", 0) > 0;
  if (options.drawRoutes || options.drawCongestion) {
    groute::GlobalRouter router(db);
    router.run();
    viz::writeSvgFile(args.positional[2], db, &router, options);
  } else {
    viz::writeSvgFile(args.positional[2], db, nullptr, options);
  }
  std::cout << "svg -> " << args.positional[2] << "\n";
  return 0;
}

int cmdSuite(const Args& args) {
  if (args.positional.empty()) {
    std::cerr << "usage: crp suite outdir [--scale S]\n";
    return 2;
  }
  const double scale = args.number("scale", 40.0);
  std::filesystem::create_directories(args.positional[0]);
  for (const auto& entry : bmgen::ispdLikeSuite(scale)) {
    const auto db = bmgen::generateBenchmark(entry.spec);
    // The generator promises legal output; hold it to that before the
    // files exist (a broken suite entry otherwise only surfaces when a
    // downstream run trips over it).  bmgen itself cannot link the
    // audit library (check depends on bmgen's consumers), so the
    // gatekeeping lives here in the exporter.
    const check::DbAuditor auditor(db);
    const check::AuditReport audit = auditor.auditAll();
    if (!audit.clean()) {
      std::cerr << entry.name << ": generated design fails its audit\n"
                << audit.summary() << "\n";
      return 1;
    }
    lefdef::writeLefFile(args.positional[0] + "/" + entry.name + ".lef",
                         db.tech(), db.library());
    lefdef::writeDefFile(args.positional[0] + "/" + entry.name + ".def", db);
    std::cout << entry.name << ": " << db.numCells() << " cells\n";
  }
  return 0;
}

/// The daemon under SIGTERM/SIGINT: the handler may only call the
/// async-signal-safe requestStop(), so the live server is published
/// through a plain pointer the handler reads.
serve::Server* g_server = nullptr;

void handleStopSignal(int) {
  if (g_server != nullptr) g_server->requestStop();
}

int cmdServe(const Args& args) {
  const auto socketIt = args.flags.find("socket");
  if (socketIt == args.flags.end()) {
    std::cerr << "usage: crp serve --socket PATH [--workers N] "
                 "[--max-sessions N] [--verbose 1] [--ledger FILE]\n";
    return 2;
  }
  serve::ServeOptions options;
  options.socketPath = socketIt->second;
  options.workers = static_cast<int>(args.number("workers", 0));
  options.maxSessions =
      static_cast<std::size_t>(args.number("max-sessions", 64));
  options.verbose = args.number("verbose", 0) > 0;
  const auto ledgerIt = args.flags.find("ledger");
  if (ledgerIt != args.flags.end()) options.ledgerPath = ledgerIt->second;

  serve::Server server(options);
  server.start();
  g_server = &server;
  struct sigaction action {};
  action.sa_handler = handleStopSignal;
  ::sigaction(SIGTERM, &action, nullptr);
  ::sigaction(SIGINT, &action, nullptr);
  std::cout << "crp serve: ready on " << server.socketPath() << std::endl;
  server.serve();
  g_server = nullptr;
  std::cout << "crp serve: clean shutdown (" << server.jobsCompleted()
            << " jobs)" << std::endl;
  return 0;
}

/// A subcommand and every --flag it reads; any other flag, and a
/// numeric one whose value is not a number, is rejected before the
/// command runs.
struct Command {
  const char* name;
  int (*run)(const Args&);
  std::vector<std::string> numbers;  ///< flags read through Args::number
  std::vector<std::string> texts;    ///< flags read as strings
};

/// The flags writeObsArtifacts reads, plus `extra`.
std::vector<std::string> withArtifactFlags(std::vector<std::string> extra) {
  for (const char* flag : {"trace-out", "report-out", "heatmaps-out",
                           "flight-out", "metrics-out"}) {
    extra.emplace_back(flag);
  }
  return extra;
}

const Command kCommands[] = {
    {"generate", cmdGenerate, {"cells", "util", "hotspots", "seed"},
     {"perturb"}},
    {"route", cmdRoute, {}, {}},
    {"run", cmdRun,
     {"k", "gamma", "seed", "threads", "router-threads", "obs", "snapshots"},
     withArtifactFlags({"audit", "flight-dir", "ledger"})},
    {"eco", cmdEco,
     {"k", "base-k", "halo", "seed", "router-threads", "compare-scratch",
      "obs"},
     withArtifactFlags({"audit", "ledger"})},
    {"detail", cmdDetail, {}, {}},
    {"flow", cmdFlow, {"k", "obs"}, withArtifactFlags({})},
    {"congestion", cmdCongestion, {"layer"}, {}},
    {"place", cmdPlace, {"passes"}, {}},
    {"svg", cmdSvg, {"routes", "congestion"}, {}},
    {"suite", cmdSuite, {"scale"}, {}},
    {"serve", cmdServe, {"workers", "max-sessions", "verbose"},
     {"socket", "ledger"}},
};

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: crp <generate|route|run|eco|detail|flow|place|svg|"
                 "congestion|suite|serve> ...\n";
    return 2;
  }
  const std::string command = argv[1];
  const auto it = std::find_if(
      std::begin(kCommands), std::end(kCommands),
      [&](const Command& c) { return command == c.name; });
  if (it == std::end(kCommands)) {
    std::cerr << "unknown command '" << command << "'\n";
    return 2;
  }
  const Args args = Args::parse(argc, argv, 2);
  if (const std::string bad = args.badFlag(it->numbers, it->texts);
      !bad.empty()) {
    std::cerr << "crp " << command << ": " << bad << "\n";
    return 2;
  }
  try {
    return it->run(args);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
