// crp_report — render the spatial-observability artifacts the flow
// emits (docs/observability.md) without re-running anything.
//
//   crp_report heatmap series.json [--index I] [--layer L]
//              [--ppm out.ppm]
//       Load a delta-encoded HeatmapSeries (crp run --heatmaps-out),
//       reconstruct snapshot I (default: the latest) and print its
//       totals plus the ASCII utilisation map; --ppm additionally
//       writes a P3 image.  --layer restricts to one routing layer.
//
//   crp_report timeline report.json [--csv out.csv]
//       Load a RunReport JSON (crp run --report-out with --snapshots 1)
//       and print the per-iteration flow timeline as an aligned table;
//       --csv writes the machine-readable form.
//
//   crp_report flight dump.json [--layer L]
//       Load a flight-recorder dump (crp run --flight-out, a dirty
//       audit's --flight-dir artifact, or a crp_fuzz *_flight.json) and
//       print the trigger, the recent event ring, and the attached
//       heatmap when one was captured.
//
//   crp_report diff a.json b.json [--json out.json]
//       Structural diff of two RunReport documents (crp run
//       --report-out): fingerprint identity, QoR deltas, per-phase
//       wall-time attribution, per-iteration attribution.  Exit 0 when
//       the fingerprints are identical, 3 when they differ — so two
//       same-design/same-seed runs make a determinism gate.  (Also
//       reachable as `crp_report --diff a.json b.json`.)
//
//   crp_report ledger file.jsonl [--check 1] [--add-bench BENCH.json]
//              [--skip-dirty 1] [--tol-qor F] [--tol-perf F]
//       Operate on the run ledger (docs/observability.md).  Default:
//       list the entries.  --add-bench folds one BENCH_*.json artifact
//       in as a bench entry (numeric fields only).  --check gates the
//       newest entry of every (kind, design) series against its
//       predecessor under tolerance bands and exits nonzero on a
//       regression.  (Also reachable as `crp_report --ledger file
//       --check 1`.)
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <iomanip>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/analytics.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/heatmap.hpp"
#include "obs/json.hpp"
#include "obs/run_ledger.hpp"
#include "obs/run_report.hpp"
#include "obs/timeline.hpp"
#include "util/file_io.hpp"

namespace {

using namespace crp;

/// Minimal --flag value parser (same shape as crp_cli's).
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

  double number(const std::string& key, double fallback) const {
    const auto it = flags.find(key);
    return it == flags.end() ? fallback : std::atof(it->second.c_str());
  }
};

obs::Json loadJsonFile(const std::string& path) {
  return obs::Json::parse(util::readFile(path));
}

void printSnapshotSummary(const obs::HeatmapSnapshot& snapshot) {
  std::cout << "snapshot '" << snapshot.label << "' (iteration "
            << snapshot.iteration << "): " << snapshot.width << "x"
            << snapshot.height << " gcells, " << snapshot.numLayers
            << " layers, " << snapshot.planes.size() << " planes\n"
            << "  overflow: total=" << std::fixed << std::setprecision(2)
            << snapshot.totalOverflow << ", max=" << snapshot.maxOverflow
            << ", edges=" << snapshot.overflowedEdges << "\n";
}

int cmdHeatmap(const Args& args) {
  if (args.positional.empty()) {
    std::cerr << "usage: crp_report heatmap series.json [--index I] "
                 "[--layer L] [--ppm out.ppm]\n";
    return 2;
  }
  const obs::HeatmapSeries series =
      obs::HeatmapSeries::fromJson(loadJsonFile(args.positional[0]));
  if (series.empty()) {
    std::cerr << "error: series holds no snapshots (was the run made with "
                 "--snapshots 1 and --obs 1?)\n";
    return 1;
  }
  const int layer = static_cast<int>(args.number("layer", -1));
  const auto index = static_cast<std::size_t>(args.number(
      "index", static_cast<double>(series.size() - 1)));
  if (index >= series.size()) {
    std::cerr << "error: --index " << index << " out of range (series has "
              << series.size() << " snapshot(s))\n";
    return 1;
  }
  const obs::HeatmapSnapshot snapshot = series.snapshot(index);
  std::cout << "series: " << series.size() << " snapshot(s)\n";
  printSnapshotSummary(snapshot);
  obs::renderHeatmapAscii(std::cout, snapshot, layer);

  const auto ppmIt = args.flags.find("ppm");
  if (ppmIt != args.flags.end()) {
    util::writeFileAtomicOrThrow(ppmIt->second, [&](std::ostream& out) {
      obs::writeHeatmapPpm(out, snapshot, layer);
    });
    std::cout << "ppm -> " << ppmIt->second << "\n";
  }
  return 0;
}

int cmdTimeline(const Args& args) {
  if (args.positional.empty()) {
    std::cerr << "usage: crp_report timeline report.json [--csv out.csv]\n";
    return 2;
  }
  const obs::RunReport report =
      obs::RunReport::fromJson(loadJsonFile(args.positional[0]));
  const std::vector<obs::TimelineRecord> timeline = report.timeline();
  if (timeline.empty()) {
    // Not an error: a report without the spatial tier is a normal
    // artifact.  Explain what is (and is not) in it instead of failing
    // or emitting a header-only CSV.
    std::cout << "timeline: no records in this report ("
              << report.iterationStats.size()
              << " iteration(s) of scalar stats present)\n"
              << "hint: the timeline is captured when the run is made "
                 "with --snapshots 1 and --obs 1\n";
    if (args.flags.count("csv") != 0) {
      std::cout << "csv: skipped (no timeline records)\n";
    }
    return 0;
  }
  std::cout << obs::formatTimeline(timeline);

  const auto csvIt = args.flags.find("csv");
  if (csvIt != args.flags.end()) {
    util::writeFileAtomicOrThrow(csvIt->second, [&](std::ostream& out) {
      out << obs::timelineCsv(timeline);
    });
    std::cout << "csv -> " << csvIt->second << "\n";
  }
  return 0;
}

int cmdFlight(const Args& args) {
  if (args.positional.empty()) {
    std::cerr << "usage: crp_report flight dump.json [--layer L]\n";
    return 2;
  }
  const obs::Json dump = loadJsonFile(args.positional[0]);
  const std::int64_t version = dump.at("schemaVersion").asInt();
  if (version != obs::FlightRecorder::kSchemaVersion) {
    std::cerr << "error: unsupported flight dump schemaVersion " << version
              << "\n";
    return 1;
  }

  std::cout << "trigger: " << dump.at("trigger").dump() << "\n";
  const obs::Json& events = dump.at("events");
  std::cout << "events: " << events.asArray().size() << " held of "
            << dump.at("eventsRecorded").asUint() << " recorded (capacity "
            << dump.at("capacity").asInt() << ")\n";
  for (const obs::Json& event : events.asArray()) {
    std::cout << "  " << std::setw(6) << event.at("seq").asUint() << "  "
              << event.at("category").asString() << "/"
              << event.at("label").asString() << "  "
              << event.at("value").asInt() << "\n";
  }

  const obs::Json* heatmap = dump.find("latestHeatmap");
  if (heatmap == nullptr || !heatmap->isObject()) {
    std::cout << "no heatmap attached\n";
    return 0;
  }
  const obs::HeatmapSnapshot snapshot = obs::HeatmapSnapshot::fromJson(*heatmap);
  printSnapshotSummary(snapshot);
  obs::renderHeatmapAscii(std::cout, snapshot,
                          static_cast<int>(args.number("layer", -1)));
  return 0;
}

int cmdDiff(const Args& args) {
  if (args.positional.size() < 2) {
    std::cerr << "usage: crp_report diff a.json b.json [--json out.json]\n";
    return 2;
  }
  const obs::RunReport a =
      obs::RunReport::fromJson(loadJsonFile(args.positional[0]));
  const obs::RunReport b =
      obs::RunReport::fromJson(loadJsonFile(args.positional[1]));
  const obs::ReportDiff diff = obs::diffReports(a, b);
  std::cout << obs::formatReportDiff(diff, args.positional[0],
                                     args.positional[1]);
  const auto jsonIt = args.flags.find("json");
  if (jsonIt != args.flags.end()) {
    std::string error;
    if (!util::writeFileAtomic(jsonIt->second, diff.toJson().dump(2) + "\n",
                               &error)) {
      std::cerr << "error: cannot write " << jsonIt->second << ": " << error
                << "\n";
      return 1;
    }
    std::cout << "diff json -> " << jsonIt->second << "\n";
  }
  // Exit-code contract (docs/observability.md): identical fingerprints
  // exit 0, so `crp_report diff` doubles as a determinism gate in CI.
  return diff.fingerprintsIdentical ? 0 : 3;
}

/// True when the switch was given either as "--name 1" (the Args flag
/// form) or as a bare trailing "--name" token (which the minimal
/// parser files under positionals).
bool hasSwitch(const Args& args, const std::string& name) {
  const auto it = args.flags.find(name);
  if (it != args.flags.end()) return std::atof(it->second.c_str()) > 0;
  for (const std::string& token : args.positional) {
    if (token == "--" + name) return true;
  }
  return false;
}

int cmdLedger(const Args& args) {
  if (args.positional.empty()) {
    std::cerr << "usage: crp_report ledger file.jsonl [--check 1] "
                 "[--add-bench BENCH.json] [--skip-dirty 1] "
                 "[--tol-qor F] [--tol-perf F]\n";
    return 2;
  }
  const std::string& path = args.positional[0];

  const auto benchIt = args.flags.find("add-bench");
  if (benchIt != args.flags.end()) {
    const obs::Json doc = loadJsonFile(benchIt->second);
    obs::RunLedgerEntry entry;
    const obs::Provenance& prov = obs::collectProvenance();
    entry.kind = "bench";
    entry.design = std::filesystem::path(benchIt->second).stem().string();
    entry.unixTime = static_cast<std::uint64_t>(std::time(nullptr));
    entry.gitSha = prov.gitSha;
    entry.dirty = prov.dirty;
    entry.dirtyFiles = prov.dirtyFiles;
    entry.host = prov.host;
    entry.cpus = prov.cpus;
    // Only the flat numeric fields: nested blocks ("context", "host",
    // per-design arrays) are descriptive, not gateable.
    obs::Json metrics = obs::Json::object();
    for (const auto& [key, value] : doc.asObject()) {
      if (value.isNumber()) metrics.set(key, value);
    }
    entry.metrics = std::move(metrics);
    obs::RunLedger ledger(path);
    std::string error;
    if (!ledger.append(entry, &error)) {
      std::cerr << "error: ledger append failed: " << error << "\n";
      return 1;
    }
    std::cout << "ledger += bench entry (" << entry.design << ", "
              << entry.metrics.size() << " metric(s)) -> " << path << "\n";
    return 0;
  }

  const obs::RunLedger::LoadResult loaded = obs::RunLedger::load(path);
  if (hasSwitch(args, "check")) {
    obs::LedgerCheckOptions options;
    options.tolQorRel = args.number("tol-qor", options.tolQorRel);
    options.tolPerfRel = args.number("tol-perf", options.tolPerfRel);
    options.skipDirty = hasSwitch(args, "skip-dirty");
    const obs::LedgerCheckResult result = obs::checkLedger(loaded, options);
    std::cout << result.format();
    return result.ok ? 0 : 4;
  }

  // Default: list the entries.
  std::cout << "ledger " << path << ": " << loaded.entries.size()
            << " entr(ies)";
  if (loaded.skippedLines > 0) {
    std::cout << ", " << loaded.skippedLines << " unparseable line(s)";
  }
  std::cout << "\n";
  for (const obs::RunLedgerEntry& entry : loaded.entries) {
    std::cout << "  [" << entry.kind << "] " << entry.design << "  sha "
              << entry.gitSha.substr(0, 12)
              << (entry.dirty ? "-dirty" : "") << "  t=" << entry.unixTime;
    if (entry.kind == "bench") {
      std::cout << "  " << entry.metrics.size() << " metric(s)";
    } else {
      std::cout << "  wl=" << entry.qor.wirelengthDbu
                << " vias=" << entry.qor.vias
                << " ovf=" << entry.qor.totalOverflow << "  fp "
                << entry.fingerprintDigest;
    }
    std::cout << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: crp_report <heatmap|timeline|flight|diff|ledger> "
                 "...\n";
    return 2;
  }
  // `--diff` / `--ledger` aliases: the flag forms named in
  // docs/observability.md map onto the subcommands.
  std::string command = argv[1];
  if (command == "--diff") command = "diff";
  if (command == "--ledger") command = "ledger";
  const Args args = Args::parse(argc, argv, 2);
  try {
    if (command == "heatmap") return cmdHeatmap(args);
    if (command == "timeline") return cmdTimeline(args);
    if (command == "flight") return cmdFlight(args);
    if (command == "diff") return cmdDiff(args);
    if (command == "ledger") return cmdLedger(args);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  std::cerr << "unknown command '" << command << "'\n";
  return 2;
}
