#include "obs/run_report.hpp"

#include <iomanip>
#include <sstream>

namespace crp::obs {

namespace {

/// Reads a required integer field, throwing JsonError when absent.
std::int64_t intField(const Json& obj, std::string_view key) {
  return obj.at(key).asInt();
}

std::uint64_t uintField(const Json& obj, std::string_view key) {
  return obj.at(key).asUint();
}

double doubleField(const Json& obj, std::string_view key) {
  return obj.at(key).asDouble();
}

/// Sets "iterations_detail" (every record's scalar summary) and, when
/// any record was captured, "timeline" (the captured ones in full).
void setIterationRecords(Json& root,
                         const std::vector<TimelineRecord>& records) {
  Json iterArr = Json::array();
  Json timelineArr = Json::array();
  for (const TimelineRecord& record : records) {
    Json i = Json::object();
    i.set("criticalCells", record.criticalCells);
    i.set("movedCells", record.movedCells);
    i.set("displacedCells", record.displacedCells);
    i.set("reroutedNets", record.reroutedNets);
    i.set("selectedCost", record.selectedCost);
    i.set("netsPriced", record.netsPriced);
    iterArr.append(std::move(i));
    if (record.overflowCaptured) timelineArr.append(record.toJson());
  }
  root.set("iterations_detail", std::move(iterArr));
  if (!timelineArr.asArray().empty()) {
    root.set("timeline", std::move(timelineArr));
  }
}

}  // namespace

double RunReport::phaseSeconds(const std::string& name) const {
  for (const PhaseStat& phase : phases) {
    if (phase.name == name) return phase.seconds;
  }
  return 0.0;
}

double RunReport::totalPhaseSeconds() const {
  double total = 0.0;
  for (const PhaseStat& phase : phases) total += phase.seconds;
  return total;
}

std::vector<TimelineRecord> RunReport::timeline() const {
  std::vector<TimelineRecord> captured;
  for (const TimelineRecord& record : iterationStats) {
    if (record.overflowCaptured) captured.push_back(record);
  }
  return captured;
}

Json RunReport::toJson() const {
  Json root = Json::object();
  root.set("schemaVersion", kSchemaVersion);

  Json config = Json::object();
  config.set("iterations", iterations);
  config.set("threads", threads);
  config.set("seed", seed);
  root.set("config", std::move(config));

  Json phaseArr = Json::array();
  for (const PhaseStat& phase : phases) {
    Json p = Json::object();
    p.set("name", phase.name);
    p.set("seconds", phase.seconds);
    phaseArr.append(std::move(p));
  }
  root.set("phases", std::move(phaseArr));

  setIterationRecords(root, iterationStats);

  Json pricingObj = Json::object();
  pricingObj.set("cacheHits", pricing.cacheHits);
  pricingObj.set("cacheMisses", pricing.cacheMisses);
  pricingObj.set("deltaSkips", pricing.deltaSkips);
  pricingObj.set("netsPriced", pricing.netsPriced());
  root.set("pricing", std::move(pricingObj));

  Json ilpObj = Json::object();
  ilpObj.set("solves", ilp.solves);
  ilpObj.set("nodes", ilp.nodes);
  ilpObj.set("lpCalls", ilp.lpCalls);
  ilpObj.set("lpPivots", ilp.lpPivots);
  root.set("ilp", std::move(ilpObj));

  Json routerObj = Json::object();
  routerObj.set("wirelengthDbu", router.wirelengthDbu);
  routerObj.set("vias", router.vias);
  routerObj.set("totalOverflow", router.totalOverflow);
  routerObj.set("overflowedEdges", router.overflowedEdges);
  routerObj.set("openNets", router.openNets);
  routerObj.set("reroutedNets", router.reroutedNets);
  root.set("router", std::move(routerObj));

  Json totals = Json::object();
  totals.set("moves", totalMoves);
  totals.set("reroutes", totalReroutes);
  root.set("totals", std::move(totals));

  Json counterObj = Json::object();
  for (const auto& [name, value] : counters) counterObj.set(name, value);
  root.set("counters", std::move(counterObj));

  return root;
}

RunReport RunReport::fromJson(const Json& json) {
  const std::int64_t version = intField(json, "schemaVersion");
  if (version != kSchemaVersion) {
    throw JsonError("unsupported RunReport schemaVersion " +
                        std::to_string(version) + " (expected " +
                        std::to_string(kSchemaVersion) + ")",
                    0);
  }

  RunReport report;
  const Json& config = json.at("config");
  report.iterations = static_cast<int>(intField(config, "iterations"));
  report.threads = static_cast<int>(intField(config, "threads"));
  report.seed = uintField(config, "seed");

  for (const Json& p : json.at("phases").asArray()) {
    PhaseStat phase;
    phase.name = p.at("name").asString();
    phase.seconds = doubleField(p, "seconds");
    report.phases.push_back(std::move(phase));
  }

  for (const Json& i : json.at("iterations_detail").asArray()) {
    TimelineRecord record;
    record.iteration = static_cast<int>(report.iterationStats.size());
    record.criticalCells = static_cast<int>(intField(i, "criticalCells"));
    record.movedCells = static_cast<int>(intField(i, "movedCells"));
    record.displacedCells = static_cast<int>(intField(i, "displacedCells"));
    record.reroutedNets = static_cast<int>(intField(i, "reroutedNets"));
    record.selectedCost = doubleField(i, "selectedCost");
    record.netsPriced = uintField(i, "netsPriced");
    report.iterationStats.push_back(record);
  }

  // A timeline entry is the full form of the iterations_detail entry
  // with the same iteration number (captures may start late, e.g. when
  // the obs gate was switched on mid-run).
  if (const Json* timelineArr = json.find("timeline")) {
    for (const Json& entry : timelineArr->asArray()) {
      const TimelineRecord record = TimelineRecord::fromJson(entry);
      const auto index = static_cast<std::size_t>(record.iteration);
      if (record.iteration < 0 || index >= report.iterationStats.size()) {
        throw JsonError("timeline entry without an iterations_detail entry",
                        0);
      }
      report.iterationStats[index] = record;
    }
  }

  const Json& pricingObj = json.at("pricing");
  report.pricing.cacheHits = uintField(pricingObj, "cacheHits");
  report.pricing.cacheMisses = uintField(pricingObj, "cacheMisses");
  report.pricing.deltaSkips = uintField(pricingObj, "deltaSkips");

  const Json& ilpObj = json.at("ilp");
  report.ilp.solves = uintField(ilpObj, "solves");
  report.ilp.nodes = uintField(ilpObj, "nodes");
  report.ilp.lpCalls = uintField(ilpObj, "lpCalls");
  report.ilp.lpPivots = uintField(ilpObj, "lpPivots");

  const Json& routerObj = json.at("router");
  report.router.wirelengthDbu = intField(routerObj, "wirelengthDbu");
  report.router.vias = intField(routerObj, "vias");
  report.router.totalOverflow = doubleField(routerObj, "totalOverflow");
  report.router.overflowedEdges =
      static_cast<int>(intField(routerObj, "overflowedEdges"));
  report.router.openNets = static_cast<int>(intField(routerObj, "openNets"));
  report.router.reroutedNets =
      static_cast<int>(intField(routerObj, "reroutedNets"));

  const Json& totals = json.at("totals");
  report.totalMoves = static_cast<int>(intField(totals, "moves"));
  report.totalReroutes = static_cast<int>(intField(totals, "reroutes"));

  for (const auto& [name, value] : json.at("counters").asObject()) {
    report.counters[name] = value.asUint();
  }

  return report;
}

Json RunReport::fingerprint() const {
  // Deterministic across thread counts: event-set totals, moves and
  // costs (PR 1's value-exact pricing engine), final router state.
  // Excluded: wall-clock seconds, cache hit/miss split (races),
  // thread count itself (the fingerprint must match across --threads).
  Json fp = Json::object();
  fp.set("schemaVersion", kFingerprintVersion);
  fp.set("iterations", iterations);
  fp.set("seed", seed);

  // Timeline records are deterministic end to end (damping draws come
  // from the seeded serial RNG; overflow/displacement are value-exact
  // across thread counts), so they join the fingerprint whenever
  // present.  Absent when snapshots are off, which keeps pre-spatial
  // golden fingerprints byte-identical.
  setIterationRecords(fp, iterationStats);

  fp.set("netsPriced", pricing.netsPriced());
  fp.set("ilpSolves", ilp.solves);
  fp.set("ilpNodes", ilp.nodes);
  fp.set("lpCalls", ilp.lpCalls);
  fp.set("lpPivots", ilp.lpPivots);

  Json routerObj = Json::object();
  routerObj.set("wirelengthDbu", router.wirelengthDbu);
  routerObj.set("vias", router.vias);
  routerObj.set("totalOverflow", router.totalOverflow);
  routerObj.set("overflowedEdges", router.overflowedEdges);
  routerObj.set("openNets", router.openNets);
  fp.set("router", std::move(routerObj));

  fp.set("moves", totalMoves);
  fp.set("reroutes", totalReroutes);
  return fp;
}

std::string formatRunReport(const RunReport& report) {
  std::ostringstream os;
  os << "CR&P telemetry\n";
  os << "  iterations: " << report.iterations
     << "  threads: " << report.threads << "  seed: " << report.seed << "\n";

  os << "  phase wall times:\n";
  const double total = report.totalPhaseSeconds();
  for (const RunReport::PhaseStat& phase : report.phases) {
    const double share = total > 0.0 ? 100.0 * phase.seconds / total : 0.0;
    os << "    " << std::left << std::setw(4) << phase.name << std::right
       << std::fixed << std::setprecision(3) << std::setw(9) << phase.seconds
       << " s  (" << std::setprecision(1) << std::setw(5) << share << "%)\n";
  }
  os << "    total" << std::fixed << std::setprecision(3) << std::setw(8)
     << total << " s\n";

  os << "  moves: " << report.totalMoves
     << "  reroutes: " << report.totalReroutes << "\n";

  os << "  pricing: " << report.pricing.netsPriced() << " nets priced, "
     << report.pricing.cacheHits << " hits, " << report.pricing.cacheMisses
     << " misses, " << report.pricing.deltaSkips << " delta skips ("
     << std::fixed << std::setprecision(1) << 100.0 * report.pricing.hitRate()
     << "% reuse)\n";

  os << "  ilp: " << report.ilp.solves << " solves, " << report.ilp.nodes
     << " nodes, " << report.ilp.lpCalls << " LPs, " << report.ilp.lpPivots
     << " pivots\n";

  os << "  route: wl=" << report.router.wirelengthDbu
     << " dbu, vias=" << report.router.vias << ", overflow=" << std::fixed
     << std::setprecision(2) << report.router.totalOverflow << " ("
     << report.router.overflowedEdges
     << " edges), open=" << report.router.openNets << "\n";
  return os.str();
}

}  // namespace crp::obs
