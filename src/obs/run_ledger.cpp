#include "obs/run_ledger.hpp"

#include <unistd.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <thread>

#include "util/file_io.hpp"

namespace crp::obs {

namespace {

/// Runs `command`, returning its trimmed stdout ("" on any failure).
/// Used only by the once-per-process provenance probe below.
std::string captureCommand(const char* command) {
  FILE* pipe = ::popen(command, "r");
  if (pipe == nullptr) return "";
  std::string out;
  std::array<char, 256> buffer;
  std::size_t n;
  while ((n = std::fread(buffer.data(), 1, buffer.size(), pipe)) > 0) {
    out.append(buffer.data(), n);
  }
  const int status = ::pclose(pipe);
  if (status != 0) return "";
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
    out.pop_back();
  }
  return out;
}

int countLines(const std::string& text) {
  if (text.empty()) return 0;
  int lines = 1;
  for (const char c : text) {
    if (c == '\n') ++lines;
  }
  return lines;
}

Provenance probeProvenance() {
  Provenance p;
  char host[256] = {};
  if (::gethostname(host, sizeof(host) - 1) == 0 && host[0] != '\0') {
    p.host = host;
  } else {
    p.host = "unknown";
  }
  p.cpus = static_cast<int>(std::thread::hardware_concurrency());
  if (p.cpus <= 0) p.cpus = 1;

  if (const char* sha = std::getenv("CRP_GIT_SHA")) {
    p.gitSha = sha;
    if (const char* dirtyFiles = std::getenv("CRP_GIT_DIRTY_FILES")) {
      p.dirtyFiles = std::atoi(dirtyFiles);
      p.dirty = p.dirtyFiles > 0;
    }
    return p;
  }
  p.gitSha = captureCommand("git rev-parse HEAD 2>/dev/null");
  if (p.gitSha.empty()) {
    p.gitSha = "unknown";
    return p;
  }
  const std::string status =
      captureCommand("git status --porcelain 2>/dev/null");
  p.dirtyFiles = countLines(status);
  p.dirty = p.dirtyFiles > 0;
  return p;
}

}  // namespace

std::string fnv1a64Hex(std::string_view text) {
  std::uint64_t hash = 14695981039346656037ull;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  char out[17];
  std::snprintf(out, sizeof(out), "%016llx",
                static_cast<unsigned long long>(hash));
  return std::string(out, 16);
}

const Provenance& collectProvenance() {
  static const Provenance provenance = probeProvenance();
  return provenance;
}

Json RunLedgerEntry::toJson() const {
  Json root = Json::object();
  root.set("schemaVersion", kSchemaVersion);
  root.set("kind", kind);
  root.set("design", design);
  root.set("unixTime", unixTime);

  Json prov = Json::object();
  prov.set("gitSha", gitSha);
  prov.set("dirty", dirty);
  prov.set("dirtyFiles", dirtyFiles);
  prov.set("host", host);
  prov.set("cpus", cpus);
  root.set("provenance", std::move(prov));

  if (kind == "bench") {
    root.set("metrics", metrics);
    return root;
  }

  root.set("seed", seed);
  root.set("optionsDigest", optionsDigest);
  root.set("fingerprint", fingerprintDigest);

  Json qorObj = Json::object();
  qorObj.set("wirelengthDbu", qor.wirelengthDbu);
  qorObj.set("vias", qor.vias);
  qorObj.set("totalOverflow", qor.totalOverflow);
  qorObj.set("overflowedEdges", qor.overflowedEdges);
  qorObj.set("openNets", qor.openNets);
  root.set("qor", std::move(qorObj));

  Json phaseObj = Json::object();
  for (const RunReport::PhaseStat& phase : phases) {
    phaseObj.set(phase.name, phase.seconds);
  }
  root.set("phases", std::move(phaseObj));

  root.set("cacheHitRate", cacheHitRate);
  root.set("wallSeconds", wallSeconds);
  return root;
}

RunLedgerEntry RunLedgerEntry::fromJson(const Json& json) {
  const std::int64_t version = json.at("schemaVersion").asInt();
  if (version != kSchemaVersion) {
    throw JsonError("unsupported ledger schemaVersion " +
                        std::to_string(version) + " (expected " +
                        std::to_string(kSchemaVersion) + ")",
                    0);
  }
  RunLedgerEntry entry;
  entry.kind = json.at("kind").asString();
  entry.design = json.at("design").asString();
  entry.unixTime = json.at("unixTime").asUint();

  const Json& prov = json.at("provenance");
  entry.gitSha = prov.at("gitSha").asString();
  entry.dirty = prov.at("dirty").asBool();
  entry.dirtyFiles = static_cast<int>(prov.at("dirtyFiles").asInt());
  entry.host = prov.at("host").asString();
  entry.cpus = static_cast<int>(prov.at("cpus").asInt());

  if (entry.kind == "bench") {
    entry.metrics = json.at("metrics");
    return entry;
  }

  entry.seed = json.at("seed").asUint();
  entry.optionsDigest = json.at("optionsDigest").asString();
  entry.fingerprintDigest = json.at("fingerprint").asString();

  const Json& qorObj = json.at("qor");
  entry.qor.wirelengthDbu = qorObj.at("wirelengthDbu").asInt();
  entry.qor.vias = qorObj.at("vias").asInt();
  entry.qor.totalOverflow = qorObj.at("totalOverflow").asDouble();
  entry.qor.overflowedEdges =
      static_cast<int>(qorObj.at("overflowedEdges").asInt());
  entry.qor.openNets = static_cast<int>(qorObj.at("openNets").asInt());

  for (const auto& [name, seconds] : json.at("phases").asObject()) {
    entry.phases.push_back({name, seconds.asDouble()});
  }

  entry.cacheHitRate = json.at("cacheHitRate").asDouble();
  entry.wallSeconds = json.at("wallSeconds").asDouble();
  return entry;
}

RunLedgerEntry makeRunLedgerEntry(const RunReport& report) {
  RunLedgerEntry entry;
  const Provenance& prov = collectProvenance();
  entry.gitSha = prov.gitSha;
  entry.dirty = prov.dirty;
  entry.dirtyFiles = prov.dirtyFiles;
  entry.host = prov.host;
  entry.cpus = prov.cpus;
  entry.unixTime = static_cast<std::uint64_t>(std::time(nullptr));

  entry.seed = report.seed;
  entry.fingerprintDigest = fnv1a64Hex(report.fingerprint().dump());
  entry.qor = report.router;
  entry.phases = report.phases;
  entry.cacheHitRate = report.pricing.hitRate();
  entry.wallSeconds = report.totalPhaseSeconds();
  return entry;
}

bool RunLedger::append(const RunLedgerEntry& entry, std::string* error) {
  return util::appendLineAtomic(path_, entry.toJson().dump(), error);
}

RunLedger::LoadResult RunLedger::load(const std::string& path) {
  LoadResult result;
  std::ifstream in(path);
  if (!in) return result;  // absent ledger == empty history
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    try {
      result.entries.push_back(RunLedgerEntry::fromJson(Json::parse(line)));
    } catch (const JsonError&) {
      // Torn tail from a crashed append, or a foreign line: skip but
      // surface the count so --check can mention it.
      ++result.skippedLines;
    }
  }
  return result;
}

}  // namespace crp::obs
