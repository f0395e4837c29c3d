// Persistent run ledger: append-only, schema-versioned JSONL history
// of flow runs (docs/observability.md "Operational telemetry").
//
// Every BENCH_*.json used to be overwritten in place, so the repo kept
// no trajectory: nothing could answer "did this commit regress QoR or
// wall time against the last run?".  The ledger closes that gap — one
// JSON document per line, written through util::appendLineAtomic so a
// crash mid-append can only tear the final line (the loader skips torn
// lines and reports how many).  `crp run`/`crp eco` append entries when
// --ledger is given, the serve daemon appends per flow job when booted
// with --ledger, and run_bench.sh folds every BENCH_*.json in via
// `crp_report ledger --add-bench`.  `crp_report ledger --check` then
// gates the newest entry of each series against its predecessor
// (obs/analytics.hpp).
//
// Entry schema v1.  Flow entries (kind run/eco/serve-run/serve-eco)
// carry the QoR block, per-phase wall times, the pricing-cache reuse
// rate, and a 64-bit FNV-1a digest of the RunReport
// fingerprint; bench entries (kind bench) instead carry the numeric
// fields of one BENCH_*.json under "metrics".  All entries carry
// provenance: git SHA, dirty flag + dirty-file count, host name, CPU
// count, and a seconds-resolution UTC timestamp.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.hpp"
#include "obs/run_report.hpp"

namespace crp::obs {

/// 64-bit FNV-1a over `text`, rendered as 16 lowercase hex digits.
/// Platform-independent — ledger digests must compare across hosts.
std::string fnv1a64Hex(std::string_view text);

/// Where this process ran: resolved once per process and cached.
/// CRP_GIT_SHA / CRP_GIT_DIRTY_FILES environment variables win (the
/// bench scripts stamp them so every child agrees); otherwise git is
/// asked directly, and a missing git or repo yields "unknown"/clean.
struct Provenance {
  std::string gitSha;  ///< "unknown" outside a git checkout
  bool dirty = false;
  int dirtyFiles = 0;  ///< changed paths per git status --porcelain
  std::string host;
  int cpus = 0;
};
const Provenance& collectProvenance();

struct RunLedgerEntry {
  static constexpr int kSchemaVersion = 1;

  std::string kind;    ///< run | eco | serve-run | serve-eco | bench
  std::string design;  ///< design name, or the bench artifact stem
  std::uint64_t unixTime = 0;  ///< seconds since epoch at append time

  // Provenance (collectProvenance unless the caller overrides).
  std::string gitSha;
  bool dirty = false;
  int dirtyFiles = 0;
  std::string host;
  int cpus = 0;

  // Flow entries.
  std::uint64_t seed = 0;
  std::string optionsDigest;      ///< fnv1a64Hex of the options JSON
  std::string fingerprintDigest;  ///< fnv1a64Hex of RunReport::fingerprint()
  RunReport::RouterStats qor;
  std::vector<RunReport::PhaseStat> phases;  ///< flow order
  double cacheHitRate = 0.0;
  double wallSeconds = 0.0;  ///< total of the phase wall times

  /// Bench entries: the numeric fields of one BENCH_*.json (object of
  /// name -> number).  Null/absent for flow entries.
  Json metrics;

  Json toJson() const;
  /// Throws JsonError on malformed payloads or schema-version
  /// mismatch (the loader turns that into a skipped line).
  static RunLedgerEntry fromJson(const Json& json);
};

/// Fills a flow entry from a finished run: QoR, phases, cache reuse,
/// fingerprint digest, provenance, and the current wall clock.  The
/// caller sets kind/design/optionsDigest before appending.
RunLedgerEntry makeRunLedgerEntry(const RunReport& report);

/// The ledger file.  Append-only; loading never mutates.
class RunLedger {
 public:
  explicit RunLedger(std::string path) : path_(std::move(path)) {}

  const std::string& path() const { return path_; }

  /// Appends one entry as a single JSONL line (atomic, see
  /// util::appendLineAtomic).  False with *error set on I/O failure.
  bool append(const RunLedgerEntry& entry, std::string* error = nullptr);

  struct LoadResult {
    std::vector<RunLedgerEntry> entries;  ///< file order (oldest first)
    int skippedLines = 0;  ///< torn/malformed lines tolerated
  };
  /// Reads every parseable entry; a missing file is an empty ledger.
  /// Torn or malformed lines (crash artifacts) are counted, not fatal.
  static LoadResult load(const std::string& path);

 private:
  std::string path_;
};

}  // namespace crp::obs
