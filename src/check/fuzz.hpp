// Seeded differential fuzzing of the full CR&P pipeline.
//
// Each seed deterministically derives a bmgen benchmark spec, then runs
// the complete flow (generate -> global route -> CR&P iterations) under
// paired configurations that the determinism contract says are
// value-exact:
//
//   serial        router threads 1, obs on   (reference)
//   rt-N          router threads N, obs on
//   obs-off       router threads 1, obs off
//
// With FuzzOptions::ecoLeg a fourth leg (eco-vs-scratch) follows once
// the three differential legs agree: the seed's design is perturbed into
// an EcoDelta and finished both via CrpFramework::runEco and via a full
// rebuild, requiring clean audits on both sides plus quality parity
// (check/eco_equivalence.hpp) — not state equality.
//
// Every leg runs with in-flow audits armed (CrpOptions::auditLevel,
// paranoid by default here: after every phase, pricing-cache coherence
// and a bitwise re-price of every candidate by the reference pricer
// after ECC, I/O round-trips at iteration ends) plus a final
// DbAuditor::auditAll().  The legs must then agree on the state
// fingerprint (check::flowFingerprint — cell positions, routes, totals;
// obs-independent by construction), and the obs-on legs must agree on
// the RunReport fingerprint as well.
//
// A failing seed is minimized down a fixed ladder of (cells, k)
// shrinks, reported as a one-line replay command for tools/crp_fuzz
// (--replay SEED --cells N --k K), and dumped as a JSON artifact when
// an artifact directory is configured — the seed-replay workflow in
// docs/checking.md.  The obs-on legs run with spatial snapshots armed,
// so a failure's flight-recorder dump (written next to the artifact)
// carries the recent event ring plus the last congestion heatmap of
// the minimized repro.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bmgen/generator.hpp"
#include "check/audit.hpp"

namespace crp::check {

struct FuzzOptions {
  std::uint64_t seedStart = 1;
  int seedCount = 25;
  int iterations = 2;  ///< CR&P k per leg
  /// Design-size band the per-seed RNG draws from.
  int minCells = 80;
  int maxCells = 220;
  /// In-flow audit level armed on every leg.
  AuditLevel auditLevel = AuditLevel::kParanoid;
  /// Macro/blockage campaign axis: when > 0, every seed's design gets
  /// a per-seed draw of [1, macroCount] fixed macro blocks (full
  /// obstructions on the lower wire layers plus a partial layer-2
  /// routing blockage each — bmgen/generator.hpp).  0 keeps the spec
  /// RNG stream bit-identical to campaigns that predate the axis.
  int macroCount = 0;
  /// Mixed-height campaign axis: when > 0, the per-seed multi-row cell
  /// fraction is drawn from [0.05, multiRowFrac].  0 disables the draw
  /// (stream-compatible, as above).
  double multiRowFrac = 0.0;
  /// N of the rt-N leg.
  int routerThreadsVariant = 4;
  /// Shrink failing seeds down the (cells, k) ladder before reporting.
  bool minimize = true;
  /// When non-empty, failing seeds are written here as
  /// fuzz_seed_<seed>.json artifacts (directory is created on demand).
  std::string artifactDir;
  /// Fourth leg (eco-vs-scratch): perturb the post-base state into an
  /// EcoDelta, finish the job both incrementally (runEco) and from
  /// scratch, and require clean audits on both sides plus quality
  /// parity (check/eco_equivalence.hpp).  Runs after the three
  /// differential legs agree.
  bool ecoLeg = false;
};

/// Deterministic spec derivation: same (seed, options) -> same design.
bmgen::BenchmarkSpec specForSeed(std::uint64_t seed,
                                 const FuzzOptions& options);

/// Outcome of one flow leg of one seed.
struct LegResult {
  std::string name;
  bool ok = false;
  std::string error;  ///< audit summary / exception text when !ok
  std::uint64_t stateFingerprint = 0;
  std::string reportFingerprint;  ///< RunReport JSON; empty on obs-off
};

struct SeedResult {
  std::uint64_t seed = 0;
  bool passed = false;
  std::string failure;  ///< first divergence / audit failure
  std::vector<LegResult> legs;
  /// Filled for failures: the smallest reproducing configuration and
  /// the command that replays it.
  int minimizedCells = 0;
  int minimizedIterations = 0;
  std::string replayCommand;
  std::string artifactPath;  ///< written artifact, when configured
  /// Flight-recorder dump (event ring + latest heatmap) written next
  /// to the artifact; empty when no artifact directory is configured.
  std::string flightRecorderPath;
};

struct CampaignReport {
  std::vector<SeedResult> seeds;
  int seedsRun = 0;
  int seedsFailed = 0;
  bool clean() const { return seedsFailed == 0; }
  std::string summary() const;
};

/// The copy-pasteable repro for a (possibly minimized) failing seed.
/// Scenario axes change the seed's spec draw, so the command carries
/// --macros/--multi-row whenever the campaign armed them — a replay
/// without the flags would rebuild the base design instead.
std::string replayCommandFor(const FuzzOptions& options, std::uint64_t seed,
                             int cells, int iterations);

class FuzzCampaign {
 public:
  explicit FuzzCampaign(FuzzOptions options = {});

  /// Runs [seedStart, seedStart + seedCount) and reports per-seed
  /// results; failures are minimized and written as artifacts.
  CampaignReport run();

  /// Replays one seed at an explicit size — the --replay entry point.
  /// Zero/negative cells or iterations fall back to the seed's derived
  /// spec / options default.
  SeedResult replaySeed(std::uint64_t seed, int targetCells = 0,
                        int iterations = 0);

  const FuzzOptions& options() const { return options_; }

 private:
  /// One seed, all legs, at an explicit (cells, k); no
  /// minimization or artifact output.
  SeedResult runSeedAt(std::uint64_t seed, int targetCells, int iterations);

  /// Shrinks a failing seed down the ladder and fills the replay
  /// fields + artifact.
  void minimizeAndRecord(SeedResult& result);

  FuzzOptions options_;
};

}  // namespace crp::check
