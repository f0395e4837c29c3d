// crp_fuzz — seeded differential fuzzing of the CR&P pipeline
// (docs/checking.md).
//
//   crp_fuzz [--seeds N] [--seed-start S] [--k K]
//            [--min-cells N] [--max-cells N] [--router-threads N]
//            [--level off|phase|paranoid] [--artifacts DIR]
//            [--no-minimize] [--eco 1] [--macros N] [--multi-row F]
//       Run a campaign over seeds [S, S+N).  Exit 0 when every seed
//       passes (clean audits, bit-identical fingerprints across the
//       paired configurations), 1 otherwise.  --eco 1 appends the
//       eco-vs-scratch paired leg to every seed.  --macros N draws
//       [1,N] fixed macro blocks per seed; --multi-row F draws a
//       multi-row cell fraction from [0.05,F] (docs/scenarios.md).
//
//   crp_fuzz --replay SEED [--cells N] [--k K] [...]
//       Re-run one seed, optionally at a minimized size — the command
//       a failed campaign prints and writes into its artifacts.
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "check/fuzz.hpp"

namespace {

using namespace crp;

/// Minimal --flag value parser (same shape as crp_cli's).
struct Args {
  std::vector<std::string> positional;
  std::map<std::string, std::string> flags;

  static Args parse(int argc, char** argv) {
    Args args;
    for (int i = 1; i < argc; ++i) {
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
  bool has(const std::string& key) const { return flags.count(key) != 0; }
};

void printSeedFailure(const check::SeedResult& result) {
  std::cerr << "seed " << result.seed << " FAILED ("
            << result.minimizedCells << " cells, k="
            << result.minimizedIterations << "): " << result.failure << "\n";
  for (const check::LegResult& leg : result.legs) {
    std::cerr << "  leg " << leg.name << ": "
              << (leg.ok ? "ok" : "failed") << ", state fingerprint "
              << leg.stateFingerprint << "\n";
    if (!leg.error.empty()) std::cerr << "    " << leg.error << "\n";
  }
  if (!result.replayCommand.empty()) {
    std::cerr << "  replay: " << result.replayCommand << "\n";
  }
  if (!result.artifactPath.empty()) {
    std::cerr << "  artifact: " << result.artifactPath << "\n";
  }
  if (!result.flightRecorderPath.empty()) {
    std::cerr << "  flight recorder: " << result.flightRecorderPath << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = Args::parse(argc, argv);
  // Flags that take a value but arrived without one land in positional;
  // anything positional is a usage error for this tool.
  if (!args.positional.empty()) {
    std::cerr << "unexpected argument: " << args.positional.front() << "\n"
              << "usage: crp_fuzz [--seeds N] [--seed-start S] [--k K]\n"
              << "                [--min-cells N] [--max-cells N]\n"
              << "                [--router-threads N] [--artifacts DIR]\n"
              << "                [--level off|phase|paranoid]\n"
              << "                [--macros N] [--multi-row F]\n"
              << "                [--no-minimize 1] [--eco 1] [--replay SEED "
                 "[--cells N]]\n";
    return 2;
  }

  check::FuzzOptions options;
  options.seedStart = static_cast<std::uint64_t>(args.number("seed-start", 1));
  options.seedCount = static_cast<int>(args.number("seeds", 25));
  options.iterations = static_cast<int>(args.number("k", 2));
  options.minCells = static_cast<int>(args.number("min-cells", 80));
  options.maxCells = static_cast<int>(args.number("max-cells", 220));
  options.routerThreadsVariant =
      static_cast<int>(args.number("router-threads", 4));
  options.minimize = !args.has("no-minimize");
  options.ecoLeg = args.number("eco", 0) != 0;
  options.macroCount = static_cast<int>(args.number("macros", 0));
  options.multiRowFrac = args.number("multi-row", 0.0);
  if (args.has("artifacts")) options.artifactDir = args.flags.at("artifacts");
  if (args.has("level")) {
    const auto level = check::auditLevelFromString(args.flags.at("level"));
    if (!level) {
      std::cerr << "unknown --level " << args.flags.at("level")
                << " (want off|phase|paranoid)\n";
      return 2;
    }
    options.auditLevel = *level;
  }

  check::FuzzCampaign campaign(options);

  if (args.has("replay")) {
    const auto seed = static_cast<std::uint64_t>(args.number("replay", 0));
    const int cells = static_cast<int>(args.number("cells", 0));
    const check::SeedResult result =
        campaign.replaySeed(seed, cells, options.iterations);
    if (result.passed) {
      std::cout << "seed " << seed << " passed ("
                << result.minimizedCells << " cells, k="
                << result.minimizedIterations << ", fingerprint "
                << result.legs.front().stateFingerprint << ")\n";
      return 0;
    }
    printSeedFailure(result);
    return 1;
  }

  const check::CampaignReport report = campaign.run();
  std::cout << report.summary() << "\n";
  for (const check::SeedResult& seed : report.seeds) {
    if (!seed.passed) printSeedFailure(seed);
  }
  return report.clean() ? 0 : 1;
}
