// Micro-benchmarks (google-benchmark) for the computational kernels:
// RSMT construction, LP/ILP solves, pattern routing, maze routing,
// legalizer candidate generation and LEF/DEF parsing.  These document
// component throughput and guard against performance regressions.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <sstream>

#include "bmgen/generator.hpp"
#include "crp/candidate_generation.hpp"
#include "crp/framework.hpp"
#include "groute/global_router.hpp"
#include "groute/maze_route.hpp"
#include "groute/pattern_route.hpp"
#include "ilp/solver.hpp"
#include "lefdef/def_parser.hpp"
#include "lefdef/def_writer.hpp"
#include "lefdef/lef_parser.hpp"
#include "lefdef/lef_writer.hpp"
#include "legalizer/ilp_legalizer.hpp"
#include "obs/obs.hpp"
#include "rsmt/steiner.hpp"
#include "util/rng.hpp"

namespace {

using namespace crp;

// ---- RSMT ------------------------------------------------------------------

void BM_RsmtBuild(benchmark::State& state) {
  const int numPins = static_cast<int>(state.range(0));
  util::Rng rng(7);
  std::vector<geom::Point> pins;
  for (int i = 0; i < numPins; ++i) {
    pins.push_back({rng.uniformInt(0, 10000), rng.uniformInt(0, 10000)});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(rsmt::buildSteinerTree(pins));
  }
}
BENCHMARK(BM_RsmtBuild)->Arg(3)->Arg(5)->Arg(10)->Arg(20)->Arg(40);

// ---- ILP -------------------------------------------------------------------

void BM_IlpLegalizerShaped(benchmark::State& state) {
  const int slots = static_cast<int>(state.range(0));
  util::Rng rng(11);
  ilp::Model model;
  std::vector<std::vector<int>> vars(3, std::vector<int>(slots));
  for (int c = 0; c < 3; ++c) {
    for (int s = 0; s < slots; ++s) {
      vars[c][s] = model.addBinary(rng.uniform(0.0, 100.0));
    }
  }
  for (int c = 0; c < 3; ++c) model.addOneHot(vars[c]);
  for (int s = 0; s < slots; ++s) {
    model.addPacking({vars[0][s], vars[1][s], vars[2][s]});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ilp::solveIlp(model));
  }
}
BENCHMARK(BM_IlpLegalizerShaped)->Arg(20)->Arg(50)->Arg(100);

// ---- routing fixtures ----------------------------------------------------------

struct RoutingFixture {
  RoutingFixture()
      : db([] {
          bmgen::BenchmarkSpec spec;
          spec.name = "micro";
          spec.targetCells = 600;
          spec.hotspots = 1;
          spec.seed = 3;
          return bmgen::generateBenchmark(spec);
        }()),
        graph(db) {}
  db::Database db;
  groute::RoutingGraph graph;
};

RoutingFixture& fixture() {
  static RoutingFixture instance;
  return instance;
}

void BM_PatternRouteTwoPin(benchmark::State& state) {
  auto& f = fixture();
  groute::PatternRouter router(f.graph);
  const int spanX = f.graph.grid().countX() - 2;
  const int spanY = f.graph.grid().countY() - 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(router.routeTwoPin(
        groute::GPoint{0, 1, 1}, groute::GPoint{0, spanX, spanY}));
  }
}
BENCHMARK(BM_PatternRouteTwoPin);

void BM_PatternRouteTree(benchmark::State& state) {
  auto& f = fixture();
  groute::PatternRouter router(f.graph);
  util::Rng rng(9);
  std::vector<groute::GPoint> terminals;
  for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
    terminals.push_back(groute::GPoint{
        0, static_cast<int>(rng.uniformInt(0, f.graph.grid().countX() - 1)),
        static_cast<int>(rng.uniformInt(0, f.graph.grid().countY() - 1))});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(router.routeTree(terminals));
  }
}
BENCHMARK(BM_PatternRouteTree)->Arg(3)->Arg(8)->Arg(16);

void BM_MazeRouteTwoPin(benchmark::State& state) {
  auto& f = fixture();
  groute::MazeRouter maze(f.graph);
  const int spanX = f.graph.grid().countX() - 2;
  const int spanY = f.graph.grid().countY() - 2;
  const std::vector<groute::GPoint> terminals{
      groute::GPoint{0, 1, 1}, groute::GPoint{0, spanX, spanY}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(maze.routeTree(terminals));
  }
}
BENCHMARK(BM_MazeRouteTwoPin);

/// A 6-pin net inside a 5x5-gcell window at the die center, routed
/// against the fixture graph after GlobalRouter::run: the congested,
/// many-sink case rip-up-and-reroute and CR&P's reroutes search.
void BM_MazeRouteLocalNetRouted(benchmark::State& state) {
  struct Routed {
    Routed() : router(fixture().db) { router.run(); }
    groute::GlobalRouter router;
  };
  static Routed routed;
  const groute::RoutingGraph& graph = routed.router.graph();
  groute::MazeRouter maze(graph, routed.router.options().mazeMargin);
  const int cx = graph.grid().countX() / 2;
  const int cy = graph.grid().countY() / 2;
  util::Rng rng(13);
  std::vector<groute::GPoint> terminals;
  for (int i = 0; i < 6; ++i) {
    terminals.push_back(
        groute::GPoint{0, cx + static_cast<int>(rng.uniformInt(-2, 2)),
                       cy + static_cast<int>(rng.uniformInt(-2, 2))});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(maze.routeTree(terminals));
  }
}
BENCHMARK(BM_MazeRouteLocalNetRouted);

void BM_GlobalRouteFull(benchmark::State& state) {
  auto& f = fixture();
  for (auto _ : state) {
    groute::GlobalRouter router(f.db);
    benchmark::DoNotOptimize(router.run());
  }
}
BENCHMARK(BM_GlobalRouteFull)->Unit(benchmark::kMillisecond);

// ---- ECC pricing engine ----------------------------------------------------

// One ECC phase over a fixed candidate set on the generated 600-cell
// benchmark: every 3rd cell is treated as critical (the paper's gamma
// defaults to 0.6, so dense critical sets are the common case).
// BM_EccPriceCandidates runs the incremental engine,
// BM_EccReferencePricer the reference (estimateCandidateCost per
// candidate) over the same candidates; the acceptance target is the
// engine >= 3x faster (scripts/run_bench.sh compares the two rows into
// BENCH_micro.json).
struct EccFixture {
  EccFixture() : router(fixture().db) {
    router.run();
    std::vector<db::CellId> critical;
    for (db::CellId c = 0; c < fixture().db.numCells(); c += 3) {
      critical.push_back(c);
    }
    const legalizer::IlpLegalizer legalizer(fixture().db);
    candidates =
        core::buildCandidates(fixture().db, legalizer, critical, nullptr);
  }
  groute::GlobalRouter router;
  std::vector<core::CellCandidates> candidates;
};

EccFixture& eccFixture() {
  static EccFixture instance;
  return instance;
}

void BM_EccPriceCandidates(benchmark::State& state) {
  auto& f = eccFixture();
  obs::PricingStats stats;
  for (auto _ : state) {
    stats = obs::PricingStats{};
    core::PricingCache cache;  // fresh per iteration: no cross-run reuse
    core::priceCandidates(fixture().db, f.router, f.candidates, nullptr,
                          cache, &stats);
    benchmark::DoNotOptimize(f.candidates);
  }
  state.counters["nets_priced"] =
      benchmark::Counter(static_cast<double>(stats.netsPriced()));
  state.counters["pattern_routes"] =
      benchmark::Counter(static_cast<double>(stats.cacheMisses));
  state.counters["reuse_rate"] = benchmark::Counter(
      stats.netsPriced() == 0
          ? 0.0
          : 1.0 - static_cast<double>(stats.cacheMisses) /
                      static_cast<double>(stats.netsPriced()));
}
BENCHMARK(BM_EccPriceCandidates)->Unit(benchmark::kMillisecond);

void BM_EccReferencePricer(benchmark::State& state) {
  auto& f = eccFixture();
  const groute::PatternRouter pattern(f.router.graph());
  groute::PatternRouter::Scratch scratch;
  for (auto _ : state) {
    for (core::CellCandidates& cc : f.candidates) {
      for (core::Candidate& candidate : cc.candidates) {
        candidate.routeCost = core::estimateCandidateCost(
            fixture().db, f.router, pattern, cc.cell, candidate, scratch);
      }
    }
    benchmark::DoNotOptimize(f.candidates);
  }
}
BENCHMARK(BM_EccReferencePricer)->Unit(benchmark::kMillisecond);

// ---- UD batch reroute ------------------------------------------------------

// One UD-phase reroute wave on a private 2400-cell design with a
// fine gcell grid (~48x48 — the stock 600-cell spec only has ~5x5
// gcells, where every conflict rect overlaps and no batch parallelism
// can exist): shift every 9th cell a few gcells sideways — the local
// moves the UD phase actually commits — then batch-reroute the
// affected nets with Arg(0) router threads.  The shift alternates
// sign, so the placement (and with it the workload) is stationary
// across iteration pairs.  The batch plan and the resulting routes
// are identical at every thread count (determinism contract); only
// the wall clock may differ.  scripts/run_bench.sh distills the
// threads:1 vs threads:8 rows into BENCH_parallel_rrr.json.
struct UdRerouteFixture {
  static constexpr geom::Coord kShift = 200;  // 4 gcells

  UdRerouteFixture()
      : db([] {
          bmgen::BenchmarkSpec spec;
          spec.name = "ud";
          spec.targetCells = 2400;
          spec.gcellSize = 50;
          spec.hotspots = 1;
          spec.seed = 3;
          return bmgen::generateBenchmark(spec);
        }()) {
    const geom::Rect die = db.design().dieArea;
    for (db::CellId c = 0; c < db.numCells(); c += 9) {
      // Only cells with room to shift right, so +kShift / -kShift is
      // an exact involution.
      if (db.cell(c).pos.x + db.macroOf(c).width + kShift <= die.xhi) {
        cells.push_back(c);
      }
    }
    for (const db::CellId c : cells) {
      for (const db::NetId n : db.netsOfCell(c)) affected.push_back(n);
    }
    std::sort(affected.begin(), affected.end());
    affected.erase(std::unique(affected.begin(), affected.end()),
                   affected.end());
  }
  void shiftCells() {
    for (const db::CellId c : cells) {
      geom::Point pos = db.cell(c).pos;
      pos.x += shift;
      db.moveCell(c, pos);
    }
    shift = -shift;
  }
  db::Database db;
  std::vector<db::CellId> cells;
  std::vector<db::NetId> affected;
  geom::Coord shift = kShift;
};

UdRerouteFixture& udFixture() {
  static UdRerouteFixture instance;
  return instance;
}

void BM_UdBatchReroute(benchmark::State& state) {
  auto& f = udFixture();
  groute::GlobalRouterOptions options;
  options.mazeMargin = 1;  // tight conflict rects: multi-net batches
  options.routerThreads = static_cast<int>(state.range(0));
  groute::GlobalRouter router(f.db, options);
  router.run();
  groute::RerouteBatchStats last;
  for (auto _ : state) {
    state.PauseTiming();
    f.shiftCells();
    state.ResumeTiming();
    last = router.rerouteNets(f.affected);
    benchmark::DoNotOptimize(last);
  }
  state.counters["nets"] =
      benchmark::Counter(static_cast<double>(last.nets));
  state.counters["batches"] =
      benchmark::Counter(static_cast<double>(last.batches));
  state.counters["conflicts"] =
      benchmark::Counter(static_cast<double>(last.conflicts));
  state.counters["failed"] =
      benchmark::Counter(static_cast<double>(last.failed));
}
BENCHMARK(BM_UdBatchReroute)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

// ---- spatial observability overhead ----------------------------------------

// One full CR&P iteration (k=1) on the 600-cell benchmark with the
// spatial tier off vs on.  The timed region covers framework
// construction (which captures the post-GR snapshot when armed)
// through run(), so the snapshots:1 row pays for two heatmap captures,
// the delta encoding, and the timeline bookkeeping; snapshots:0 is the
// PR-2 era hot path and must stay within noise of it.
// scripts/run_bench.sh distills both rows into BENCH_obs_spatial.json.
void BM_CrpIterationSpatial(benchmark::State& state) {
  obs::EnabledScope enabled(true);
  const bool snapshots = state.range(0) != 0;
  std::size_t heatmaps = 0;
  for (auto _ : state) {
    state.PauseTiming();
    obs::currentContext().reset();
    bmgen::BenchmarkSpec spec;
    spec.name = "micro";
    spec.targetCells = 600;
    spec.hotspots = 2;
    spec.seed = 7;
    db::Database db = bmgen::generateBenchmark(spec);
    groute::GlobalRouter router(db);
    router.run();
    core::CrpOptions options;
    options.iterations = 1;
    options.snapshots = snapshots;
    state.ResumeTiming();
    core::CrpFramework framework(db, router, options);
    benchmark::DoNotOptimize(framework.run());
    heatmaps = framework.heatmaps().size();
  }
  state.counters["heatmaps"] =
      benchmark::Counter(static_cast<double>(heatmaps));
}
BENCHMARK(BM_CrpIterationSpatial)
    ->ArgName("snapshots")
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

// ---- legalizer -------------------------------------------------------------

void BM_LegalizerGenerate(benchmark::State& state) {
  auto& f = fixture();
  legalizer::IlpLegalizer legalizer(f.db);
  int cell = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(legalizer.generate(cell));
    cell = (cell + 7) % f.db.numCells();
  }
}
BENCHMARK(BM_LegalizerGenerate);

// ---- LEF/DEF ---------------------------------------------------------------

void BM_DefParse(benchmark::State& state) {
  auto& f = fixture();
  std::ostringstream out;
  lefdef::writeDef(out, f.db);
  const std::string text = out.str();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        lefdef::parseDef(text, f.db.tech(), f.db.library()));
  }
  state.SetBytesProcessed(static_cast<long>(state.iterations()) *
                          static_cast<long>(text.size()));
}
BENCHMARK(BM_DefParse)->Unit(benchmark::kMillisecond);

void BM_LefParse(benchmark::State& state) {
  auto& f = fixture();
  std::ostringstream out;
  lefdef::writeLef(out, f.db.tech(), f.db.library());
  const std::string text = out.str();
  for (auto _ : state) {
    benchmark::DoNotOptimize(lefdef::parseLef(text));
  }
  state.SetBytesProcessed(static_cast<long>(state.iterations()) *
                          static_cast<long>(text.size()));
}
BENCHMARK(BM_LefParse);

}  // namespace

BENCHMARK_MAIN();
