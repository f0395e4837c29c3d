#include "probes.hpp"

#include <algorithm>
#include <numeric>
#include <random>

#include "groute/maze_route.hpp"
#include "groute/pattern_route.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace flowbench {

double tracedSeconds(crp::obs::ObsContext& context, const std::string& name,
                     std::int64_t arg) {
  double seconds = 0.0;
  for (const auto& [tid, span] : context.tracer().records()) {
    if (span.name == name && (arg < 0 || span.arg == arg)) {
      seconds += static_cast<double>(span.durNs) * 1e-9;
    }
  }
  return seconds;
}

void recordGlobalRoute(crp::obs::ObsContext& context,
                       const crp::groute::GlobalRouteStats& stats, Result& result) {
  result.set("groute.initial_s", tracedSeconds(context, "gr.initial"));
  for (int round = 0; round < 3; ++round) {
    result.set("groute.rrr_round" + std::to_string(round + 1) + "_s",
                 tracedSeconds(context, "gr.rrr_round", round));
  }
  result.set("groute.rerouted_nets", stats.reroutedNets);
  auto& metrics = context.metrics();
  const double batches = static_cast<double>(metrics.counter("gr.par.batches")->value());
  const double nets = static_cast<double>(metrics.counter("gr.par.nets")->value());
  result.set("groute.batches", batches);
  result.set("groute.batch_width", batches > 0 ? nets / batches : 0.0);
}

void recordCrp(const crp::obs::RunReport& report, Result& result) {
  for (const auto& phase : report.phases) {
    std::string name = phase.name;
    std::transform(name.begin(), name.end(), name.begin(),
                   [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
    result.set("crp." + name + "_s", phase.seconds);
  }
  int critical = 0;
  for (const auto& iteration : report.iterationStats) critical += iteration.criticalCells;
  result.set("crp.critical_cells", critical);
  result.set("crp.moves", report.totalMoves);
  result.set("crp.reroutes", report.totalReroutes);
  const double priced = static_cast<double>(report.pricing.netsPriced());
  const double reused =
      static_cast<double>(report.pricing.cacheHits + report.pricing.deltaSkips);
  result.set("crp.nets_priced", priced);
  result.set("crp.pricing_reuse", priced > 0 ? reused / priced : 0.0);
  const auto windows = report.counters.find("legalizer.windows");
  result.set("legalizer.windows",
               windows == report.counters.end() ? 0.0 : static_cast<double>(windows->second));
  result.set("ilp.solves", static_cast<double>(report.ilp.solves));
  result.set("ilp.pivots", static_cast<double>(report.ilp.lpPivots));
}

void probeGroute(const crp::groute::GlobalRouter& router, std::uint64_t seed,
                 Result& result) {
  Span span("probe.groute");
  const auto& graph = router.graph();
  const auto& db = router.database();
  volatile double sink = 0.0;

  std::vector<std::vector<crp::groute::GPoint>> terminals;
  for (crp::db::NetId net = 0; net < db.numNets(); ++net) {
    auto t = router.netTerminals(net);
    if (t.size() >= 2) terminals.push_back(std::move(t));
  }

  // wireEdgeCost over every wire edge, repeated for at least 0.2 s.
  std::int64_t edgeCalls = 0;
  const auto edgeStart = Clock::now();
  do {
    for (int layer = 0; layer < graph.numLayers(); ++layer) {
      for (int y = 0; y < graph.wireEdgeCountY(layer); ++y) {
        for (int x = 0; x < graph.wireEdgeCountX(layer); ++x) {
          sink = sink + graph.wireEdgeCost({layer, x, y});
          ++edgeCalls;
        }
      }
    }
  } while (secondsSince(edgeStart) < 0.2);
  result.set("groute.edge_cost_ns",
               secondsSince(edgeStart) * 1e9 / static_cast<double>(std::max<std::int64_t>(1, edgeCalls)));

  crp::groute::PatternRouter pattern(graph);
  const auto patternStart = Clock::now();
  for (const auto& t : terminals) sink = sink + pattern.priceTree(t);
  result.set("groute.pattern_us_per_net",
               secondsSince(patternStart) * 1e6 /
                   static_cast<double>(std::max<std::size_t>(1, terminals.size())));

  // A seeded sample of nets for the (much slower) maze router.
  std::vector<std::size_t> order(terminals.size());
  std::iota(order.begin(), order.end(), 0);
  std::mt19937_64 rng(seed);
  std::shuffle(order.begin(), order.end(), rng);
  order.resize(std::min<std::size_t>(order.size(), 200));
  crp::groute::MazeRouter maze(graph, router.options().mazeMargin);
  const auto mazeStart = Clock::now();
  for (const std::size_t i : order) sink = sink + maze.routeTree(terminals[i]).cost;
  result.set("groute.maze_ms_per_net",
               secondsSince(mazeStart) * 1e3 /
                   static_cast<double>(std::max<std::size_t>(1, order.size())));

  const auto stats = router.stats();
  result.set("groute.overflow_total", stats.totalOverflow);
  result.set("groute.overflowed_edges", stats.overflowedEdges);
}

}  // namespace flowbench
