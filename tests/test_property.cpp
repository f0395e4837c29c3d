// Cross-module property sweeps: randomized invariants that tie the
// substrates together (demand conservation, router output validity,
// guide coverage, LP/ILP bounding, DEF idempotence).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <sstream>

#include "bmgen/generator.hpp"
#include "groute/congestion_report.hpp"
#include "groute/global_router.hpp"
#include "groute/maze_route.hpp"
#include "groute/pattern_route.hpp"
#include "eval/evaluator.hpp"
#include "ilp/solver.hpp"
#include "lefdef/def_parser.hpp"
#include "lefdef/def_writer.hpp"
#include "legalizer/ilp_legalizer.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace crp {
namespace {

using groute::GPoint;
using groute::NetRoute;
using groute::RouteSegment;
using groute::RoutingGraph;

// ---- demand conservation --------------------------------------------------

// Applying random routes and removing them in a different order must
// return every counter to zero (the CR&P UD phase depends on this).
TEST(PropertyDemand, ApplyRemoveConservation) {
  const auto db = crp::testing::makeTinyDatabase();
  RoutingGraph graph(db);
  util::Rng rng(404);

  std::vector<NetRoute> routes;
  for (int r = 0; r < 50; ++r) {
    NetRoute route;
    route.routed = true;
    const int layer = static_cast<int>(rng.uniformInt(0, 3));
    const bool horizontal =
        graph.layerDir(layer) == db::LayerDir::kHorizontal;
    const int x0 = static_cast<int>(rng.uniformInt(0, 8));
    const int y0 = static_cast<int>(rng.uniformInt(0, 3));
    if (horizontal) {
      route.segments.push_back(
          {GPoint{layer, x0, y0},
           GPoint{layer, static_cast<int>(rng.uniformInt(x0, 9)), y0}});
    } else {
      route.segments.push_back(
          {GPoint{layer, x0, y0},
           GPoint{layer, x0, static_cast<int>(rng.uniformInt(y0, 4))}});
    }
    // A via stack too.
    route.segments.push_back(
        {GPoint{0, x0, y0},
         GPoint{static_cast<int>(rng.uniformInt(1, 3)), x0, y0}});
    graph.applyRoute(route, +1);
    routes.push_back(std::move(route));
  }
  // Remove in shuffled order.
  for (std::size_t i = routes.size(); i > 1; --i) {
    std::swap(routes[i - 1],
              routes[static_cast<std::size_t>(rng.uniformInt(0, i - 1))]);
  }
  for (const NetRoute& route : routes) graph.applyRoute(route, -1);

  // Zero residual demand == the graph diffs clean against an empty
  // route set (every edge/node counter plus the totals, via DbAuditor's
  // demand-exactness building block).
  check::AuditReport report;
  check::auditDemandAgainstRoutes(db, graph, {}, report);
  EXPECT_CLEAN_AUDIT(report);
}

// ---- router output validity -------------------------------------------------

class RouterOutputProperty : public ::testing::TestWithParam<int> {};

TEST_P(RouterOutputProperty, PatternAndMazeAlwaysValidAndConnected) {
  const auto db = crp::testing::makeGridDatabase(14, 7);
  RoutingGraph graph(db);
  groute::PatternRouter pattern(graph);
  groute::MazeRouter maze(graph);
  util::Rng rng(700 + GetParam());
  const int numTerminals = GetParam();

  for (int trial = 0; trial < 40; ++trial) {
    std::vector<GPoint> terminals;
    for (int t = 0; t < numTerminals; ++t) {
      terminals.push_back(GPoint{
          0, static_cast<int>(rng.uniformInt(0, graph.grid().countX() - 1)),
          static_cast<int>(rng.uniformInt(0, graph.grid().countY() - 1))});
    }
    for (const bool useMaze : {false, true}) {
      const auto result = useMaze ? maze.routeTree(terminals)
                                  : pattern.routeTree(terminals);
      ASSERT_TRUE(result.ok) << (useMaze ? "maze" : "pattern");
      NetRoute route;
      route.routed = true;
      route.segments = result.segments;
      check::AuditReport report;
      check::auditRoute(graph, route, terminals,
                        std::string(useMaze ? "maze" : "pattern") +
                            " trial " + std::to_string(trial),
                        report);
      EXPECT_CLEAN_AUDIT(report);
      EXPECT_GE(result.cost, 0.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(TerminalCounts, RouterOutputProperty,
                         ::testing::Values(2, 3, 5, 9));

// Maze routing searches a superset of the pattern shapes, so on an
// uncongested graph its cost never exceeds the pattern cost.
TEST(PropertyRouters, MazeNeverWorseThanPatternTwoPin) {
  const auto db = crp::testing::makeGridDatabase(14, 7);
  RoutingGraph graph(db);
  groute::PatternRouter pattern(graph);
  groute::MazeRouter maze(graph, /*boxMargin=*/8);
  util::Rng rng(99);
  for (int trial = 0; trial < 60; ++trial) {
    const GPoint a{0, static_cast<int>(rng.uniformInt(0, 6)),
                   static_cast<int>(rng.uniformInt(0, 6))};
    const GPoint b{0, static_cast<int>(rng.uniformInt(0, 6)),
                   static_cast<int>(rng.uniformInt(0, 6))};
    const auto mazeResult = maze.routeTree({a, b});
    const auto patternResult = pattern.routeTwoPin(a, b);
    ASSERT_TRUE(mazeResult.ok);
    ASSERT_TRUE(patternResult.ok);
    EXPECT_LE(mazeResult.cost, patternResult.cost + 1e-6)
        << "trial " << trial;
  }
}

// ---- A* maze vs a plain Dijkstra reference ---------------------------------

/// Plain Dijkstra over the maze's search box (terminal bbox + margin),
/// kept here only as the reference the A* maze is checked against.
class ReferenceMaze {
 public:
  ReferenceMaze(const RoutingGraph& graph, const std::vector<GPoint>& terminals,
                int margin)
      : graph_(graph) {
    xlo_ = xhi_ = terminals[0].x;
    ylo_ = yhi_ = terminals[0].y;
    for (const GPoint& t : terminals) {
      xlo_ = std::min(xlo_, t.x);
      xhi_ = std::max(xhi_, t.x);
      ylo_ = std::min(ylo_, t.y);
      yhi_ = std::max(yhi_, t.y);
    }
    xlo_ = std::max(0, xlo_ - margin);
    ylo_ = std::max(0, ylo_ - margin);
    xhi_ = std::min(graph.grid().countX() - 1, xhi_ + margin);
    yhi_ = std::min(graph.grid().countY() - 1, yhi_ + margin);
    for (int l = 0; l < graph.numLayers(); ++l) {
      for (int y = ylo_; y <= yhi_; ++y) {
        for (int x = xlo_; x <= xhi_; ++x) nodes_.push_back(GPoint{l, x, y});
      }
    }
  }

  const std::vector<GPoint>& nodes() const { return nodes_; }

  std::size_t indexOf(const GPoint& p) const {
    const std::size_t bw = xhi_ - xlo_ + 1;
    const std::size_t bh = yhi_ - ylo_ + 1;
    return (p.layer * bh + (p.y - ylo_)) * bw + (p.x - xlo_);
  }

  /// Least cost from any of `sources` to every box node; `parent` gets
  /// each node's predecessor (-1 for sources and unreached nodes).
  std::vector<double> distances(const std::vector<std::size_t>& sources,
                                std::vector<int>* parent = nullptr) const {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    std::vector<double> dist(nodes_.size(), kInf);
    std::vector<int> from(nodes_.size(), -1);
    using Entry = std::pair<double, std::size_t>;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue;
    for (const std::size_t s : sources) {
      dist[s] = 0.0;
      queue.push({0.0, s});
    }
    while (!queue.empty()) {
      const auto [d, idx] = queue.top();
      queue.pop();
      if (d > dist[idx]) continue;
      const GPoint p = nodes_[idx];
      auto relax = [&](const GPoint& q, double cost) {
        const std::size_t qi = indexOf(q);
        if (d + cost < dist[qi]) {
          dist[qi] = d + cost;
          from[qi] = static_cast<int>(idx);
          queue.push({dist[qi], qi});
        }
      };
      const bool horizontal =
          graph_.layerDir(p.layer) == db::LayerDir::kHorizontal;
      for (const int sign : {-1, 1}) {
        const GPoint q = horizontal ? GPoint{p.layer, p.x + sign, p.y}
                                    : GPoint{p.layer, p.x, p.y + sign};
        if (q.x < xlo_ || q.x > xhi_ || q.y < ylo_ || q.y > yhi_) continue;
        relax(q, graph_.wireEdgeCost(groute::WireEdge{
                     p.layer, std::min(p.x, q.x), std::min(p.y, q.y)}));
      }
      for (const int sign : {-1, 1}) {
        const int l = p.layer + sign;
        if (l < 0 || l >= graph_.numLayers()) continue;
        relax(GPoint{l, p.x, p.y},
              graph_.viaEdgeCost(groute::ViaEdge{std::min(l, p.layer), p.x,
                                                 p.y}));
      }
    }
    if (parent != nullptr) *parent = std::move(from);
    return dist;
  }

  /// routeTree's cost the reference way: sinks in the same order, each
  /// joined to the growing tree by a least-cost path.
  double treeCost(const std::vector<GPoint>& terminals) const {
    std::vector<GPoint> sinks(terminals.begin() + 1, terminals.end());
    std::sort(sinks.begin(), sinks.end(),
              [&](const GPoint& a, const GPoint& b) {
                const int da = std::abs(a.x - terminals[0].x) +
                               std::abs(a.y - terminals[0].y);
                const int db = std::abs(b.x - terminals[0].x) +
                               std::abs(b.y - terminals[0].y);
                return da < db;
              });
    std::vector<std::size_t> tree{indexOf(terminals[0])};
    double cost = 0.0;
    for (const GPoint& sink : sinks) {
      std::vector<int> parent;
      const std::vector<double> dist = distances(tree, &parent);
      cost += dist[indexOf(sink)];
      for (int at = static_cast<int>(indexOf(sink)); at >= 0;
           at = parent[at]) {
        tree.push_back(static_cast<std::size_t>(at));
      }
    }
    return cost;
  }

 private:
  const RoutingGraph& graph_;
  int xlo_, ylo_, xhi_, yhi_;
  std::vector<GPoint> nodes_;
};

/// A routed design whose graph exercises every cost term: charged
/// demand from a full GR run, hard-blocked macro interiors, a hotspot
/// blockage, and gcell counts that do not divide the die, so the last
/// row and column are wider than the rest.
class MazeEquivalence : public ::testing::Test {
 protected:
  static db::Database makeDesign() {
    bmgen::BenchmarkSpec spec;
    spec.name = "maze_equivalence";
    spec.targetCells = 1500;
    spec.hotspots = 1;
    spec.macroCount = 2;
    spec.macroWidthSites = 60;
    spec.macroRowSpan = 6;
    spec.seed = 17;
    db::Database db = bmgen::generateBenchmark(spec);
    db::Design& design = db.mutableDesign();
    while (design.dieArea.width() % design.gcellCountX == 0) {
      ++design.gcellCountX;
    }
    while (design.dieArea.height() % design.gcellCountY == 0) {
      ++design.gcellCountY;
    }
    return db;
  }

  MazeEquivalence() : db_(makeDesign()), router_(db_) { router_.run(); }

  const RoutingGraph& graph() const { return router_.graph(); }

  /// The maze's A* bound from `p` to `sink` (maze_route.hpp).
  double lowerBound(const GPoint& p, const GPoint& sink) const {
    const groute::CostConfig& config = graph().config();
    return config.wireUnit * (std::abs(p.x - sink.x) * graph().minWireDistX() +
                              std::abs(p.y - sink.y) * graph().minWireDistY()) +
           config.viaUnit * std::abs(p.layer - sink.layer);
  }

  std::vector<GPoint> randomNet(util::Rng& rng) const {
    const int pins = static_cast<int>(rng.uniformInt(2, 7));
    std::vector<GPoint> terminals;
    for (int t = 0; t < pins; ++t) {
      terminals.push_back(GPoint{
          static_cast<int>(rng.uniformInt(0, graph().numLayers() - 1)),
          static_cast<int>(rng.uniformInt(0, graph().grid().countX() - 1)),
          static_cast<int>(rng.uniformInt(0, graph().grid().countY() - 1))});
    }
    return terminals;
  }

  db::Database db_;
  groute::GlobalRouter router_;
};

TEST_F(MazeEquivalence, GraphHasEveryCostTerm) {
  const auto& grid = graph().grid();
  EXPECT_NE(grid.die().width() % grid.countX(), 0);
  EXPECT_NE(grid.die().height() % grid.countY(), 0);
  EXPECT_GT(graph().totalVias(), 0);
  bool blocked = false;
  for (int l = 0; l < graph().numLayers() && !blocked; ++l) {
    for (int y = 0; y < graph().wireEdgeCountY(l) && !blocked; ++y) {
      for (int x = 0; x < graph().wireEdgeCountX(l) && !blocked; ++x) {
        blocked = graph().hardBlocked(groute::WireEdge{l, x, y});
      }
    }
  }
  EXPECT_TRUE(blocked);
}

TEST_F(MazeEquivalence, PrecomputedDistMatchesGeometryOnEveryEdge) {
  const double pitch = static_cast<double>(graph().pitchUnit());
  double minX = std::numeric_limits<double>::infinity();
  double minY = std::numeric_limits<double>::infinity();
  for (int l = 0; l < graph().numLayers(); ++l) {
    for (int y = 0; y < graph().wireEdgeCountY(l); ++y) {
      for (int x = 0; x < graph().wireEdgeCountX(l); ++x) {
        const groute::WireEdge e{l, x, y};
        const double dist = graph().wireDistUnits(e);
        ASSERT_EQ(dist, static_cast<double>(graph().wireEdgeDist(e)) / pitch)
            << "layer " << l << " edge (" << x << ", " << y << ")";
        (graph().isHorizontal(l) ? minX : minY) =
            std::min(graph().isHorizontal(l) ? minX : minY, dist);
      }
    }
  }
  EXPECT_EQ(graph().minWireDistX(), minX);
  EXPECT_EQ(graph().minWireDistY(), minY);
}

TEST_F(MazeEquivalence, AStarMatchesDijkstraCostAndConnects) {
  const int margin = router_.options().mazeMargin;
  groute::MazeRouter maze(graph(), margin);
  util::Rng rng(2024);
  for (int trial = 0; trial < 60; ++trial) {
    const std::vector<GPoint> terminals = randomNet(rng);
    const ReferenceMaze reference(graph(), terminals, margin);
    const auto result = maze.routeTree(terminals);
    ASSERT_TRUE(result.ok) << "trial " << trial;
    const double expected = reference.treeCost(terminals);
    EXPECT_NEAR(result.cost, expected, 1e-9 * expected) << "trial " << trial;

    NetRoute route;
    route.routed = true;
    route.segments = result.segments;
    check::AuditReport report;
    check::auditRoute(graph(), route, terminals,
                      "trial " + std::to_string(trial), report);
    EXPECT_CLEAN_AUDIT(report);
  }
}

TEST_F(MazeEquivalence, LowerBoundNeverExceedsTrueDistance) {
  util::Rng rng(77);
  for (int trial = 0; trial < 20; ++trial) {
    const std::vector<GPoint> terminals = randomNet(rng);
    const ReferenceMaze reference(graph(), terminals, /*margin=*/6);
    const GPoint sink = terminals.back();
    const std::vector<double> toSink =
        reference.distances({reference.indexOf(sink)});
    for (std::size_t i = 0; i < toSink.size(); ++i) {
      EXPECT_LE(lowerBound(reference.nodes()[i], sink),
                toSink[i] * (1.0 + 1e-12))
          << "trial " << trial << " node " << i;
    }
  }
}

// ---- guide coverage -----------------------------------------------------------

// Every wire segment of every committed route must be covered by the
// net's emitted guide rects (the GR -> DR contract).
TEST(PropertyGuides, GuidesCoverCommittedRoutes) {
  const auto db = crp::testing::makeGridDatabase(12, 6);
  groute::GlobalRouter router(db);
  router.run();
  const auto guides = router.buildGuides();
  const auto& grid = router.graph().grid();
  for (db::NetId n = 0; n < db.numNets(); ++n) {
    const auto& route = router.route(n);
    for (const RouteSegment& rawSeg : route.segments) {
      const RouteSegment seg = groute::normalized(rawSeg);
      // Check every gcell the segment touches.
      auto covered = [&](int layer, int x, int y) {
        const auto rect = grid.cellRect(db::GCell{x, y});
        for (const auto& g : guides[n].rects) {
          if (g.layer == layer && g.rect.contains(rect)) return true;
        }
        return false;
      };
      if (seg.isVia()) {
        for (int l = seg.a.layer; l <= seg.b.layer; ++l) {
          EXPECT_TRUE(covered(l, seg.a.x, seg.a.y)) << db.net(n).name;
        }
      } else if (seg.a.x != seg.b.x) {
        for (int x = seg.a.x; x <= seg.b.x; ++x) {
          EXPECT_TRUE(covered(seg.a.layer, x, seg.a.y)) << db.net(n).name;
        }
      } else {
        for (int y = seg.a.y; y <= seg.b.y; ++y) {
          EXPECT_TRUE(covered(seg.a.layer, seg.a.x, y)) << db.net(n).name;
        }
      }
    }
  }
}

// ---- LP bounds ------------------------------------------------------------------

// The LP relaxation is always a valid lower bound on the ILP optimum.
TEST(PropertyIlp, LpLowerBoundsIlp) {
  util::Rng rng(31);
  for (int trial = 0; trial < 40; ++trial) {
    ilp::Model model;
    const int n = static_cast<int>(rng.uniformInt(4, 10));
    for (int i = 0; i < n; ++i) model.addBinary(rng.uniform(-5.0, 5.0));
    for (int r = 0; r < 3; ++r) {
      ilp::LinearExpr expr;
      for (int i = 0; i < n; ++i) {
        if (rng.bernoulli(0.5)) expr.add(i, rng.uniform(0.5, 2.0));
      }
      if (expr.size() == 0) continue;
      model.addConstraint(expr, ilp::Sense::kLessEqual,
                          rng.uniform(1.0, 3.0));
    }
    const auto lp = ilp::solveLp(model);
    const auto integer = ilp::solveIlp(model);
    if (lp.status == ilp::LpStatus::kOptimal &&
        integer.status == ilp::IlpStatus::kOptimal) {
      EXPECT_LE(lp.objective, integer.objective + 1e-6) << "trial " << trial;
    }
  }
}

// ---- legalizer displacement budget ---------------------------------------------

TEST(PropertyLegalizer, DisplacementBudgetRespected) {
  const auto db = crp::testing::makeGridDatabase(12, 6);
  legalizer::LegalizerOptions options;
  options.maxCellsPerIlp = 2;  // at most 1 displaced cell
  legalizer::IlpLegalizer legalizer(db, options);
  for (db::CellId cell = 0; cell < db.numCells(); cell += 5) {
    for (const auto& candidate : legalizer.generate(cell)) {
      EXPECT_LE(candidate.displaced.size(), 1u);
      EXPECT_TRUE(legalizer::candidateIsLegal(db, cell, candidate));
    }
  }
}

// ---- DEF idempotence ---------------------------------------------------------------

// write(parse(write(db))) must produce byte-identical DEF text.
TEST(PropertyLefDef, DefWriteParseWriteIdempotent) {
  bmgen::BenchmarkSpec spec;
  spec.name = "idem";
  spec.targetCells = 300;
  spec.hotspots = 1;
  spec.seed = 21;
  const auto db = bmgen::generateBenchmark(spec);

  std::ostringstream first;
  lefdef::writeDef(first, db);
  const auto design2 = lefdef::parseDef(first.str(), db.tech(), db.library());
  db::Database db2(db.tech(), db.library(), design2);
  std::ostringstream second;
  lefdef::writeDef(second, db2);
  EXPECT_EQ(first.str(), second.str());
}

// ---- congestion map ---------------------------------------------------------------

TEST(PropertyCongestion, MapReflectsAppliedDemand) {
  const auto db = crp::testing::makeTinyDatabase();
  RoutingGraph graph(db);
  const auto before = groute::buildCongestionMap(graph);
  EXPECT_EQ(before.width, 10);
  EXPECT_EQ(before.height, 5);
  EXPECT_EQ(before.hotspotCount(), 0);

  // Saturate a corridor.
  NetRoute jam;
  jam.segments.push_back({GPoint{0, 2, 2}, GPoint{0, 7, 2}});
  for (int i = 0; i < 12; ++i) graph.applyRoute(jam, +1);
  const auto after = groute::buildCongestionMap(graph, /*layer=*/0);
  EXPECT_GT(after.peak(), 1.0);
  EXPECT_GT(after.hotspotCount(), 0);
  EXPECT_GT(after.mean(), before.mean());
  EXPECT_GT(after.at(4, 2), after.at(4, 4));

  std::ostringstream art;
  groute::printHeatmap(art, after);
  // 5 rows of 10 characters.
  EXPECT_EQ(art.str().size(), 5u * 11u);
  EXPECT_NE(art.str().find('#'), std::string::npos);
}

// ---- evaluator monotonicity ----------------------------------------------------------

TEST(PropertyEval, ScoreMonotoneInEachMetric) {
  const auto db = crp::testing::makeTinyDatabase();
  util::Rng rng(55);
  for (int trial = 0; trial < 100; ++trial) {
    eval::Metrics m;
    m.wirelengthDbu = rng.uniformInt(0, 100000);
    m.viaCount = rng.uniformInt(0, 5000);
    m.shorts = static_cast<int>(rng.uniformInt(0, 10));
    m.openNets = static_cast<int>(rng.uniformInt(0, 5));
    const double base = eval::score(m, db);
    eval::Metrics worse = m;
    switch (trial % 4) {
      case 0:
        worse.wirelengthDbu += 1000;
        break;
      case 1:
        worse.viaCount += 10;
        break;
      case 2:
        worse.shorts += 1;
        break;
      case 3:
        worse.openNets += 1;
        break;
    }
    EXPECT_GT(eval::score(worse, db), base);
  }
}

}  // namespace
}  // namespace crp
