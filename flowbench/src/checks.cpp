#include "checks.hpp"

#include <algorithm>
#include <map>
#include <numeric>
#include <set>

#include "bmgen/generator.hpp"

namespace flowbench::checks {

namespace {

using crp::db::CellId;
using crp::db::Coord;
using crp::db::Database;
using crp::groute::GPoint;
using crp::groute::NetRoute;
using crp::groute::RouteSegment;

constexpr std::size_t kMaxReported = 8;

void report(Problems& problems, std::size_t& count, const std::string& what) {
  if (count++ < kMaxReported) problems.push_back(what);
}

void summarize(Problems& problems, std::size_t count, const std::string& what) {
  if (count > kMaxReported) {
    problems.push_back(what + ": " + std::to_string(count) + " in total");
  }
}

/// Disjoint sets with path halving.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  std::size_t find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void unite(std::size_t a, std::size_t b) { parent_[find(a)] = find(b); }

 private:
  std::vector<std::size_t> parent_;
};

/// Every gcell node a segment covers, in order.
std::vector<GPoint> coveredNodes(const RouteSegment& seg) {
  std::vector<GPoint> nodes;
  const GPoint& a = seg.a;
  const GPoint& b = seg.b;
  if (a.layer != b.layer) {
    const int step = a.layer < b.layer ? 1 : -1;
    for (int l = a.layer;; l += step) {
      nodes.push_back(GPoint{l, a.x, a.y});
      if (l == b.layer) break;
    }
  } else if (a.x != b.x) {
    const int step = a.x < b.x ? 1 : -1;
    for (int x = a.x;; x += step) {
      nodes.push_back(GPoint{a.layer, x, a.y});
      if (x == b.x) break;
    }
  } else {
    const int step = a.y <= b.y ? 1 : -1;
    for (int y = a.y;; y += step) {
      nodes.push_back(GPoint{a.layer, a.x, y});
      if (y == b.y) break;
    }
  }
  return nodes;
}

Coord centerX(const crp::db::GCellGrid& grid, int x) {
  return (grid.xBounds()[x] + grid.xBounds()[x + 1]) / 2;
}
Coord centerY(const crp::db::GCellGrid& grid, int y) {
  return (grid.yBounds()[y] + grid.yBounds()[y + 1]) / 2;
}

/// True when the route reaches every terminal column and joins them
/// all in one component (see globalRoutes in checks.hpp).
bool routeConnects(const std::vector<GPoint>& terminals, const NetRoute& route) {
  std::set<std::pair<int, int>> columns;
  for (const GPoint& t : terminals) columns.insert({t.x, t.y});
  if (columns.size() <= 1) return true;

  std::map<GPoint, std::size_t> index;  // ordered: lowest layer first
  std::vector<std::pair<std::size_t, std::size_t>> links;
  for (const RouteSegment& seg : route.segments) {
    const auto nodes = coveredNodes(seg);
    std::size_t prev = 0;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const std::size_t id = index.emplace(nodes[i], index.size()).first->second;
      if (i > 0) links.emplace_back(prev, id);
      prev = id;
    }
  }
  UnionFind sets(index.size());
  for (const auto& [a, b] : links) sets.unite(a, b);

  // Lowest routed node of each (x, y) column.
  std::map<std::pair<int, int>, std::size_t> columnNode;
  for (const auto& [node, id] : index) columnNode.emplace(std::make_pair(node.x, node.y), id);
  std::size_t root = 0;
  bool first = true;
  for (const auto& column : columns) {
    const auto it = columnNode.find(column);
    if (it == columnNode.end()) return false;
    const std::size_t r = sets.find(it->second);
    if (first) {
      root = r;
      first = false;
    } else if (r != root) {
      return false;
    }
  }
  return true;
}

/// Wire length of one route in DBU, edge by edge between gcell centers.
long long routeWireDbu(const crp::db::GCellGrid& grid, const NetRoute& route) {
  long long total = 0;
  for (const RouteSegment& seg : route.segments) {
    if (seg.a.layer != seg.b.layer) continue;
    const auto nodes = coveredNodes(seg);
    for (std::size_t i = 1; i < nodes.size(); ++i) {
      total += std::llabs(centerX(grid, nodes[i].x) - centerX(grid, nodes[i - 1].x)) +
               std::llabs(centerY(grid, nodes[i].y) - centerY(grid, nodes[i - 1].y));
    }
  }
  return total;
}

/// Via edges of one route (layer steps of its via segments).
long long routeVias(const NetRoute& route) {
  long long vias = 0;
  for (const RouteSegment& seg : route.segments) {
    vias += std::abs(seg.a.layer - seg.b.layer);
  }
  return vias;
}

/// Half-perimeter of the terminal gcell centers: a lower bound on the
/// wire of any route that connects them.  (The HPWL of the pins is no
/// bound: two pins in one gcell need no wire.)
long long terminalHpwlDbu(const crp::db::GCellGrid& grid,
                          const std::vector<GPoint>& terminals) {
  if (terminals.empty()) return 0;
  Coord xlo = centerX(grid, terminals[0].x), xhi = xlo;
  Coord ylo = centerY(grid, terminals[0].y), yhi = ylo;
  for (const GPoint& t : terminals) {
    xlo = std::min(xlo, centerX(grid, t.x));
    xhi = std::max(xhi, centerX(grid, t.x));
    ylo = std::min(ylo, centerY(grid, t.y));
    yhi = std::max(yhi, centerY(grid, t.y));
  }
  return (xhi - xlo) + (yhi - ylo);
}

void expectEqual(Problems& problems, const std::string& what, long long reported,
                 long long recomputed) {
  if (reported != recomputed) {
    problems.push_back(what + ": reported " + std::to_string(reported) +
                       ", recomputed " + std::to_string(recomputed));
  }
}

}  // namespace

Problems placementLegal(const Database& placed, const Database& reference) {
  Problems problems;
  std::size_t outside = 0, offRow = 0, overlaps = 0, blocked = 0, fixedMoved = 0;
  const auto& design = placed.design();
  const auto& die = design.dieArea;
  const Coord rowH = placed.rowHeight();
  const Coord siteW = placed.siteWidth();

  std::multimap<Coord, const crp::db::Row*> rowsByY;
  for (const auto& row : design.rows) rowsByY.emplace(row.origin.y, &row);

  // Per-cell rules.
  for (CellId id = 0; id < placed.numCells(); ++id) {
    const auto rect = placed.cellRect(id);
    const auto& cell = placed.cell(id);
    if (rect.xlo < die.xlo || rect.ylo < die.ylo || rect.xhi > die.xhi ||
        rect.yhi > die.yhi) {
      report(problems, outside, "cell " + cell.name + " outside the die");
    }
    if (cell.fixed) continue;
    const Coord height = rect.yhi - rect.ylo;
    bool onGrid = rowH > 0 && siteW > 0 && height > 0 && height % rowH == 0;
    for (Coord y = rect.ylo; onGrid && y < rect.yhi; y += rowH) {
      bool found = false;
      const auto [lo, hi] = rowsByY.equal_range(y);
      for (auto it = lo; it != hi && !found; ++it) {
        const auto& row = *it->second;
        const Coord rowEnd = row.origin.x + row.numSites * siteW;
        found = rect.xlo >= row.origin.x && rect.xhi <= rowEnd &&
                (rect.xlo - row.origin.x) % siteW == 0;
      }
      onGrid = found;
    }
    if (!onGrid) {
      report(problems, offRow, "cell " + cell.name + " is not on a row site");
    }
  }

  // Overlaps: bucket every cell into each row strip it covers, sort
  // each strip by left edge and sweep, remembering the right-most
  // edge seen so far.
  std::map<long long, std::vector<std::pair<Coord, CellId>>> strips;
  const Coord stripH = std::max<Coord>(1, rowH);
  auto stripOf = [&](Coord y) {
    return static_cast<long long>(y >= 0 ? y / stripH : (y - stripH + 1) / stripH);
  };
  for (CellId id = 0; id < placed.numCells(); ++id) {
    const auto rect = placed.cellRect(id);
    if (rect.xhi <= rect.xlo || rect.yhi <= rect.ylo) continue;
    for (long long s = stripOf(rect.ylo); s <= stripOf(rect.yhi - 1); ++s) {
      strips[s].emplace_back(rect.xlo, id);
    }
  }
  std::set<std::pair<CellId, CellId>> seen;
  for (auto& [strip, cells] : strips) {
    std::sort(cells.begin(), cells.end());
    Coord reach = 0;
    CellId reacher = crp::db::kInvalidId;
    for (const auto& [xlo, id] : cells) {
      const auto rect = placed.cellRect(id);
      if (reacher != crp::db::kInvalidId && xlo < reach) {
        const auto other = placed.cellRect(reacher);
        const bool yOverlap = rect.ylo < other.yhi && other.ylo < rect.yhi;
        const auto key = std::minmax(id, reacher);
        if (yOverlap && seen.insert({key.first, key.second}).second) {
          report(problems, overlaps,
                 "cells " + placed.cell(reacher).name + " and " +
                     placed.cell(id).name + " overlap");
        }
      }
      if (reacher == crp::db::kInvalidId || rect.xhi > reach) {
        reach = rect.xhi;
        reacher = id;
      }
    }
  }

  for (const auto& blockage : design.blockages) {
    if (blockage.layer != crp::db::kInvalidId) continue;
    for (CellId id = 0; id < placed.numCells(); ++id) {
      if (placed.cell(id).fixed) continue;
      const auto rect = placed.cellRect(id);
      if (rect.xlo < blockage.rect.xhi && blockage.rect.xlo < rect.xhi &&
          rect.ylo < blockage.rect.yhi && blockage.rect.ylo < rect.yhi) {
        report(problems, blocked,
               "cell " + placed.cell(id).name + " covers a placement blockage");
      }
    }
  }

  for (CellId id = 0; id < reference.numCells(); ++id) {
    const auto& before = reference.cell(id);
    if (!before.fixed) continue;
    const CellId now = placed.findCell(before.name);
    if (now == crp::db::kInvalidId || !placed.cell(now).fixed ||
        !(placed.cell(now).pos == before.pos)) {
      report(problems, fixedMoved, "fixed cell " + before.name + " moved");
    }
  }
  summarize(problems, outside, "cells outside the die");
  summarize(problems, offRow, "cells off the row/site grid");
  summarize(problems, overlaps, "overlapping cell pairs");
  summarize(problems, blocked, "cells on placement blockages");
  summarize(problems, fixedMoved, "fixed cells moved");
  return problems;
}

Problems samePlacement(const Database& a, const Database& b) {
  Problems problems;
  if (a.numCells() != b.numCells()) {
    problems.push_back("cell counts differ: " + std::to_string(a.numCells()) +
                       " vs " + std::to_string(b.numCells()));
    return problems;
  }
  std::size_t differ = 0;
  for (CellId id = 0; id < a.numCells(); ++id) {
    const CellId other = b.findCell(a.cell(id).name);
    if (other == crp::db::kInvalidId || !(b.cell(other).pos == a.cell(id).pos)) {
      report(problems, differ, "cell " + a.cell(id).name + " differs");
    }
  }
  summarize(problems, differ, "cells that differ");
  return problems;
}

RouteSummary globalRoutes(const crp::groute::GlobalRouter& router) {
  RouteSummary summary;
  const auto& grid = router.graph().grid();
  long long wireDbu = 0, vias = 0, hpwlDbu = 0;
  std::size_t shortNets = 0;
  for (crp::db::NetId net = 0; net < router.database().numNets(); ++net) {
    const auto terminals = router.netTerminals(net);
    const NetRoute& route = router.route(net);
    ++summary.nets;
    const long long wire = routeWireDbu(grid, route);
    wireDbu += wire;
    vias += routeVias(route);
    if (!routeConnects(terminals, route)) {
      ++summary.openNets;
      continue;
    }
    const long long hpwl = terminalHpwlDbu(grid, terminals);
    hpwlDbu += hpwl;
    if (wire < hpwl) {
      report(summary.problems, shortNets,
             "net " + router.database().net(net).name +
                 " routed shorter than its terminal HPWL");
    }
  }
  summarize(summary.problems, shortNets, "nets shorter than their HPWL");
  const auto stats = router.stats();
  expectEqual(summary.problems, "graph wire total", router.graph().totalWireDbu(), wireDbu);
  expectEqual(summary.problems, "graph via total", router.graph().totalVias(), vias);
  expectEqual(summary.problems, "GlobalRouteStats wirelength", stats.wirelengthDbu, wireDbu);
  expectEqual(summary.problems, "GlobalRouteStats open nets", stats.openNets,
              summary.openNets);
  if (wireDbu < hpwlDbu) {
    summary.problems.push_back("GR wirelength below the summed terminal HPWL");
  }
  return summary;
}

Problems detailedRoutes(const crp::droute::DetailedRouter& router,
                        const crp::droute::DetailedRouteStats& stats) {
  Problems problems;
  long long wireDbu = 0, vias = 0;
  const auto& graph = router.graph();
  const auto& xs = graph.xs();
  const auto& ys = graph.ys();
  std::size_t disconnected = 0;
  for (crp::db::NetId net = 0; net < router.database().numNets(); ++net) {
    const auto& paths = router.netPaths(net);
    std::map<crp::droute::DNode, std::size_t> index;
    std::vector<std::pair<std::size_t, std::size_t>> links;
    for (const auto& path : paths) {
      for (std::size_t i = 0; i < path.size(); ++i) {
        const std::size_t id = index.emplace(path[i], index.size()).first->second;
        if (i == 0) continue;
        const auto& a = path[i - 1];
        const auto& b = path[i];
        links.emplace_back(index.at(a), id);
        if (a.layer != b.layer) {
          vias += std::abs(a.layer - b.layer);
        } else {
          wireDbu += std::llabs(xs[a.xi] - xs[b.xi]) + std::llabs(ys[a.yi] - ys[b.yi]);
        }
      }
    }
    if (index.empty()) continue;
    UnionFind sets(index.size());
    for (const auto& [a, b] : links) sets.unite(a, b);
    const std::size_t root = sets.find(0);
    for (std::size_t i = 1; i < index.size(); ++i) {
      if (sets.find(i) != root) {
        report(problems, disconnected,
               "net " + router.database().net(net).name + " is in pieces");
        break;
      }
    }
  }
  summarize(problems, disconnected, "nets in pieces");
  expectEqual(problems, "DR wirelength", stats.wirelengthDbu, wireDbu + stats.patchedWireDbu);
  expectEqual(problems, "DR vias", stats.viaCount, vias);
  return problems;
}

Problems fingerprintsMatch(const std::string& what, const std::string& expected,
                           const std::string& actual) {
  if (expected == actual) return {};
  return {what + ": fingerprint " + actual + " differs from " + expected};
}

Problems selfTest() {
  Problems problems;
  auto expect = [&problems](bool ok, const std::string& what) {
    if (!ok) problems.push_back("self-test: " + what);
  };

  // A small legal design: the placement check passes, then fails on
  // two overlapping cells and on a cell pushed off the site grid.
  crp::bmgen::BenchmarkSpec spec;
  spec.targetCells = 150;
  spec.utilization = 0.75;
  spec.seed = 3;
  const Database legal = crp::bmgen::generateBenchmark(spec);
  expect(placementLegal(legal, legal).empty(), "legal placement rejected");
  CellId a = crp::db::kInvalidId, b = crp::db::kInvalidId;
  for (CellId id = 0; id < legal.numCells() && b == crp::db::kInvalidId; ++id) {
    if (legal.cell(id).fixed || legal.isMultiRow(id)) continue;
    if (a == crp::db::kInvalidId) {
      a = id;
    } else if (legal.cell(id).macro == legal.cell(a).macro) {
      b = id;
    }
  }
  expect(b != crp::db::kInvalidId, "no pair of equal cells to overlap");
  if (b != crp::db::kInvalidId) {
    Database overlapping = legal;
    overlapping.moveCell(b, legal.cell(a).pos);
    expect(!placementLegal(overlapping, legal).empty(), "two overlapping cells passed");
    Database offSite = legal;
    offSite.moveCell(a, {legal.cell(a).pos.x + 1, legal.cell(a).pos.y});
    expect(!placementLegal(offSite, legal).empty(), "an off-site cell passed");
  }

  // A severed route: a straight two-terminal route connects; the same
  // route with one edge cut out of its wire does not.
  const std::vector<GPoint> terminals{{0, 0, 0}, {0, 5, 0}};
  NetRoute whole;
  whole.routed = true;
  whole.segments = {{{0, 0, 0}, {1, 0, 0}}, {{1, 0, 0}, {1, 5, 0}},
                    {{1, 5, 0}, {0, 5, 0}}};
  expect(routeConnects(terminals, whole), "a connected route rejected");
  NetRoute severed = whole;
  severed.segments[1] = {{1, 0, 0}, {1, 2, 0}};
  severed.segments.push_back({{1, 3, 0}, {1, 5, 0}});
  expect(!routeConnects(terminals, severed), "a severed route passed");

  // Global routes of the small design pass; a wire segment stretched
  // by one gcell behind the graph's back puts the wire total off by
  // one gcell pitch and must be caught.
  crp::groute::GlobalRouterOptions options;
  options.routerThreads = 1;
  crp::groute::GlobalRouter router(legal, options);
  router.run();
  expect(globalRoutes(router).problems.empty(), "clean global routes rejected");
  bool stretched = false;
  const int countX = router.graph().grid().countX();
  for (crp::db::NetId net = 0; net < legal.numNets() && !stretched; ++net) {
    for (RouteSegment& seg : router.mutableRoute(net).segments) {
      if (seg.a.layer == seg.b.layer && seg.a.y == seg.b.y && seg.a.x < seg.b.x &&
          seg.b.x + 1 < countX) {
        ++seg.b.x;
        stretched = true;
        break;
      }
    }
  }
  expect(stretched, "no wire segment to stretch");
  if (stretched) {
    expect(!globalRoutes(router).problems.empty(), "a wire total off by one pitch passed");
  }

  // Detailed routes of the small design pass; a via count off by one
  // must be caught.
  crp::groute::GlobalRouter clean(legal, options);
  clean.run();
  crp::droute::DetailedRouter detailed(legal, clean.buildGuides());
  auto stats = detailed.run();
  expect(detailedRoutes(detailed, stats).empty(), "clean detailed routes rejected");
  ++stats.viaCount;
  expect(!detailedRoutes(detailed, stats).empty(), "a via count off by one passed");

  expect(fingerprintsMatch("self", "a1b2", "a1b2").empty(), "equal fingerprints differ");
  expect(!fingerprintsMatch("self", "a1b2", "a1b3").empty(), "a mismatched fingerprint passed");
  return problems;
}

}  // namespace flowbench::checks
