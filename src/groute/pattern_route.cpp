#include "groute/pattern_route.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <tuple>

namespace crp::groute {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}

void PatternRouter::buildCandidatePaths(int ax, int ay, int bx, int by,
                                        Scratch& s) const {
  s.numPaths = 0;
  auto addPath = [&](std::initializer_list<Run> runs) {
    if (s.numPaths == s.paths.size()) s.paths.emplace_back();
    s.paths[s.numPaths++].assign(runs.begin(), runs.end());
  };
  if (ax == bx && ay == by) {
    return;  // same column; pure via connection
  }
  if (ay == by || ax == bx) {
    addPath({Run{ax, ay, bx, by}});
    return;
  }
  // L-shapes.
  addPath({Run{ax, ay, bx, ay}, Run{bx, ay, bx, by}});  // H then V
  addPath({Run{ax, ay, ax, by}, Run{ax, by, bx, by}});  // V then H
  // Z-shapes: intermediate bend coordinates, sampled evenly when the
  // span is wide to bound enumeration cost.
  auto sampled = [&](int lo, int hi) -> const std::vector<int>& {
    auto& picks = s.picks;
    picks.clear();
    const int span = std::abs(hi - lo) - 1;
    if (span <= 0) return picks;
    const int count = std::min(span, kMaxZCandidates);
    for (int i = 1; i <= count; ++i) {
      const int offset = span * i / (count + 1) + 1;
      picks.push_back(lo < hi ? lo + offset : lo - offset);
    }
    std::sort(picks.begin(), picks.end());
    picks.erase(std::unique(picks.begin(), picks.end()), picks.end());
    return picks;
  };
  for (const int mx : sampled(ax, bx)) {
    addPath({Run{ax, ay, mx, ay}, Run{mx, ay, mx, by},
             Run{mx, by, bx, by}});
  }
  for (const int my : sampled(ay, by)) {
    addPath({Run{ax, ay, ax, my}, Run{ax, my, bx, my},
             Run{bx, my, bx, by}});
  }
}

double PatternRouter::runCost(const Run& run, int layer) const {
  const bool horizontal = run.horizontal();
  if (graph_.isHorizontal(layer) != horizontal) return kInf;
  double cost = 0.0;
  if (horizontal) {
    const int lo = std::min(run.x0, run.x1);
    const int hi = std::max(run.x0, run.x1);
    for (int x = lo; x < hi; ++x) {
      cost += graph_.wireEdgeCost(WireEdge{layer, x, run.y0});
    }
  } else {
    const int lo = std::min(run.y0, run.y1);
    const int hi = std::max(run.y0, run.y1);
    for (int y = lo; y < hi; ++y) {
      cost += graph_.wireEdgeCost(WireEdge{layer, run.x0, y});
    }
  }
  return cost;
}

double PatternRouter::viaStackCost(int x, int y, int lo, int hi) const {
  if (lo > hi) std::swap(lo, hi);
  double cost = 0.0;
  for (int l = lo; l < hi; ++l) {
    cost += graph_.viaEdgeCost(ViaEdge{l, x, y});
  }
  return cost;
}

bool PatternRouter::assignLayers(const std::vector<Run>& runs, int startLayer,
                                 int endLayer, double& cost,
                                 std::vector<int>& layers,
                                 Scratch& s) const {
  const int numLayers = graph_.numLayers();
  const int numRuns = static_cast<int>(runs.size());
  // dp[i*numLayers + l]: best cost of runs[0..i] with run i on layer l.
  s.dp.assign(static_cast<std::size_t>(numRuns) * numLayers, kInf);
  s.parent.assign(static_cast<std::size_t>(numRuns) * numLayers, -1);
  auto dp = [&](int i, int l) -> double& {
    return s.dp[static_cast<std::size_t>(i) * numLayers + l];
  };
  auto parent = [&](int i, int l) -> int& {
    return s.parent[static_cast<std::size_t>(i) * numLayers + l];
  };

  for (int l = 0; l < numLayers; ++l) {
    const double wire = runCost(runs[0], l);
    if (wire == kInf) continue;
    const double access =
        viaStackCost(runs[0].x0, runs[0].y0, startLayer, l);
    dp(0, l) = wire + access;
  }
  for (int i = 1; i < numRuns; ++i) {
    for (int l = 0; l < numLayers; ++l) {
      const double wire = runCost(runs[i], l);
      if (wire == kInf) continue;
      for (int pl = 0; pl < numLayers; ++pl) {
        if (dp(i - 1, pl) == kInf) continue;
        // Bend at the shared gcell (start of run i).
        const double bend = viaStackCost(runs[i].x0, runs[i].y0, pl, l);
        const double total = dp(i - 1, pl) + bend + wire;
        if (total < dp(i, l)) {
          dp(i, l) = total;
          parent(i, l) = pl;
        }
      }
    }
  }

  double best = kInf;
  int bestLayer = -1;
  for (int l = 0; l < numLayers; ++l) {
    if (dp(numRuns - 1, l) == kInf) continue;
    const double total =
        dp(numRuns - 1, l) +
        viaStackCost(runs.back().x1, runs.back().y1, l, endLayer);
    if (total < best) {
      best = total;
      bestLayer = l;
    }
  }
  if (bestLayer < 0) return false;

  layers.assign(numRuns, 0);
  int l = bestLayer;
  for (int i = numRuns - 1; i >= 0; --i) {
    layers[i] = l;
    l = parent(i, l) >= 0 ? parent(i, l) : l;
  }
  cost = best;
  return true;
}

double PatternRouter::routeTwoPinInto(const GPoint& a, const GPoint& b,
                                      Scratch& s,
                                      std::vector<RouteSegment>& out,
                                      bool& ok) const {
  ok = true;
  if (a.x == b.x && a.y == b.y) {
    // Same column: pure via stack.
    if (a.layer != b.layer) {
      out.push_back(RouteSegment{a, b});
    }
    return viaStackCost(a.x, a.y, a.layer, b.layer);
  }

  buildCandidatePaths(a.x, a.y, b.x, b.y, s);
  double bestCost = kInf;
  s.bestRuns.clear();
  for (std::size_t k = 0; k < s.numPaths; ++k) {
    const std::vector<Run>& runs = s.paths[k];
    double cost = 0.0;
    if (assignLayers(runs, a.layer, b.layer, cost, s.layers, s) &&
        cost < bestCost) {
      bestCost = cost;
      s.bestRuns.assign(runs.begin(), runs.end());
      s.bestLayers.assign(s.layers.begin(), s.layers.end());
    }
  }
  if (s.bestRuns.empty()) {
    ok = false;
    return 0.0;
  }

  // Emit wire segments plus connecting via stacks.
  int prevLayer = a.layer;
  for (std::size_t i = 0; i < s.bestRuns.size(); ++i) {
    const Run& run = s.bestRuns[i];
    const int layer = s.bestLayers[i];
    if (layer != prevLayer) {
      out.push_back(RouteSegment{GPoint{prevLayer, run.x0, run.y0},
                                 GPoint{layer, run.x0, run.y0}});
    }
    out.push_back(RouteSegment{GPoint{layer, run.x0, run.y0},
                               GPoint{layer, run.x1, run.y1}});
    prevLayer = layer;
  }
  if (prevLayer != b.layer) {
    out.push_back(RouteSegment{GPoint{prevLayer, b.x, b.y},
                               GPoint{b.layer, b.x, b.y}});
  }
  return bestCost;
}

PatternResult PatternRouter::routeTwoPin(const GPoint& a,
                                         const GPoint& b) const {
  Scratch scratch;
  PatternResult result;
  bool ok = false;
  const double cost = routeTwoPinInto(a, b, scratch, result.segments, ok);
  if (!ok) {
    result.segments.clear();
    return result;
  }
  result.ok = true;
  result.cost = cost;
  return result;
}

bool PatternRouter::routeTreeInto(const std::vector<GPoint>& terminals,
                                  Scratch& s, double& cost) const {
  cost = 0.0;
  s.segments.clear();
  if (terminals.size() <= 1) return true;

  // Steiner topology over gcell coordinates.
  s.pins.clear();
  for (const GPoint& t : terminals) {
    s.pins.push_back(geom::Point{t.x, t.y});
  }
  rsmt::buildSteinerTree(s.pins, s.tree, s.rsmt);
  const rsmt::SteinerTree& tree = s.tree;

  // Terminal layer lookup by column (min pin layer per column); Steiner
  // nodes access at the lowest routing layer above metal1 (cheap
  // default, refined by the via-merge pass below).
  s.pinLayer.clear();
  for (const GPoint& t : terminals) {
    s.pinLayer.push_back({{t.x, t.y}, t.layer});
  }
  std::sort(s.pinLayer.begin(), s.pinLayer.end());
  s.pinLayer.erase(
      std::unique(s.pinLayer.begin(), s.pinLayer.end(),
                  [](const auto& a, const auto& b) {
                    return a.first == b.first;
                  }),
      s.pinLayer.end());
  auto accessLayer = [&](const geom::Point& node) {
    const std::pair<int, int> key{static_cast<int>(node.x),
                                  static_cast<int>(node.y)};
    const auto it = std::lower_bound(
        s.pinLayer.begin(), s.pinLayer.end(), key,
        [](const auto& entry, const std::pair<int, int>& k) {
          return entry.first < k;
        });
    if (it != s.pinLayer.end() && it->first == key) return it->second;
    return std::min(1, graph_.numLayers() - 1);
  };

  // Track the layer span touched at every tree-node column so the
  // merge pass can stitch components with via stacks.
  s.touches.clear();
  auto touch = [&](int x, int y, int layer) {
    s.touches.push_back(Scratch::ColumnTouch{x, y, layer, layer});
  };

  for (const auto& [ia, ib] : tree.edges) {
    const geom::Point pa = tree.nodes[ia];
    const geom::Point pb = tree.nodes[ib];
    const GPoint a{accessLayer(pa), static_cast<int>(pa.x),
                   static_cast<int>(pa.y)};
    const GPoint b{accessLayer(pb), static_cast<int>(pb.x),
                   static_cast<int>(pb.y)};
    bool ok = false;
    cost += routeTwoPinInto(a, b, s, s.segments, ok);
    if (!ok) return false;
    touch(a.x, a.y, a.layer);
    touch(b.x, b.y, b.layer);
  }

  // Terminals sharing a column with different pin layers need a stack.
  for (const GPoint& t : terminals) touch(t.x, t.y, t.layer);
  for (const RouteSegment& seg : s.segments) {
    touch(seg.a.x, seg.a.y, seg.a.layer);
    touch(seg.b.x, seg.b.y, seg.b.layer);
  }

  // Merge touches into per-column spans, ascending column order.
  std::sort(s.touches.begin(), s.touches.end(),
            [](const Scratch::ColumnTouch& a, const Scratch::ColumnTouch& b) {
              return std::tie(a.x, a.y, a.lo) < std::tie(b.x, b.y, b.lo);
            });
  std::size_t spanCount = 0;
  for (std::size_t i = 0; i < s.touches.size(); ++i) {
    if (spanCount > 0 && s.touches[spanCount - 1].x == s.touches[i].x &&
        s.touches[spanCount - 1].y == s.touches[i].y) {
      s.touches[spanCount - 1].lo =
          std::min(s.touches[spanCount - 1].lo, s.touches[i].lo);
      s.touches[spanCount - 1].hi =
          std::max(s.touches[spanCount - 1].hi, s.touches[i].hi);
    } else {
      s.touches[spanCount++] = s.touches[i];
    }
  }

  for (std::size_t k = 0; k < spanCount; ++k) {
    const Scratch::ColumnTouch& span = s.touches[k];
    // Only stitch at columns that are tree nodes or terminals (segment
    // interiors never change layer).
    if (span.lo == span.hi) continue;
    bool isNode = false;
    for (const geom::Point& node : tree.nodes) {
      if (node.x == span.x && node.y == span.y) {
        isNode = true;
        break;
      }
    }
    if (!isNode) continue;
    // A via stack across the span guarantees connectivity; avoid
    // duplicating stacks already emitted by two-pin legs.
    const RouteSegment stack{GPoint{span.lo, span.x, span.y},
                             GPoint{span.hi, span.x, span.y}};
    bool covered = false;
    for (const RouteSegment& seg : s.segments) {
      if (seg.isVia() && seg.a.x == stack.a.x && seg.a.y == stack.a.y) {
        const int lo = std::min(seg.a.layer, seg.b.layer);
        const int hi = std::max(seg.a.layer, seg.b.layer);
        if (lo <= span.lo && hi >= span.hi) {
          covered = true;
          break;
        }
      }
    }
    if (!covered) {
      s.segments.push_back(stack);
      cost += viaStackCost(span.x, span.y, span.lo, span.hi);
    }
  }
  return true;
}

PatternResult PatternRouter::routeTree(
    const std::vector<GPoint>& terminals) const {
  Scratch scratch;
  return routeTree(terminals, scratch);
}

PatternResult PatternRouter::routeTree(const std::vector<GPoint>& terminals,
                                       Scratch& scratch) const {
  PatternResult result;
  double cost = 0.0;
  if (!routeTreeInto(terminals, scratch, cost)) return result;
  result.ok = true;
  result.cost = cost;
  result.segments.assign(scratch.segments.begin(), scratch.segments.end());
  return result;
}

double PatternRouter::priceTree(const std::vector<GPoint>& terminals) const {
  Scratch scratch;
  return priceTree(terminals, scratch);
}

double PatternRouter::priceTree(const std::vector<GPoint>& terminals,
                                Scratch& scratch) const {
  double cost = 0.0;
  // An unroutable tree (every candidate path crosses a hard-blocked
  // edge) must price as prohibitively expensive, never as free: the
  // selection ILP consumes these prices as finite objective
  // coefficients, so return a huge sentinel instead of infinity.
  if (!routeTreeInto(terminals, scratch, cost)) return kUnroutablePrice;
  return cost;
}

}  // namespace crp::groute
