#include "groute/maze_route.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>

namespace crp::groute {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

struct SearchBox {
  int xlo, ylo, xhi, yhi;  // inclusive gcell bounds
  int width() const { return xhi - xlo + 1; }
  int height() const { return yhi - ylo + 1; }
};

/// A* queue entry, ordered by (f, node).  `g` is the cost the entry
/// was pushed with: an entry whose g exceeds the node's best-known
/// cost is stale and is skipped on pop.
struct QueueEntry {
  double f;
  double g;
  std::size_t node;
};

/// std heap comparator: a min-heap on (f, node).
bool popsAfter(const QueueEntry& a, const QueueEntry& b) {
  return a.f != b.f ? a.f > b.f : a.node > b.node;
}

/// Per-thread search state over box-local node indices, reused across
/// calls.  dist/parent of a node are live only while its stamp equals
/// the current wave's generation, so starting a wave costs O(1)
/// instead of a fill over the whole 3D box.
struct MazeScratch {
  std::vector<double> dist;
  std::vector<int> parent;
  std::vector<std::uint32_t> stamp;
  std::uint32_t generation = 0;
  std::vector<QueueEntry> heap;

  void fit(std::size_t numNodes) {
    if (stamp.size() >= numNodes) return;
    dist.resize(numNodes);
    parent.resize(numNodes);
    stamp.resize(numNodes, 0);
  }

  std::uint32_t nextGeneration() {
    if (++generation == 0) {  // wrapped: forget every old stamp
      std::fill(stamp.begin(), stamp.end(), 0);
      generation = 1;
    }
    return generation;
  }
};

}  // namespace

PatternResult MazeRouter::routeTree(
    const std::vector<GPoint>& terminals) const {
  PatternResult result;
  if (terminals.size() <= 1) {
    result.ok = true;
    return result;
  }

  // Search box around all terminals.
  SearchBox box{terminals[0].x, terminals[0].y, terminals[0].x,
                terminals[0].y};
  for (const GPoint& t : terminals) {
    box.xlo = std::min(box.xlo, t.x);
    box.ylo = std::min(box.ylo, t.y);
    box.xhi = std::max(box.xhi, t.x);
    box.yhi = std::max(box.yhi, t.y);
  }
  box.xlo = std::max(0, box.xlo - boxMargin_);
  box.ylo = std::max(0, box.ylo - boxMargin_);
  box.xhi = std::min(graph_.grid().countX() - 1, box.xhi + boxMargin_);
  box.yhi = std::min(graph_.grid().countY() - 1, box.yhi + boxMargin_);

  const int bw = box.width();
  const int bh = box.height();
  const int numLayers = graph_.numLayers();
  const std::size_t layerSize = static_cast<std::size_t>(bw) * bh;

  auto indexOf = [&](const GPoint& p) {
    return (static_cast<std::size_t>(p.layer) * bh + (p.y - box.ylo)) * bw +
           (p.x - box.xlo);
  };
  auto pointOf = [&](std::size_t idx) {
    const std::size_t inLayer = idx % layerSize;
    return GPoint{static_cast<int>(idx / layerSize),
                  box.xlo + static_cast<int>(inLayer % bw),
                  box.ylo + static_cast<int>(inLayer / bw)};
  };
  auto inBox = [&](int x, int y) {
    return x >= box.xlo && x <= box.xhi && y >= box.ylo && y <= box.yhi;
  };

  static thread_local MazeScratch scratch;
  scratch.fit(static_cast<std::size_t>(numLayers) * layerSize);
  std::vector<double>& dist = scratch.dist;
  std::vector<int>& parent = scratch.parent;
  std::vector<std::uint32_t>& stamp = scratch.stamp;
  std::vector<QueueEntry>& heap = scratch.heap;

  // Admissible, consistent lower bound on the cost to `sink`: every
  // wire step costs at least wireUnit * (the axis' smallest Dist) and
  // every via at least viaUnit, because the congestion penalty is >= 0.
  // Units are read per call: the median-ILP baseline swaps the config.
  const double wireUnit = graph_.config().wireUnit;
  const double viaUnit = graph_.config().viaUnit;
  const double stepX = wireUnit * graph_.minWireDistX();
  const double stepY = wireUnit * graph_.minWireDistY();
  GPoint sink;
  auto lowerBound = [&](const GPoint& p) {
    return stepX * std::abs(p.x - sink.x) + stepY * std::abs(p.y - sink.y) +
           viaUnit * std::abs(p.layer - sink.layer);
  };

  std::uint32_t generation = 0;
  // Lowers node `idx` to cost g (from `from`) when that improves it.
  auto relax = [&](std::size_t idx, const GPoint& p, double g, int from) {
    const double known = stamp[idx] == generation ? dist[idx] : kInf;
    if (!(g < known)) return;
    stamp[idx] = generation;
    dist[idx] = g;
    parent[idx] = from;
    heap.push_back({g + lowerBound(p), g, idx});
    std::push_heap(heap.begin(), heap.end(), popsAfter);
  };

  // Order sinks by Manhattan proximity to the first terminal to keep
  // waves short.
  std::vector<GPoint> sinks(terminals.begin() + 1, terminals.end());
  std::sort(sinks.begin(), sinks.end(), [&](const GPoint& a, const GPoint& b) {
    const int da = std::abs(a.x - terminals[0].x) +
                   std::abs(a.y - terminals[0].y);
    const int db = std::abs(b.x - terminals[0].x) +
                   std::abs(b.y - terminals[0].y);
    return da < db;
  });

  // Tree node set (source of each wave).
  std::vector<std::size_t> treeNodes{indexOf(terminals[0])};
  std::vector<RouteSegment> unitSegments;

  for (const GPoint& nextSink : sinks) {
    // One A* wave from the whole tree to this sink.
    sink = nextSink;
    generation = scratch.nextGeneration();
    heap.clear();
    for (const std::size_t idx : treeNodes) {
      relax(idx, pointOf(idx), 0.0, -1);
    }

    const std::size_t target = indexOf(sink);
    bool reached = false;
    while (!heap.empty()) {
      std::pop_heap(heap.begin(), heap.end(), popsAfter);
      const QueueEntry top = heap.back();
      heap.pop_back();
      const std::size_t idx = top.node;
      if (top.g > dist[idx]) continue;  // stale
      if (idx == target) {
        reached = true;
        break;
      }
      const double g = top.g;
      const int from = static_cast<int>(idx);
      const GPoint p = pointOf(idx);
      // Wire moves along the layer's preferred direction.  The box is
      // clamped to the grid, so both endpoints in the box make a valid
      // edge.
      const bool horizontal = graph_.isHorizontal(p.layer);
      for (const int sign : {-1, 1}) {
        const GPoint next = horizontal ? GPoint{p.layer, p.x + sign, p.y}
                                       : GPoint{p.layer, p.x, p.y + sign};
        if (!inBox(next.x, next.y)) continue;
        const WireEdge edge{p.layer, std::min(p.x, next.x),
                            std::min(p.y, next.y)};
        relax(indexOf(next), next, g + graph_.wireEdgeCost(edge), from);
      }
      // Via moves.
      for (const int sign : {-1, 1}) {
        const int nl = p.layer + sign;
        if (nl < 0 || nl >= numLayers) continue;
        const ViaEdge edge{std::min(p.layer, nl), p.x, p.y};
        relax(sign > 0 ? idx + layerSize : idx - layerSize,
              GPoint{nl, p.x, p.y}, g + graph_.viaEdgeCost(edge), from);
      }
    }
    if (!reached) return PatternResult{};

    result.cost += dist[target];

    // Backtrack, collecting unit segments and enlarging the tree.
    std::size_t cursor = target;
    while (parent[cursor] >= 0) {
      const std::size_t prev = static_cast<std::size_t>(parent[cursor]);
      unitSegments.push_back(RouteSegment{pointOf(prev), pointOf(cursor)});
      treeNodes.push_back(cursor);
      cursor = prev;
    }
    treeNodes.push_back(cursor);
  }

  // Merge collinear unit segments to keep routes compact.
  std::vector<RouteSegment> merged;
  for (RouteSegment seg : unitSegments) {
    seg = normalized(seg);
    bool fused = false;
    if (!merged.empty()) {
      RouteSegment& last = merged.back();
      const bool bothVia = last.isVia() && seg.isVia();
      const bool bothWire = !last.isVia() && !seg.isVia() &&
                            last.a.layer == seg.a.layer;
      if (bothVia && last.a.x == seg.a.x && last.a.y == seg.a.y) {
        if (last.b.layer == seg.a.layer) {
          last.b = seg.b;
          fused = true;
        } else if (seg.b.layer == last.a.layer) {
          last.a = seg.a;
          fused = true;
        }
      } else if (bothWire) {
        const bool sameRow = last.a.y == seg.a.y && last.b.y == seg.b.y &&
                             seg.a.y == seg.b.y && last.a.y == last.b.y;
        const bool sameCol = last.a.x == seg.a.x && last.b.x == seg.b.x &&
                             seg.a.x == seg.b.x && last.a.x == last.b.x;
        if (sameRow && last.b.x == seg.a.x) {
          last.b = seg.b;
          fused = true;
        } else if (sameCol && last.b.y == seg.a.y) {
          last.b = seg.b;
          fused = true;
        }
      }
    }
    if (!fused) merged.push_back(seg);
  }
  result.segments = std::move(merged);
  result.ok = true;
  return result;
}

}  // namespace crp::groute
