#include "groute/route.hpp"

#include <algorithm>
#include <functional>
#include <map>
#include <set>

namespace crp::groute {

bool overlapsAny(const GCellRect& rect, const std::vector<GCellRect>& regions) {
  for (const GCellRect& region : regions) {
    if (rect.overlaps(region)) return true;
  }
  return false;
}

RouteSegment normalized(const RouteSegment& seg) {
  if (seg.b < seg.a) return RouteSegment{seg.b, seg.a};
  return seg;
}

namespace {

/// Expands a segment into the ordered list of graph nodes it covers.
std::vector<GPoint> segmentPoints(const RouteSegment& seg) {
  std::vector<GPoint> points;
  const RouteSegment s = normalized(seg);
  if (s.isVia()) {
    for (int l = s.a.layer; l <= s.b.layer; ++l) {
      points.push_back(GPoint{l, s.a.x, s.a.y});
    }
  } else if (s.a.x != s.b.x) {
    for (int x = s.a.x; x <= s.b.x; ++x) {
      points.push_back(GPoint{s.a.layer, x, s.a.y});
    }
  } else {
    for (int y = s.a.y; y <= s.b.y; ++y) {
      points.push_back(GPoint{s.a.layer, s.a.x, y});
    }
  }
  return points;
}

}  // namespace

bool routeConnectsTerminals(const NetRoute& route,
                            const std::vector<GPoint>& terminals) {
  if (terminals.empty()) return true;
  if (terminals.size() == 1) return true;
  if (route.segments.empty()) return false;

  // Union-find over every node touched by any segment.
  std::map<GPoint, int> indexOf;
  auto idOf = [&indexOf](const GPoint& p) {
    return indexOf.emplace(p, static_cast<int>(indexOf.size())).first->second;
  };
  std::vector<std::pair<int, int>> links;
  for (const RouteSegment& seg : route.segments) {
    const auto points = segmentPoints(seg);
    for (std::size_t i = 1; i < points.size(); ++i) {
      links.emplace_back(idOf(points[i - 1]), idOf(points[i]));
    }
    if (points.size() == 1) idOf(points[0]);
  }
  std::vector<int> parent(indexOf.size());
  for (std::size_t i = 0; i < parent.size(); ++i) parent[i] = static_cast<int>(i);
  std::function<int(int)> find = [&](int x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  for (const auto& [a, b] : links) parent[find(a)] = find(b);

  // Terminals connect through their (x, y) column: a terminal is
  // reached when any routed node shares its column.  All terminals
  // must land in one component.
  int rootComponent = -1;
  for (const GPoint& t : terminals) {
    int comp = -1;
    for (const auto& [p, idx] : indexOf) {
      if (p.x == t.x && p.y == t.y) {
        comp = find(idx);
        break;
      }
    }
    if (comp < 0) return false;  // column untouched: open net
    if (rootComponent < 0) {
      rootComponent = comp;
    } else if (comp != rootComponent) {
      return false;
    }
  }
  return true;
}

int routeWireHops(const NetRoute& route) {
  int hops = 0;
  for (const RouteSegment& seg : route.segments) {
    if (!seg.isVia()) {
      hops += std::abs(seg.a.x - seg.b.x) + std::abs(seg.a.y - seg.b.y);
    }
  }
  return hops;
}

int routeViaHops(const NetRoute& route) {
  int hops = 0;
  for (const RouteSegment& seg : route.segments) {
    if (seg.isVia()) hops += std::abs(seg.a.layer - seg.b.layer);
  }
  return hops;
}

}  // namespace crp::groute
