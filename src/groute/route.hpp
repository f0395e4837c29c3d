// Global-route geometry: 3D gcell points and per-net route trees.
#pragma once

#include <algorithm>
#include <vector>

#include "db/design.hpp"
#include "db/gcell_grid.hpp"

namespace crp::groute {

/// A node of the 3D GCell graph: (routing layer, gcell x, gcell y).
struct GPoint {
  int layer = 0;
  int x = 0;
  int y = 0;

  friend bool operator==(const GPoint&, const GPoint&) = default;
  friend auto operator<=>(const GPoint&, const GPoint&) = default;
};

/// One straight piece of a route: either a wire run within one layer
/// (a.layer == b.layer, aligned with that layer's direction) or a via
/// stack (same x/y, a.layer != b.layer).
struct RouteSegment {
  GPoint a;
  GPoint b;

  bool isVia() const { return a.layer != b.layer; }

  friend bool operator==(const RouteSegment&, const RouteSegment&) = default;
};

/// A net's committed global route.
struct NetRoute {
  db::NetId net = db::kInvalidId;
  std::vector<RouteSegment> segments;
  bool routed = false;

  void clear() {
    segments.clear();
    routed = false;
  }
};

/// Inclusive gcell rectangle (layer-agnostic).  The currency of the
/// conflict-free batch planner and the ECO engine's dirty-region
/// bookkeeping: a net's extent, a delta's dirty region and a cache
/// entry's terminal bbox are all GCellRects, and "does this need
/// attention" is an overlap test.
struct GCellRect {
  int xlo = 0, ylo = 0, xhi = -1, yhi = -1;  // empty by default

  bool empty() const { return xhi < xlo || yhi < ylo; }

  void cover(int x, int y) {
    if (empty()) {
      xlo = xhi = x;
      ylo = yhi = y;
      return;
    }
    xlo = std::min(xlo, x);
    ylo = std::min(ylo, y);
    xhi = std::max(xhi, x);
    yhi = std::max(yhi, y);
  }

  void cover(const GCellRect& o) {
    if (o.empty()) return;
    cover(o.xlo, o.ylo);
    cover(o.xhi, o.yhi);
  }

  bool overlaps(const GCellRect& o) const {
    if (empty() || o.empty()) return false;
    return xlo <= o.xhi && o.xlo <= xhi && ylo <= o.yhi && o.ylo <= yhi;
  }

  /// Grows by `margin` gcells on every side, clamped to [0, max].
  void expand(int margin, int maxX, int maxY) {
    if (empty()) return;
    xlo = std::max(0, xlo - margin);
    ylo = std::max(0, ylo - margin);
    xhi = std::min(maxX, xhi + margin);
    yhi = std::min(maxY, yhi + margin);
  }

  long area() const {
    if (empty()) return 0;
    return static_cast<long>(xhi - xlo + 1) * (yhi - ylo + 1);
  }

  int width() const { return empty() ? 0 : xhi - xlo + 1; }
  int height() const { return empty() ? 0 : yhi - ylo + 1; }
};

/// True when `rect` overlaps any rect of `regions` (the dirty-region
/// membership test of the ECO engine).
bool overlapsAny(const GCellRect& rect, const std::vector<GCellRect>& regions);

/// Normalizes a segment so a <= b (lexicographic), making route
/// comparison and demand bookkeeping order-independent.
RouteSegment normalized(const RouteSegment& seg);

/// True when the segments form a single connected component that
/// covers every point of `terminals` (pin gcells at their pin layers
/// count as connected if the route touches the same (x, y) column at
/// any layer >= the terminal's layer reachable through segments; the
/// strict check used here requires the exact terminal column (x,y) to
/// appear in some segment).
bool routeConnectsTerminals(const NetRoute& route,
                            const std::vector<GPoint>& terminals);

/// Sum of wire-edge hops (gcell-to-gcell steps within layers).
int routeWireHops(const NetRoute& route);

/// Number of via-edge hops (adjacent-layer steps).
int routeViaHops(const NetRoute& route);

}  // namespace crp::groute
