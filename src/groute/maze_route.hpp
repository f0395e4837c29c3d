// 3D maze (A*) routing on the GCell graph — the fallback that rips up
// and reroutes overflowed nets during negotiated global routing.
// Searches inside a bounding box around the net's terminals (expanded
// by a margin) using the live Eq. 10 edge costs.  Each sink is reached
// by one A* wave from the growing tree, guided by the admissible and
// consistent bound
//     h = wireUnit * (|dx| * minDistX + |dy| * minDistY)
//         + viaUnit * |dlayer|
// (RoutingGraph::minWireDistX/Y): every edge costs at least its unit
// cost because the congestion penalty is >= 0, so the first pop of the
// sink is a least-cost path, the same cost plain Dijkstra finds.
// Search state lives in flat per-thread scratch (dist, parent and a
// generation stamp over box-local node indices), reused across calls.
//
// Containment contract (relied on by the conflict-free parallel batch
// reroute, DESIGN.md §6): the search relaxes only nodes inside the
// expanded terminal bbox, so every edge read or written lies within
// the terminal bbox expanded by boxMargin() gcells.  Edge-cost reads
// additionally touch the via counts of edge endpoints, which is why
// the batch planner adds one extra gcell of halo on top of the margin.
#pragma once

#include <vector>

#include "groute/pattern_route.hpp"
#include "groute/routing_graph.hpp"

namespace crp::groute {

class MazeRouter {
 public:
  explicit MazeRouter(const RoutingGraph& graph, int boxMargin = 6)
      : graph_(graph), boxMargin_(boxMargin) {}

  /// Routes a net over its terminals with sequential multi-source A*
  /// (the growing tree is the source set for the next sink).
  /// Read-only on the graph, with per-thread scratch: concurrent calls
  /// on one MazeRouter are safe.
  PatternResult routeTree(const std::vector<GPoint>& terminals) const;

  /// GCell margin added around the terminal bbox; the spatial extent
  /// of routeTree (single source of the batch-planner's halo).
  int boxMargin() const { return boxMargin_; }

 private:
  const RoutingGraph& graph_;
  int boxMargin_;
};

}  // namespace crp::groute
