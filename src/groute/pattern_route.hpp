// Fast 3D pattern routing (paper §IV.A / Alg. 3's getPatternRoute3D).
//
// For a 2-pin connection the router enumerates straight, L-shaped and
// Z-shaped 2D paths, then assigns each straight run to a routing layer
// of matching preferred direction with a dynamic program whose costs
// are the live Eq. 10 edge costs (wire runs) and via-stack costs
// (bends and pin access).  Multi-pin nets are decomposed through the
// RSMT topology and stitched with via stacks at Steiner nodes.
//
// Pattern routing is read-only on the RoutingGraph: CR&P prices many
// hypothetical cell positions against the same demand state (Alg. 3)
// and only the winning candidate is committed.  The Scratch overloads
// exist for that hot loop: one Scratch per thread keeps path
// enumeration, the layer-assignment DP tables and the Steiner build
// free of heap allocations in steady state.
//
// Containment contract (relied on by the conflict-free parallel batch
// reroute, DESIGN.md §6): straight, L and Z candidate paths, the RSMT
// topology (Hanan grid) and all Steiner/pin via stacks lie within the
// bounding box of the terminals, so a pattern route never reads or
// produces an edge outside the terminal bbox.
#pragma once

#include <cstddef>
#include <vector>

#include "groute/routing_graph.hpp"
#include "rsmt/steiner.hpp"

namespace crp::groute {

struct PatternResult {
  bool ok = false;
  double cost = 0.0;
  std::vector<RouteSegment> segments;
};

class PatternRouter {
 public:
  struct Run {
    // 2D straight run from (x0,y0) to (x1,y1); horizontal when y0==y1.
    int x0, y0, x1, y1;
    bool horizontal() const { return y0 == y1; }
  };

  /// Reusable work buffers.  Not thread-safe: use one per thread.
  struct Scratch {
    // candidate path enumeration (first numPaths entries are live)
    std::vector<std::vector<Run>> paths;
    std::size_t numPaths = 0;
    std::vector<int> picks;
    // layer-assignment DP, flattened numRuns x numLayers
    std::vector<double> dp;
    std::vector<int> parent;
    std::vector<int> layers;
    std::vector<int> bestLayers;
    std::vector<Run> bestRuns;
    // tree decomposition
    std::vector<geom::Point> pins;
    rsmt::SteinerTree tree;
    rsmt::Scratch rsmt;
    std::vector<std::pair<std::pair<int, int>, int>> pinLayer;
    struct ColumnTouch {
      int x, y, lo, hi;
    };
    std::vector<ColumnTouch> touches;
    std::vector<RouteSegment> segments;
  };

  /// Z-shape bends sampled per direction (evenly over the span when
  /// it is wider than this).
  static constexpr int kMaxZCandidates = 8;

  explicit PatternRouter(const RoutingGraph& graph) : graph_(graph) {}

  /// Routes between two gcell columns; `a.layer` / `b.layer` are the
  /// access (pin) layers charged for via stacks at the endpoints.
  PatternResult routeTwoPin(const GPoint& a, const GPoint& b) const;

  /// Routes a whole net given its terminals (pin layer + gcell): builds
  /// the Steiner topology, pattern-routes every tree edge and adds the
  /// via stacks that make the 3D route a single connected component.
  PatternResult routeTree(const std::vector<GPoint>& terminals) const;
  PatternResult routeTree(const std::vector<GPoint>& terminals,
                          Scratch& scratch) const;

  /// Price returned by priceTree when no pattern route exists (every
  /// candidate path crosses a hard-blocked edge).  Huge but finite:
  /// selection-ILP objective coefficients must stay finite, and any
  /// candidate priced at this level loses to every routable one.
  static constexpr double kUnroutablePrice = 1e12;

  /// Price of routeTree without building a result (same value, cheaper
  /// call used in hot loops).  The Scratch overload is allocation-free
  /// in steady state.  Returns kUnroutablePrice when the tree cannot
  /// be pattern-routed.
  double priceTree(const std::vector<GPoint>& terminals) const;
  double priceTree(const std::vector<GPoint>& terminals,
                   Scratch& scratch) const;

 private:
  /// Enumerates candidate 2D paths between two gcells into
  /// scratch.paths[0..scratch.numPaths).
  void buildCandidatePaths(int ax, int ay, int bx, int by,
                           Scratch& scratch) const;

  /// Wire cost of a run on a specific layer (infinity when the layer
  /// direction does not match).
  double runCost(const Run& run, int layer) const;

  /// Cost of a via stack at (x, y) spanning [lo, hi] layers.
  double viaStackCost(int x, int y, int lo, int hi) const;

  /// Layer-assignment DP over a candidate path; returns total cost and
  /// chosen layers (empty on failure).
  bool assignLayers(const std::vector<Run>& runs, int startLayer,
                    int endLayer, double& cost, std::vector<int>& layers,
                    Scratch& scratch) const;

  /// Core two-pin route: appends segments to `out`, returns the cost;
  /// `ok` is false when no path exists.
  double routeTwoPinInto(const GPoint& a, const GPoint& b, Scratch& scratch,
                         std::vector<RouteSegment>& out, bool& ok) const;

  /// Core tree route: fills scratch.segments, accumulates `cost`.
  bool routeTreeInto(const std::vector<GPoint>& terminals, Scratch& scratch,
                     double& cost) const;

  const RoutingGraph& graph_;
};

}  // namespace crp::groute
