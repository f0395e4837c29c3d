// The CUGR-substitute global router (paper Fig. 1 step 1).
//
// Flow: RSMT + 3D pattern route every net (cheapest first), then
// negotiated rip-up-and-reroute rounds that re-route overflowed nets
// with the 3D maze router.  The live Eq. 9/10 cost model steers both
// phases away from congestion.
//
// The router is also the "Update Database" engine of CR&P (§IV.B.5):
// rerouteNet() rips up and re-routes the nets of moved cells and keeps
// the demand maps consistent.
//
// Batch reroutes (the UD affected-net set and each RRR victim round)
// run through rerouteNets(): the pending nets are partitioned into
// conflict-free batches by greedy coloring over their expanded conflict
// bboxes (old route extent + current terminals + maze margin + one
// gcell of cost-read halo) and each batch is rerouted concurrently on
// a thread pool.  Because batch members touch pairwise-disjoint graph
// regions, the result is bit-identical at any thread count; see
// DESIGN.md §6 "Parallel conflict-free RRR batching".
#pragma once

#include <memory>
#include <vector>

#include "db/database.hpp"
#include "groute/maze_route.hpp"
#include "groute/pattern_route.hpp"
#include "groute/routing_graph.hpp"
#include "lefdef/guide_io.hpp"
#include "util/thread_pool.hpp"

namespace crp::groute {

struct GlobalRouterOptions {
  CostConfig cost;
  int rrrRounds = 3;      ///< negotiated reroute rounds after initial route
  int mazeMargin = 6;     ///< gcell margin around the net bbox for maze
  /// Worker threads for batch reroutes (rerouteNets): 1 = serial,
  /// 0 = hardware concurrency.  The route fingerprint and demand maps
  /// are bit-identical across all values (determinism contract).
  int routerThreads = 0;
  /// Shared worker pool for batch reroutes.  Null: the router builds a
  /// private pool of routerThreads workers on first use, as before.
  /// Non-null: batches run on this pool (the serve daemon's, shared
  /// with the framework phases) — except when routerThreads == 1,
  /// which still forces serial in-place execution.  Must outlive the
  /// router.
  util::ThreadPool* sharedPool = nullptr;
};

struct GlobalRouteStats {
  geom::Coord wirelengthDbu = 0;
  long vias = 0;
  double totalOverflow = 0.0;
  int overflowedEdges = 0;
  int openNets = 0;
  int reroutedNets = 0;  ///< nets touched by RRR rounds
};

/// Outcome of one rerouteNets() call (also published as gr.par.*
/// observability counters).
struct RerouteBatchStats {
  int nets = 0;       ///< pending nets handed in
  int batches = 0;    ///< conflict-free batches executed
  int conflicts = 0;  ///< bbox-overlap rejections during greedy coloring
  int failed = 0;     ///< nets whose reroute failed (old route restored)
};

class GlobalRouter {
 public:
  explicit GlobalRouter(const db::Database& db,
                        GlobalRouterOptions options = {});

  /// Routes every net from scratch: pattern route + RRR.
  GlobalRouteStats run();

  /// Pin terminals of a net at the current cell positions.
  std::vector<GPoint> netTerminals(db::NetId net) const;

  /// Inclusive gcell extent of everything a net occupies or can be
  /// asked to rip up: current terminals plus the committed route.
  /// Empty for an unrouted net with fewer than one gcell of pins.
  GCellRect netExtent(db::NetId net) const;

  /// Nets whose extent overlaps any of `regions`, in net-id order
  /// (deterministic).  The ECO engine's "routes crossing the dirty
  /// region" query.
  std::vector<db::NetId> netsTouchingRegion(
      const std::vector<GCellRect>& regions) const;

  /// Grows the route table after nets were appended to the database
  /// (ECO net adds); existing routes are untouched.  The router never
  /// observes net removals — ECO detaches pins instead (docs/eco.md).
  void syncNetCount();

  /// True when any wire edge of the net's committed route is currently
  /// overflowed — the RRR victim test, exposed so the ECO engine can
  /// restrict its congestion response to overflowed crossers instead of
  /// every route near the delta.  With `within`, only overflowed edges
  /// whose gcell lies inside one of those rects count: a crosser that
  /// is congested solely at some far-away hotspot is not the ECO's
  /// problem.  False for unrouted nets.
  bool routeOverflowed(db::NetId net,
                       const std::vector<GCellRect>* within = nullptr) const;

  /// Removes a net's route from the demand maps (no-op when unrouted).
  void ripUp(db::NetId net);

  /// Rip up + reroute at current cell positions (maze search against
  /// the live congestion state, pattern fallback — the same quality
  /// class the initial RRR rounds produce, so CR&P's Update-Database
  /// reroutes do not degrade the via discipline of the solution).
  /// When both maze and pattern fail, the previous route (and its
  /// demand) is restored so no demand ever vanishes silently; returns
  /// false in that case.
  bool rerouteNet(db::NetId net, bool mazeFirst = true);

  /// Rip up + reroute a set of nets through the conflict-free batch
  /// engine: deterministic batch plan (planRerouteBatches), each batch
  /// executed concurrently on options().routerThreads workers.  The
  /// resulting routes and demand maps are bit-identical for every
  /// thread count, including 1.
  RerouteBatchStats rerouteNets(const std::vector<db::NetId>& nets,
                                bool mazeFirst = true);

  /// The deterministic conflict-free partition used by rerouteNets:
  /// greedy coloring in input order over each net's conflict bbox (old
  /// route extent + current terminal bbox, expanded by the maze margin
  /// plus one halo gcell for edge-cost endpoint reads).  Nets within
  /// one batch have pairwise-disjoint conflict bboxes.  Exposed for
  /// tests; `conflicts`, when given, receives the number of overlap
  /// rejections observed while coloring.
  std::vector<std::vector<db::NetId>> planRerouteBatches(
      const std::vector<db::NetId>& nets, int* conflicts = nullptr) const;

  /// Reconfigures the batch-reroute worker count (1 = serial,
  /// 0 = hardware); value-exact per the determinism contract.
  void setRouterThreads(int threads);

  /// Cost of a net's committed route at the live edge prices; the
  /// criticality metric of Alg. 1.  Zero for unrouted nets.
  double netRouteCost(db::NetId net) const;

  const NetRoute& route(db::NetId net) const { return routes_.at(net); }
  /// Mutable route access for corruption-injection tests (the audit
  /// mutation tests break one invariant at a time).  Callers editing
  /// segments are responsible for the demand maps (applyRoute) — the
  /// router itself never leaves them inconsistent.
  NetRoute& mutableRoute(db::NetId net) { return routes_.at(net); }
  RoutingGraph& graph() { return graph_; }
  const RoutingGraph& graph() const { return graph_; }
  const db::Database& database() const { return db_; }

  GlobalRouteStats stats() const;

  /// Guides for the detailed router, one entry per routed net.
  std::vector<lefdef::NetGuide> buildGuides() const;

  const GlobalRouterOptions& options() const { return options_; }

 private:
  /// Lazily created pool sized by options_.routerThreads; nullptr when
  /// the configuration is serial.
  util::ThreadPool* pool();

  const db::Database& db_;
  GlobalRouterOptions options_;
  RoutingGraph graph_;
  PatternRouter pattern_;
  MazeRouter maze_;
  std::vector<NetRoute> routes_;
  std::unique_ptr<util::ThreadPool> pool_;
  int reroutedNets_ = 0;
};

}  // namespace crp::groute
