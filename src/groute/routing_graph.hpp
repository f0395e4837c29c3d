// The 3D GCell routing graph (paper §III): per-edge capacity C_e and
// demand D_e, via counts per node, and the cost model of §IV.A
// (Eq. 9 / Eq. 10).
//
// Note on Eq. 10's penalty: the paper prints
//     penalty(e) = 1 / (1 + exp(S * (D_e - C_e)))
// which *decreases* as demand exceeds capacity — a sign typo (the cited
// NTHU-Route penalty grows with congestion).  This implementation uses
// the intended logistic  1 / (1 + exp(-S * (D_e - C_e))), which is 0.5
// at D_e == C_e and approaches 1 under overflow, matching the paper's
// description that "increasing S causes faster overflow".
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "db/database.hpp"
#include "db/gcell_grid.hpp"
#include "groute/route.hpp"

namespace crp::groute {

/// Cost-model parameters (paper values in DESIGN.md §5).
struct CostConfig {
  double beta = 1.5;      ///< via-demand weight in Eq. 9
  double slope = 1.0;     ///< S: logistic slope in Eq. 10
  /// Unit_e for wire edges per *pitch* of wire (contest wire weight:
  /// 0.5 per wire unit, where a wire unit is one routing pitch), so a
  /// via (2.0) trades off against 4 pitches of wire exactly as in the
  /// ISPD-2018 metric the paper quotes in §V.B.
  double wireUnit = 0.5;
  double viaUnit = 2.0;   ///< Unit_e for via edges (contest via weight)
  /// When false the logistic congestion penalty is dropped entirely
  /// (cost = Unit_e * Dist(e)); used by the ablation bench and by the
  /// baseline [18] re-implementation, whose cost has no congestion term.
  bool congestionPenalty = true;
};

/// Identifies a wire edge by its lower endpoint: on a horizontal layer
/// the edge goes (x,y)->(x+1,y); on a vertical layer (x,y)->(x,y+1).
struct WireEdge {
  int layer = 0;
  int x = 0;
  int y = 0;
};

/// Identifies a via edge between `layer` and `layer + 1` at (x, y).
struct ViaEdge {
  int layer = 0;
  int x = 0;
  int y = 0;
};

class RoutingGraph {
 public:
  /// Builds the graph from the database: computes per-edge track
  /// capacities from the design's track grids and charges fixed usage
  /// (U_f) from routing blockages and macro obstructions.
  RoutingGraph(const db::Database& db, CostConfig config = {});

  const db::GCellGrid& grid() const { return grid_; }
  int numLayers() const { return numLayers_; }
  const CostConfig& config() const { return config_; }
  void setConfig(const CostConfig& config) { config_ = config; }

  // ---- capacity / demand --------------------------------------------------

  double capacity(const WireEdge& e) const { return wireCap_[wireIndex(e)]; }
  double wireUsage(const WireEdge& e) const { return wireUse_[wireIndex(e)]; }
  double fixedUsage(const WireEdge& e) const {
    return wireFixed_[wireIndex(e)];
  }
  int viaCount(const GPoint& node) const { return viaCount_[nodeIndex(node)]; }
  double viaCapacity(const ViaEdge& e) const { return viaCap_[viaIndex(e)]; }
  double viaUsage(const ViaEdge& e) const { return viaUse_[viaIndex(e)]; }

  /// Fraction of the edge's two adjacent gcells covered by obstructions
  /// of *fixed* cells (macro blocks).  1.0 means both gcells are fully
  /// inside macro metal on this layer.
  double blockedFraction(const WireEdge& e) const {
    return wireBlockedFrac_[wireIndex(e)];
  }

  /// True when the edge runs through the interior of a fixed macro's
  /// obstruction on its layer: both adjacent gcells fully covered.
  /// Hard-blocked edges cost infinity, so the pattern DP and the maze
  /// router never cross them — routes must detour around the macro or
  /// hop to an unobstructed layer.  Edges merely touching a macro
  /// boundary accumulate only 0.5 and stay soft (priced via U_f).
  bool hardBlocked(const WireEdge& e) const {
    return wireBlockedFrac_[wireIndex(e)] >= kHardBlockedFraction;
  }

  /// D_e per Eq. 9: U_w + U_f + beta * sqrt((V_src + V_dst) / 2).
  double demand(const WireEdge& e) const;

  /// Edge costs per Eq. 10.
  double wireEdgeCost(const WireEdge& e) const;
  double viaEdgeCost(const ViaEdge& e) const;

  /// Overflow of an edge: max(0, D_e - C_e).
  double overflow(const WireEdge& e) const;

  // ---- demand bookkeeping ---------------------------------------------------

  /// Adds (sign=+1) or removes (sign=-1) a route's demand.
  ///
  /// Concurrency contract (parallel RRR batching, DESIGN.md §6):
  /// concurrent applyRoute calls are safe iff the routes touch disjoint
  /// wire/via edges and gcell columns — per-edge demand entries are
  /// then distinct memory locations, and the scalar wire/via totals are
  /// relaxed atomics whose integer sums are order-independent, so the
  /// final state is bit-identical to any sequential interleaving.
  void applyRoute(const NetRoute& route, int sign);

  /// True when every wire edge the route crosses exists in the graph.
  bool routeInBounds(const NetRoute& route) const;

  // ---- aggregate statistics ---------------------------------------------------

  struct CongestionStats {
    double totalOverflow = 0.0;
    double maxOverflow = 0.0;
    int overflowedEdges = 0;
    int totalEdges = 0;
  };
  CongestionStats congestionStats() const;

  /// Sum over all nets of wire hops weighted by gcell distance — the
  /// global-route wirelength in DBU (tracked incrementally).
  geom::Coord totalWireDbu() const {
    return totalWireDbu_.load(std::memory_order_relaxed);
  }
  /// Total via edges in use (counted with multiplicity).
  long totalVias() const { return totalVias_.load(std::memory_order_relaxed); }

  // ---- geometry helpers ---------------------------------------------------

  bool validWireEdge(const WireEdge& e) const;
  bool validNode(const GPoint& p) const;
  db::LayerDir layerDir(int layer) const;
  /// Unchecked direction test for the routers' inner loops; `layer`
  /// must be in [0, numLayers()).
  bool isHorizontal(int layer) const {
    return dirs_[layer] == db::LayerDir::kHorizontal;
  }

  /// Distance between gcell centers along an edge (Dist(e) of Eq. 10).
  geom::Coord wireEdgeDist(const WireEdge& e) const;

  /// Dist(e) in wire units (pitches): the same double as
  /// wireEdgeDist(e) / pitchUnit(), read from a table built once at
  /// construction.  Dist of an edge depends only on its column (H
  /// layers) or row (V layers), so the table is per axis.
  double wireDistUnits(const WireEdge& e) const {
    return isHorizontal(e.layer) ? stepDistX_[e.x] : stepDistY_[e.y];
  }
  /// Smallest one-step wire Dist, in wire units, along x and along y
  /// (0 when the grid has no edge along that axis): the per-step
  /// lengths of the maze router's A* lower bound.
  double minWireDistX() const { return minStepDistX_; }
  double minWireDistY() const { return minStepDistY_; }

  /// Routing pitch used to convert Dist(e) from DBU to wire units.
  geom::Coord pitchUnit() const { return pitchUnit_; }

  /// Iteration support for stats/benches: edge counts per layer.
  int wireEdgeCountX(int layer) const;  ///< edges along x (H layers)
  int wireEdgeCountY(int layer) const;

  /// Flattened edge index helpers (exposed for the detailed router's
  /// guide expansion and for tests).
  std::size_t wireIndex(const WireEdge& e) const {
    const std::size_t rowLength =
        isHorizontal(e.layer) ? grid_.countX() - 1 : grid_.countX();
    return wireLayerOffset_[e.layer] +
           static_cast<std::size_t>(e.y) * rowLength + e.x;
  }
  std::size_t viaIndex(const ViaEdge& e) const {
    return (static_cast<std::size_t>(e.layer) * grid_.countY() + e.y) *
               grid_.countX() +
           e.x;
  }
  std::size_t nodeIndex(const GPoint& p) const {
    return (static_cast<std::size_t>(p.layer) * grid_.countY() + p.y) *
               grid_.countX() +
           p.x;
  }

 private:
  static constexpr double kHardBlockedFraction = 0.999;

  void buildCapacities(const db::Database& db);
  void buildStepDists();
  void chargeFixedUsage(const db::Database& db);
  /// D_e of the edge at wire index `idx` (== wireIndex(e)).
  double demandAt(const WireEdge& e, std::size_t idx) const;

  db::GCellGrid grid_;
  int numLayers_ = 0;
  CostConfig config_;
  std::vector<db::LayerDir> dirs_;

  // Per-layer dense arrays, all indexed by the helpers above.
  std::vector<double> wireCap_;
  std::vector<double> wireUse_;
  std::vector<double> wireFixed_;
  std::vector<double> wireBlockedFrac_;  ///< fixed-macro coverage fraction
  std::vector<double> viaCap_;
  std::vector<double> viaUse_;
  std::vector<int> viaCount_;
  std::vector<std::size_t> wireLayerOffset_;  ///< offset per layer
  /// Dist(e) in wire units of the edge (x,*)->(x+1,*) / (*,y)->(*,y+1).
  std::vector<double> stepDistX_;
  std::vector<double> stepDistY_;
  double minStepDistX_ = 0.0;
  double minStepDistY_ = 0.0;

  // Relaxed atomics: the only cross-thread shared scalars under the
  // conflict-free batch reroute (per-edge entries are disjoint there).
  std::atomic<geom::Coord> totalWireDbu_{0};
  std::atomic<long> totalVias_{0};
  geom::Coord pitchUnit_ = 1;
};

}  // namespace crp::groute
