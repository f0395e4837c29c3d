#include "groute/routing_graph.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace crp::groute {

namespace {

using db::LayerDir;

/// Number of track lines of `grid` whose coordinate lies in [lo, hi).
int tracksInSpan(const db::TrackGrid& grid, geom::Coord lo, geom::Coord hi) {
  if (grid.count <= 0 || grid.step <= 0) return 0;
  // First track index with coordinate >= lo.
  const geom::Coord first = grid.start;
  long long kLo = (lo - first + grid.step - 1);
  kLo = kLo >= 0 ? kLo / grid.step : 0;
  long long kHi = (hi - 1 - first);
  if (kHi < 0) return 0;
  kHi /= grid.step;
  kLo = std::max<long long>(kLo, 0);
  kHi = std::min<long long>(kHi, grid.count - 1);
  return static_cast<int>(std::max<long long>(0, kHi - kLo + 1));
}

}  // namespace

RoutingGraph::RoutingGraph(const db::Database& db, CostConfig config)
    : grid_(db.design().dieArea,
            std::max(1, db.design().gcellCountX),
            std::max(1, db.design().gcellCountY)),
      numLayers_(db.tech().numLayers()),
      config_(config) {
  dirs_.reserve(numLayers_);
  for (int l = 0; l < numLayers_; ++l) dirs_.push_back(db.tech().layer(l).dir);
  const int pitchLayer = numLayers_ > 1 ? 1 : 0;
  pitchUnit_ = std::max<geom::Coord>(1, db.tech().layer(pitchLayer).pitch);
  const int nx = grid_.countX();
  const int ny = grid_.countY();

  // Wire edge array layout: per layer, H layers have (nx-1)*ny edges,
  // V layers have nx*(ny-1).
  wireLayerOffset_.assign(numLayers_ + 1, 0);
  for (int l = 0; l < numLayers_; ++l) {
    const std::size_t count =
        layerDir(l) == LayerDir::kHorizontal
            ? static_cast<std::size_t>(std::max(0, nx - 1)) * ny
            : static_cast<std::size_t>(nx) * std::max(0, ny - 1);
    wireLayerOffset_[l + 1] = wireLayerOffset_[l] + count;
  }
  wireCap_.assign(wireLayerOffset_.back(), 0.0);
  wireUse_.assign(wireLayerOffset_.back(), 0.0);
  wireFixed_.assign(wireLayerOffset_.back(), 0.0);
  wireBlockedFrac_.assign(wireLayerOffset_.back(), 0.0);

  const std::size_t viaEdges =
      static_cast<std::size_t>(std::max(0, numLayers_ - 1)) * nx * ny;
  viaCap_.assign(viaEdges, 0.0);
  viaUse_.assign(viaEdges, 0.0);
  viaCount_.assign(static_cast<std::size_t>(numLayers_) * nx * ny, 0);

  buildCapacities(db);
  buildStepDists();
  chargeFixedUsage(db);
}

db::LayerDir RoutingGraph::layerDir(int layer) const {
  return dirs_.at(layer);
}

bool RoutingGraph::validNode(const GPoint& p) const {
  return p.layer >= 0 && p.layer < numLayers_ && p.x >= 0 &&
         p.x < grid_.countX() && p.y >= 0 && p.y < grid_.countY();
}

bool RoutingGraph::validWireEdge(const WireEdge& e) const {
  if (e.layer < 0 || e.layer >= numLayers_) return false;
  if (layerDir(e.layer) == LayerDir::kHorizontal) {
    return e.x >= 0 && e.x < grid_.countX() - 1 && e.y >= 0 &&
           e.y < grid_.countY();
  }
  return e.x >= 0 && e.x < grid_.countX() && e.y >= 0 &&
         e.y < grid_.countY() - 1;
}

int RoutingGraph::wireEdgeCountX(int layer) const {
  return layerDir(layer) == LayerDir::kHorizontal ? grid_.countX() - 1
                                                  : grid_.countX();
}

int RoutingGraph::wireEdgeCountY(int layer) const {
  return layerDir(layer) == LayerDir::kHorizontal ? grid_.countY()
                                                  : grid_.countY() - 1;
}

geom::Coord RoutingGraph::wireEdgeDist(const WireEdge& e) const {
  const db::GCell a{e.x, e.y};
  const db::GCell b = layerDir(e.layer) == LayerDir::kHorizontal
                          ? db::GCell{e.x + 1, e.y}
                          : db::GCell{e.x, e.y + 1};
  return grid_.centerDistance(a, b);
}

void RoutingGraph::buildStepDists() {
  // Dist(e) in pitches, divided exactly as the edge cost always has
  // been, so every cost stays the same double.
  auto step = [&](db::GCell a, db::GCell b) {
    return static_cast<double>(grid_.centerDistance(a, b)) /
           static_cast<double>(pitchUnit_);
  };
  for (int x = 0; x + 1 < grid_.countX(); ++x) {
    stepDistX_.push_back(step(db::GCell{x, 0}, db::GCell{x + 1, 0}));
  }
  for (int y = 0; y + 1 < grid_.countY(); ++y) {
    stepDistY_.push_back(step(db::GCell{0, y}, db::GCell{0, y + 1}));
  }
  if (!stepDistX_.empty()) {
    minStepDistX_ = *std::min_element(stepDistX_.begin(), stepDistX_.end());
  }
  if (!stepDistY_.empty()) {
    minStepDistY_ = *std::min_element(stepDistY_.begin(), stepDistY_.end());
  }
}

void RoutingGraph::buildCapacities(const db::Database& db) {
  // Wire capacity of an edge = number of that layer's tracks running
  // through the gcell span perpendicular to the edge direction.
  for (const db::TrackGrid& tracks : db.design().tracks) {
    const int layer = tracks.layer;
    if (layer < 0 || layer >= numLayers_) continue;
    if (tracks.dir != layerDir(layer)) continue;  // non-preferred: ignore
    if (layerDir(layer) == LayerDir::kHorizontal) {
      // Horizontal wires: tracks are horizontal lines at y = const; the
      // capacity of edge ((x,y),(x+1,y)) is the tracks inside row y.
      for (int gy = 0; gy < grid_.countY(); ++gy) {
        const auto rect = grid_.cellRect(db::GCell{0, gy});
        const int cap = tracksInSpan(tracks, rect.ylo, rect.yhi);
        for (int gx = 0; gx < grid_.countX() - 1; ++gx) {
          wireCap_[wireIndex(WireEdge{layer, gx, gy})] = cap;
        }
      }
    } else {
      for (int gx = 0; gx < grid_.countX(); ++gx) {
        const auto rect = grid_.cellRect(db::GCell{gx, 0});
        const int cap = tracksInSpan(tracks, rect.xlo, rect.xhi);
        for (int gy = 0; gy < grid_.countY() - 1; ++gy) {
          wireCap_[wireIndex(WireEdge{layer, gx, gy})] = cap;
        }
      }
    }
  }

  // Via capacity at (x, y) between l and l+1: bounded by the sparser of
  // the two adjacent layers' per-gcell track counts.
  for (int l = 0; l + 1 < numLayers_; ++l) {
    for (int gy = 0; gy < grid_.countY(); ++gy) {
      for (int gx = 0; gx < grid_.countX(); ++gx) {
        const auto rect = grid_.cellRect(db::GCell{gx, gy});
        double capBelow = 0.0, capAbove = 0.0;
        for (const db::TrackGrid& tracks : db.design().tracks) {
          if (tracks.dir != layerDir(tracks.layer)) continue;
          const bool horizontal =
              layerDir(tracks.layer) == LayerDir::kHorizontal;
          const int inSpan = horizontal
                                 ? tracksInSpan(tracks, rect.ylo, rect.yhi)
                                 : tracksInSpan(tracks, rect.xlo, rect.xhi);
          if (tracks.layer == l) capBelow += inSpan;
          if (tracks.layer == l + 1) capAbove += inSpan;
        }
        viaCap_[viaIndex(ViaEdge{l, gx, gy})] =
            std::max(1.0, std::min(capBelow, capAbove));
      }
    }
  }
}

void RoutingGraph::chargeFixedUsage(const db::Database& db) {
  // Routing blockages consume capacity in proportion to the fraction of
  // the gcell they cover on that layer (U_f of Eq. 9).
  // `hard` marks obstructions of fixed cells (macro blocks): besides
  // the proportional U_f charge, they accumulate a coverage fraction
  // per edge.  An edge whose two adjacent gcells are both fully covered
  // reaches 0.5 + 0.5 = 1.0 and becomes hard-blocked (infinite cost);
  // a boundary edge only collects 0.5 and stays routable, so nets can
  // reach pins on the macro rim but never tunnel through its interior.
  // Only fixed cells contribute: movable cells' obstructions would make
  // the blocked map position-dependent, and the incremental demand
  // audit treats U_f (and this map) as a construction-time snapshot.
  auto chargeRect = [&](int layer, const geom::Rect& rect, bool hard) {
    if (layer < 0 || layer >= numLayers_) return;
    const db::GCell lo = grid_.cellAt({rect.xlo, rect.ylo});
    const db::GCell hi = grid_.cellAt({rect.xhi - 1, rect.yhi - 1});
    for (int gy = lo.y; gy <= hi.y; ++gy) {
      for (int gx = lo.x; gx <= hi.x; ++gx) {
        const geom::Rect cellRect = grid_.cellRect(db::GCell{gx, gy});
        const geom::Rect overlap = cellRect.intersect(rect);
        if (overlap.empty()) continue;
        const double fraction = static_cast<double>(overlap.area()) /
                                static_cast<double>(cellRect.area());
        // Charge both wire edges touching this gcell along the layer
        // direction (half each so a fully covered gcell consumes one
        // gcell worth of capacity).
        if (layerDir(layer) == LayerDir::kHorizontal) {
          for (const int ex : {gx - 1, gx}) {
            const WireEdge e{layer, ex, gy};
            if (validWireEdge(e)) {
              wireFixed_[wireIndex(e)] +=
                  0.5 * fraction * wireCap_[wireIndex(e)];
              if (hard) wireBlockedFrac_[wireIndex(e)] += 0.5 * fraction;
            }
          }
        } else {
          for (const int ey : {gy - 1, gy}) {
            const WireEdge e{layer, gx, ey};
            if (validWireEdge(e)) {
              wireFixed_[wireIndex(e)] +=
                  0.5 * fraction * wireCap_[wireIndex(e)];
              if (hard) wireBlockedFrac_[wireIndex(e)] += 0.5 * fraction;
            }
          }
        }
      }
    }
  };

  for (const db::Blockage& blockage : db.design().blockages) {
    if (blockage.layer != db::kInvalidId) {
      chargeRect(blockage.layer, blockage.rect, /*hard=*/false);
    }
  }
  // Macro obstructions of placed cells.
  for (db::CellId c = 0; c < db.numCells(); ++c) {
    const auto& comp = db.cell(c);
    const auto& macro = db.macroOf(c);
    for (const db::Obstruction& obs : macro.obstructions) {
      chargeRect(obs.layer,
                 geom::transformRect(obs.rect, comp.pos, macro.width,
                                     macro.height, comp.orient),
                 /*hard=*/comp.fixed);
    }
  }
}

double RoutingGraph::demand(const WireEdge& e) const {
  return demandAt(e, wireIndex(e));
}

double RoutingGraph::demandAt(const WireEdge& e, std::size_t idx) const {
  const std::size_t src = nodeIndex(GPoint{e.layer, e.x, e.y});
  const std::size_t dst =
      src + (isHorizontal(e.layer) ? 1 : grid_.countX());
  const double viaEstimate =
      std::sqrt((viaCount_[src] + viaCount_[dst]) / 2.0);
  return wireUse_[idx] + wireFixed_[idx] + config_.beta * viaEstimate;
}

namespace {

/// Intended Eq. 10 logistic: 0.5 at D == C, -> 1 under overflow.
double logisticPenalty(double demand, double capacity, double slope) {
  return 1.0 / (1.0 + std::exp(-slope * (demand - capacity)));
}

}  // namespace

double RoutingGraph::wireEdgeCost(const WireEdge& e) const {
  // Edges inside a fixed macro's obstruction are impassable, not merely
  // expensive: the pattern DP and the maze router both treat infinity
  // as "no edge" and detour or fail cleanly.
  const std::size_t idx = wireIndex(e);
  if (wireBlockedFrac_[idx] >= kHardBlockedFraction) {
    return std::numeric_limits<double>::infinity();
  }
  double penalty = 0.0;
  if (config_.congestionPenalty) {
    penalty = logisticPenalty(demandAt(e, idx), wireCap_[idx], config_.slope);
  }
  // Dist(e) in wire units (pitches), so wireUnit/viaUnit carry the
  // contest's relative weighting.
  return config_.wireUnit * wireDistUnits(e) * (1.0 + penalty);
}

double RoutingGraph::viaEdgeCost(const ViaEdge& e) const {
  double penalty = 0.0;
  if (config_.congestionPenalty) {
    penalty = logisticPenalty(viaUsage(e), viaCapacity(e), config_.slope);
  }
  return config_.viaUnit * (1.0 + penalty);
}

double RoutingGraph::overflow(const WireEdge& e) const {
  return std::max(0.0, demand(e) - capacity(e));
}

bool RoutingGraph::routeInBounds(const NetRoute& route) const {
  for (const RouteSegment& seg : route.segments) {
    if (!validNode(seg.a) || !validNode(seg.b)) return false;
    if (!seg.isVia() && seg.a.layer != seg.b.layer) return false;
    if (!seg.isVia()) {
      if (seg.a.x != seg.b.x && seg.a.y != seg.b.y) return false;
      const bool horizontal = seg.a.y == seg.b.y && seg.a.x != seg.b.x;
      const auto dir = layerDir(seg.a.layer);
      if (seg.a.x == seg.b.x && seg.a.y == seg.b.y) continue;  // point
      if (horizontal && dir != LayerDir::kHorizontal) return false;
      if (!horizontal && dir != LayerDir::kVertical) return false;
    } else if (seg.a.x != seg.b.x || seg.a.y != seg.b.y) {
      return false;
    }
  }
  return true;
}

void RoutingGraph::applyRoute(const NetRoute& route, int sign) {
  // The scalar totals are accumulated locally and published with one
  // relaxed fetch_add each: exact integer sums, so concurrent
  // disjoint-route calls commute (see the header's contract).
  geom::Coord wireDelta = 0;
  long viaDelta = 0;
  for (const RouteSegment& rawSeg : route.segments) {
    const RouteSegment seg = normalized(rawSeg);
    if (seg.isVia()) {
      for (int l = seg.a.layer; l < seg.b.layer; ++l) {
        viaUse_[viaIndex(ViaEdge{l, seg.a.x, seg.a.y})] += sign;
        viaDelta += sign;
      }
      for (int l = seg.a.layer; l <= seg.b.layer; ++l) {
        viaCount_[nodeIndex(GPoint{l, seg.a.x, seg.a.y})] += sign;
      }
    } else if (seg.a.x != seg.b.x) {
      for (int x = seg.a.x; x < seg.b.x; ++x) {
        const WireEdge e{seg.a.layer, x, seg.a.y};
        wireUse_[wireIndex(e)] += sign;
        wireDelta += sign * wireEdgeDist(e);
      }
    } else if (seg.a.y != seg.b.y) {
      for (int y = seg.a.y; y < seg.b.y; ++y) {
        const WireEdge e{seg.a.layer, seg.a.x, y};
        wireUse_[wireIndex(e)] += sign;
        wireDelta += sign * wireEdgeDist(e);
      }
    }
  }
  if (wireDelta != 0) {
    totalWireDbu_.fetch_add(wireDelta, std::memory_order_relaxed);
  }
  if (viaDelta != 0) totalVias_.fetch_add(viaDelta, std::memory_order_relaxed);
}

RoutingGraph::CongestionStats RoutingGraph::congestionStats() const {
  CongestionStats stats;
  for (int l = 0; l < numLayers_; ++l) {
    for (int y = 0; y < wireEdgeCountY(l); ++y) {
      for (int x = 0; x < wireEdgeCountX(l); ++x) {
        const WireEdge e{l, x, y};
        const double ov = overflow(e);
        ++stats.totalEdges;
        if (ov > 0.0) {
          ++stats.overflowedEdges;
          stats.totalOverflow += ov;
          stats.maxOverflow = std::max(stats.maxOverflow, ov);
        }
      }
    }
  }
  return stats;
}

}  // namespace crp::groute
