#include "groute/global_router.hpp"

#include <algorithm>
#include <atomic>
#include <map>
#include <numeric>

#include "obs/obs.hpp"
#include "util/logger.hpp"

namespace crp::groute {

GlobalRouter::GlobalRouter(const db::Database& db,
                           GlobalRouterOptions options)
    : db_(db),
      options_(options),
      graph_(db, options.cost),
      pattern_(graph_),
      maze_(graph_, options.mazeMargin),
      routes_(db.numNets()) {
  for (db::NetId n = 0; n < db.numNets(); ++n) routes_[n].net = n;
}

std::vector<GPoint> GlobalRouter::netTerminals(db::NetId net) const {
  std::vector<GPoint> terminals;
  for (const db::NetPin& pin : db_.net(net).pins) {
    const geom::Point pos = db_.pinPosition(pin);
    const db::GCell g = graph_.grid().cellAt(pos);
    int layer = 0;
    if (pin.isIo()) {
      layer = db_.design().ioPins[pin.ioPin()].layer;
    } else {
      const auto shapes = db_.pinShapes(pin.compPin());
      if (!shapes.empty()) layer = shapes.front().layer;
    }
    terminals.push_back(GPoint{layer, g.x, g.y});
  }
  // Deduplicate identical terminals (multiple pins in one gcell column
  // at the same layer).
  std::sort(terminals.begin(), terminals.end());
  terminals.erase(std::unique(terminals.begin(), terminals.end()),
                  terminals.end());
  return terminals;
}

GCellRect GlobalRouter::netExtent(db::NetId net) const {
  GCellRect rect;
  for (const GPoint& t : netTerminals(net)) rect.cover(t.x, t.y);
  for (const RouteSegment& seg : routes_.at(net).segments) {
    rect.cover(seg.a.x, seg.a.y);
    rect.cover(seg.b.x, seg.b.y);
  }
  return rect;
}

std::vector<db::NetId> GlobalRouter::netsTouchingRegion(
    const std::vector<GCellRect>& regions) const {
  std::vector<db::NetId> nets;
  if (regions.empty()) return nets;
  for (db::NetId net = 0; net < db_.numNets(); ++net) {
    if (overlapsAny(netExtent(net), regions)) nets.push_back(net);
  }
  return nets;
}

void GlobalRouter::syncNetCount() {
  while (routes_.size() < static_cast<std::size_t>(db_.numNets())) {
    NetRoute route;
    route.net = static_cast<db::NetId>(routes_.size());
    routes_.push_back(std::move(route));
  }
}

bool GlobalRouter::routeOverflowed(
    db::NetId net, const std::vector<GCellRect>* within) const {
  const NetRoute& route = routes_.at(net);
  if (!route.routed) return false;
  const auto counts = [&](int x, int y) {
    if (within == nullptr) return true;
    GCellRect point;
    point.cover(x, y);
    return overlapsAny(point, *within);
  };
  for (const RouteSegment& rawSeg : route.segments) {
    const RouteSegment seg = normalized(rawSeg);
    if (seg.isVia()) continue;
    if (seg.a.x != seg.b.x) {
      for (int x = seg.a.x; x < seg.b.x; ++x) {
        if (counts(x, seg.a.y) &&
            graph_.overflow(WireEdge{seg.a.layer, x, seg.a.y}) > 0.0) {
          return true;
        }
      }
    } else {
      for (int y = seg.a.y; y < seg.b.y; ++y) {
        if (counts(seg.a.x, y) &&
            graph_.overflow(WireEdge{seg.a.layer, seg.a.x, y}) > 0.0) {
          return true;
        }
      }
    }
  }
  return false;
}

void GlobalRouter::ripUp(db::NetId net) {
  NetRoute& route = routes_.at(net);
  if (!route.routed) return;
  graph_.applyRoute(route, -1);
  route.clear();
}

bool GlobalRouter::rerouteNet(db::NetId net, bool mazeFirst) {
  CRP_OBS_COUNT("gr.reroutes", 1);
  NetRoute& route = routes_.at(net);
  // Rip up, keeping the old segments so a double routing failure can
  // restore the previous route instead of silently dropping its demand.
  NetRoute previous;
  previous.net = net;
  if (route.routed) {
    graph_.applyRoute(route, -1);
    previous.segments = std::move(route.segments);
    previous.routed = true;
    route.clear();
  }
  const auto terminals = netTerminals(net);
  PatternResult result = mazeFirst ? maze_.routeTree(terminals)
                                   : pattern_.routeTree(terminals);
  if (!result.ok) {
    result = mazeFirst ? pattern_.routeTree(terminals)
                       : maze_.routeTree(terminals);
  }
  if (!result.ok) {
    if (previous.routed) {
      // The restored route may be stale relative to moved pins, but it
      // keeps the demand maps exact and the net accounted for; the
      // caller decides how to handle the failure.
      route.segments = std::move(previous.segments);
      route.routed = true;
      graph_.applyRoute(route, +1);
    }
    CRP_OBS_COUNT("gr.reroute_failures", 1);
    CRP_OBS_EVENT("gr", "reroute.fail", net);
    return false;
  }
  route.segments = std::move(result.segments);
  route.routed = true;
  graph_.applyRoute(route, +1);
  return true;
}

util::ThreadPool* GlobalRouter::pool() {
  if (options_.routerThreads == 1) return nullptr;
  if (options_.sharedPool != nullptr) return options_.sharedPool;
  const std::size_t want =
      options_.routerThreads == 0
          ? std::max<std::size_t>(1, std::thread::hardware_concurrency())
          : static_cast<std::size_t>(options_.routerThreads);
  if (want <= 1) return nullptr;
  if (!pool_ || pool_->threadCount() != want) {
    pool_ = std::make_unique<util::ThreadPool>(want);
  }
  return pool_.get();
}

void GlobalRouter::setRouterThreads(int threads) {
  if (threads == options_.routerThreads) return;
  options_.routerThreads = threads;
  pool_.reset();  // lazily rebuilt at the next rerouteNets call
}

std::vector<std::vector<db::NetId>> GlobalRouter::planRerouteBatches(
    const std::vector<db::NetId>& nets, int* conflicts) const {
  // Conflict bbox per net: everything its rip-up + reroute can read or
  // write.  Writes stay within the old route extent and the new search
  // region (terminal bbox + maze margin); cost reads additionally
  // touch the via counts of edge endpoints, covered by one extra halo
  // gcell.  First-fit coloring over the rects — largest first, so the
  // few die-spanning nets claim batches before the many local nets
  // pack around them — yields batches whose members are pairwise
  // disjoint.  The plan depends only on the input order and the
  // current routes/positions, so it is identical for every thread
  // count.
  const int margin = maze_.boxMargin() + 1;
  const int maxX = graph_.grid().countX() - 1;
  const int maxY = graph_.grid().countY() - 1;
  int rejections = 0;

  std::vector<GCellRect> rects(nets.size());
  for (std::size_t i = 0; i < nets.size(); ++i) {
    rects[i] = netExtent(nets[i]);
    rects[i].expand(margin, maxX, maxY);
  }
  std::vector<std::size_t> order(nets.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&rects](std::size_t a, std::size_t b) {
                     return rects[a].area() > rects[b].area();
                   });

  std::vector<std::vector<db::NetId>> batches;
  std::vector<std::vector<GCellRect>> batchRects;
  for (const std::size_t i : order) {
    const GCellRect& rect = rects[i];
    std::size_t color = 0;
    for (; color < batches.size(); ++color) {
      bool clash = false;
      for (const GCellRect& other : batchRects[color]) {
        if (rect.overlaps(other)) {
          clash = true;
          break;
        }
      }
      if (!clash) break;
      ++rejections;
    }
    if (color == batches.size()) {
      batches.emplace_back();
      batchRects.emplace_back();
    }
    batches[color].push_back(nets[i]);
    batchRects[color].push_back(rect);
  }
  if (conflicts != nullptr) *conflicts = rejections;
  return batches;
}

RerouteBatchStats GlobalRouter::rerouteNets(const std::vector<db::NetId>& nets,
                                            bool mazeFirst) {
  RerouteBatchStats stats;
  stats.nets = static_cast<int>(nets.size());
  if (nets.empty()) return stats;
  CRP_OBS_SPAN_ARG("groute", "gr.reroute_batch", nets.size());

  const auto batches = planRerouteBatches(nets, &stats.conflicts);
  stats.batches = static_cast<int>(batches.size());
  util::ThreadPool* workers = pool();
  std::atomic<int> failed{0};
  for (const auto& batch : batches) {
    CRP_OBS_HISTOGRAM("gr.par.batch_nets", batch.size());
    if (workers == nullptr || batch.size() == 1) {
      for (const db::NetId net : batch) {
        if (!rerouteNet(net, mazeFirst)) {
          failed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    } else {
      workers->parallelFor(batch.size(), [&](std::size_t i) {
        if (!rerouteNet(batch[i], mazeFirst)) {
          failed.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
  }
  stats.failed = failed.load(std::memory_order_relaxed);

  CRP_OBS_COUNT("gr.par.calls", 1);
  CRP_OBS_COUNT("gr.par.nets", stats.nets);
  CRP_OBS_COUNT("gr.par.batches", stats.batches);
  CRP_OBS_COUNT("gr.par.conflicts", stats.conflicts);
  // Parallel efficiency: fraction of batch thread-slots filled (1.0 =
  // every worker busy in every batch, assuming uniform net cost).
  const double slots = static_cast<double>(stats.batches) *
                       static_cast<double>(
                           workers != nullptr ? workers->threadCount() : 1);
  CRP_OBS_GAUGE_SET("gr.par.efficiency",
                    slots > 0.0 ? std::min(1.0, stats.nets / slots) : 1.0);
  return stats;
}

double GlobalRouter::netRouteCost(db::NetId net) const {
  const NetRoute& route = routes_.at(net);
  if (!route.routed) return 0.0;
  double cost = 0.0;
  for (const RouteSegment& rawSeg : route.segments) {
    const RouteSegment seg = normalized(rawSeg);
    if (seg.isVia()) {
      for (int l = seg.a.layer; l < seg.b.layer; ++l) {
        cost += graph_.viaEdgeCost(ViaEdge{l, seg.a.x, seg.a.y});
      }
    } else if (seg.a.x != seg.b.x) {
      for (int x = seg.a.x; x < seg.b.x; ++x) {
        cost += graph_.wireEdgeCost(WireEdge{seg.a.layer, x, seg.a.y});
      }
    } else {
      for (int y = seg.a.y; y < seg.b.y; ++y) {
        cost += graph_.wireEdgeCost(WireEdge{seg.a.layer, seg.a.x, y});
      }
    }
  }
  return cost;
}

GlobalRouteStats GlobalRouter::run() {
  // Initial routing order: cheapest (smallest HPWL) nets first, so
  // large nets see the congestion the small ones created and detour.
  std::vector<db::NetId> order(db_.numNets());
  std::iota(order.begin(), order.end(), 0);
  std::vector<geom::Coord> hpwl(db_.numNets());
  for (db::NetId n = 0; n < db_.numNets(); ++n) hpwl[n] = db_.netHpwl(n);
  std::sort(order.begin(), order.end(), [&](db::NetId a, db::NetId b) {
    if (hpwl[a] != hpwl[b]) return hpwl[a] < hpwl[b];
    return a < b;
  });

  {
    CRP_OBS_SPAN("groute", "gr.initial");
    for (const db::NetId net : order) {
      rerouteNet(net, /*mazeFirst=*/false);  // pattern first: bulk speed
    }
    CRP_OBS_COUNT("gr.initial_nets", order.size());
  }

  // Negotiated rip-up-and-reroute of overflowed nets.
  for (int round = 0; round < options_.rrrRounds; ++round) {
    CRP_OBS_SPAN_ARG("groute", "gr.rrr_round", round);
    std::vector<db::NetId> victims;
    for (db::NetId net = 0; net < db_.numNets(); ++net) {
      const NetRoute& route = routes_[net];
      if (!route.routed) {
        victims.push_back(net);
        continue;
      }
      if (routeOverflowed(net)) victims.push_back(net);
    }
    if (victims.empty()) break;
    CRP_LOG_DEBUG("groute RRR round {}: {} overflowed nets", round,
                  victims.size());
    CRP_OBS_COUNT("gr.rrr_victims", victims.size());
    rerouteNets(victims, /*mazeFirst=*/true);
    reroutedNets_ += static_cast<int>(victims.size());
  }
  const GlobalRouteStats result = stats();
  CRP_OBS_GAUGE_SET("gr.total_overflow", result.totalOverflow);
  return result;
}

GlobalRouteStats GlobalRouter::stats() const {
  GlobalRouteStats stats;
  stats.wirelengthDbu = graph_.totalWireDbu();
  stats.vias = graph_.totalVias();
  const auto congestion = graph_.congestionStats();
  stats.totalOverflow = congestion.totalOverflow;
  stats.overflowedEdges = congestion.overflowedEdges;
  stats.reroutedNets = reroutedNets_;
  for (db::NetId net = 0; net < db_.numNets(); ++net) {
    const auto terminals = netTerminals(net);
    if (terminals.size() >= 2 && !routes_[net].routed) ++stats.openNets;
  }
  return stats;
}

std::vector<lefdef::NetGuide> GlobalRouter::buildGuides() const {
  std::vector<lefdef::NetGuide> guides;
  guides.reserve(routes_.size());
  const auto& grid = graph_.grid();
  for (db::NetId net = 0; net < db_.numNets(); ++net) {
    const NetRoute& route = routes_[net];
    lefdef::NetGuide guide;
    guide.net = db_.net(net).name;
    // One rect per (layer, gcell) covered; merged per segment span.
    std::vector<lefdef::GuideRect> rects;
    auto addSpan = [&](int layer, int x0, int y0, int x1, int y1) {
      const auto lo = grid.cellRect(db::GCell{x0, y0});
      const auto hi = grid.cellRect(db::GCell{x1, y1});
      rects.push_back(lefdef::GuideRect{lo.unionWith(hi), layer});
    };
    for (const RouteSegment& rawSeg : route.segments) {
      const RouteSegment seg = normalized(rawSeg);
      if (seg.isVia()) {
        for (int l = seg.a.layer; l <= seg.b.layer; ++l) {
          addSpan(l, seg.a.x, seg.a.y, seg.a.x, seg.a.y);
        }
      } else {
        addSpan(seg.a.layer, seg.a.x, seg.a.y, seg.b.x, seg.b.y);
      }
    }
    // Always cover pin gcells on their access layers (TritonRoute
    // requires pin coverage even for single-gcell nets).
    for (const GPoint& t : netTerminals(net)) {
      addSpan(t.layer, t.x, t.y, t.x, t.y);
      if (t.layer + 1 < graph_.numLayers()) {
        addSpan(t.layer + 1, t.x, t.y, t.x, t.y);
      }
    }
    std::sort(rects.begin(), rects.end(),
              [](const lefdef::GuideRect& a, const lefdef::GuideRect& b) {
                if (a.layer != b.layer) return a.layer < b.layer;
                if (a.rect.xlo != b.rect.xlo) return a.rect.xlo < b.rect.xlo;
                if (a.rect.ylo != b.rect.ylo) return a.rect.ylo < b.rect.ylo;
                if (a.rect.xhi != b.rect.xhi) return a.rect.xhi < b.rect.xhi;
                return a.rect.yhi < b.rect.yhi;
              });
    rects.erase(std::unique(rects.begin(), rects.end()), rects.end());
    guide.rects = std::move(rects);
    guides.push_back(std::move(guide));
  }
  return guides;
}

}  // namespace crp::groute
