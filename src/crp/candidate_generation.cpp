#include "crp/candidate_generation.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <span>

namespace crp::core {

namespace {

/// Core terminal builder: pin positions of `net` with cells in
/// `overrides` (a tiny list, searched linearly) relocated; result is
/// canonical (sorted, deduplicated).  Appends nothing on entry: `out`
/// is cleared.
void terminalsInto(
    const db::Database& db, const groute::RoutingGraph& graph, db::NetId net,
    std::span<const std::pair<db::CellId, geom::Point>> overrides,
    std::vector<groute::GPoint>& out) {
  out.clear();
  for (const db::NetPin& pin : db.net(net).pins) {
    geom::Point pos;
    int layer = 0;
    if (pin.isIo()) {
      pos = db.design().ioPins[pin.ioPin()].pos;
      layer = db.design().ioPins[pin.ioPin()].layer;
    } else {
      const auto& ref = pin.compPin();
      const auto& comp = db.cell(ref.cell);
      const auto& macro = db.macroOf(ref.cell);
      geom::Point origin = comp.pos;
      for (const auto& [id, overridePos] : overrides) {
        if (id == ref.cell) {
          origin = overridePos;
          break;
        }
      }
      pos = geom::transformPoint(macro.pins[ref.pin].accessPoint(), origin,
                                 macro.width, macro.height, comp.orient);
      if (!macro.pins[ref.pin].shapes.empty()) {
        layer = macro.pins[ref.pin].shapes.front().layer;
      }
    }
    const db::GCell g = graph.grid().cellAt(pos);
    out.push_back(groute::GPoint{layer, g.x, g.y});
  }
  canonicalizeTerminals(out);
}

/// Per-thread state of the pricing engine: pattern-route scratch plus
/// the per-cell baseline buffers.  Reused across cells and iterations
/// so the inner loop makes no heap allocations in steady state.
struct PricerScratch {
  groute::PatternRouter::Scratch pattern;
  std::vector<std::pair<db::CellId, geom::Point>> overrides;
  std::vector<groute::GPoint> terminals;
  std::vector<std::pair<int, groute::GPoint>> movedPins;
  std::vector<double> basePrices;
  std::vector<db::NetId> extraNets;
  /// Per base net: moved-pin GCells -> price for the candidates of the
  /// current cell (few distinct entries; linear scan beats the shared
  /// cache's hash + lock for repeat candidates in the same GCell).
  struct NetMemo {
    std::vector<std::pair<std::vector<std::pair<int, groute::GPoint>>, double>>
        entries;
    std::size_t used = 0;  ///< entries beyond this are stale capacity
  };
  std::vector<NetMemo> memo;
  /// The candidate cell's pin GCells at the candidate position,
  /// computed once per candidate (indexed by macro pin).
  std::vector<groute::GPoint> cellPinG;
  /// Per-net baseline prices shared across the cells this thread
  /// prices, valid while the epoch matches (one epoch per ECC phase).
  std::vector<double> basePriceTable;
  std::vector<std::uint32_t> baseEpoch;
};

/// Per-net terminal template, precomputed once per ECC phase: every
/// pin's GCell at the current placement, plus which entries belong to
/// which (movable) cell.  Re-building a net's terminals under a
/// candidate override then costs one copy plus a recompute of just the
/// moved pins, instead of walking every pin through the pin-shape and
/// grid lookups again.
struct NetTemplate {
  std::vector<groute::GPoint> pinPoints;  ///< one per pin, db order
  std::vector<groute::GPoint> canonical;  ///< sorted + deduplicated
  struct MovablePin {
    db::CellId cell;
    int termIndex;  ///< into pinPoints
    int macroPin;
  };
  std::vector<MovablePin> movable;
};

/// The ECC incremental cost engine shared by all pricing workers.
class CandidatePricer {
 public:
  CandidatePricer(const db::Database& db, const groute::GlobalRouter& router,
                  PricingCache& cache)
      : db_(db),
        graph_(router.graph()),
        pattern_(router.graph()),
        cache_(cache),
        startStats_(cache.stats()) {
    // Distinguishes this phase's entries in the per-thread baseline
    // tables (scratch outlives the pricer); 0 stays "never valid".
    static std::atomic<std::uint32_t> phaseCounter{0};
    epoch_ = phaseCounter.fetch_add(1, std::memory_order_relaxed) + 1;
    if (epoch_ == 0) epoch_ = phaseCounter.fetch_add(1) + 1;
    // One pass over every net builds the terminal templates for the
    // phase (positions are frozen until UD).  Sequential + read-only.
    templates_.resize(db_.numNets());
    for (db::NetId net = 0; net < db_.numNets(); ++net) {
      NetTemplate& tpl = templates_[net];
      const auto& pins = db_.net(net).pins;
      tpl.pinPoints.reserve(pins.size());
      for (const db::NetPin& pin : pins) {
        if (!pin.isIo()) {
          const auto& ref = pin.compPin();
          tpl.movable.push_back(NetTemplate::MovablePin{
              ref.cell, static_cast<int>(tpl.pinPoints.size()), ref.pin});
        }
        tpl.pinPoints.push_back(pinGPoint(pin, nullptr));
      }
      tpl.canonical = tpl.pinPoints;
      canonicalizeTerminals(tpl.canonical);
    }
  }

  void priceCell(CellCandidates& cc, PricerScratch& ts) {
    const std::vector<db::NetId>& baseNets = db_.netsOfCell(cc.cell);
    const std::size_t numBase = baseNets.size();

    // Baseline: prices of the cell's nets at current positions,
    // computed once per phase per thread (every candidate needs them —
    // the old code rebuilt them once per candidate); the terminal sets
    // come straight from the phase templates.
    if (ts.baseEpoch.size() < static_cast<std::size_t>(db_.numNets())) {
      ts.baseEpoch.resize(db_.numNets(), 0);
      ts.basePriceTable.resize(db_.numNets(), 0.0);
    }
    ts.basePrices.clear();
    for (std::size_t j = 0; j < numBase; ++j) {
      const db::NetId net = baseNets[j];
      if (ts.baseEpoch[net] == epoch_) {
        cache_.countDeltaSkip();
      } else {
        ts.basePriceTable[net] =
            cache_.price(templates_[net].canonical, pattern_, ts.pattern);
        ts.baseEpoch[net] = epoch_;
      }
      ts.basePrices.push_back(ts.basePriceTable[net]);
    }
    if (ts.memo.size() < numBase) ts.memo.resize(numBase);
    for (std::size_t j = 0; j < numBase; ++j) ts.memo[j].used = 0;

    for (Candidate& candidate : cc.candidates) {
      if (candidate.isCurrent) {
        double cost = 0.0;
        for (std::size_t j = 0; j < numBase; ++j) cost += ts.basePrices[j];
        candidate.routeCost = cost;
        continue;
      }

      ts.overrides.clear();
      ts.overrides.emplace_back(cc.cell, candidate.position);
      for (const auto& moved : candidate.displaced) {
        ts.overrides.push_back(moved);
      }

      // The candidate cell's pin GCells at the hypothetical position,
      // computed once and shared by all of its nets below.
      {
        const auto& comp = db_.cell(cc.cell);
        const auto& macro = db_.macroOf(cc.cell);
        ts.cellPinG.clear();
        for (const auto& pin : macro.pins) {
          const geom::Point pos =
              geom::transformPoint(pin.accessPoint(), candidate.position,
                                   macro.width, macro.height, comp.orient);
          const db::GCell g = graph_.grid().cellAt(pos);
          const int layer =
              pin.shapes.empty() ? 0 : pin.shapes.front().layer;
          ts.cellPinG.push_back(groute::GPoint{layer, g.x, g.y});
        }
      }

      double cost = 0.0;
      // Delta pricing over the cell's own nets: a candidate that keeps
      // a net's pins in their GCells contributes the baseline price —
      // detected at the pin level, before any terminal set is built.
      for (std::size_t j = 0; j < numBase; ++j) {
        const NetTemplate& tpl = templates_[baseNets[j]];
        if (!computeMovedPins(tpl, ts.overrides, ts, cc.cell)) {
          cache_.countDeltaSkip();
          cost += ts.basePrices[j];
          continue;
        }
        // Same moved-pin GCells as an earlier candidate of this cell:
        // identical canonical set, price carries over unprobed.
        auto& memo = ts.memo[j];
        const auto used = memo.entries.begin() + memo.used;
        const auto hit = std::find_if(
            memo.entries.begin(), used,
            [&](const auto& entry) { return entry.first == ts.movedPins; });
        if (hit != used) {
          cache_.countDeltaSkip();
          cost += hit->second;
          continue;
        }
        buildTerminals(tpl, ts);
        const double price = cache_.price(ts.terminals, pattern_, ts.pattern);
        if (memo.used == memo.entries.size()) memo.entries.emplace_back();
        memo.entries[memo.used].first.assign(ts.movedPins.begin(),
                                             ts.movedPins.end());
        memo.entries[memo.used].second = price;
        ++memo.used;
        cost += price;
      }
      // Collateral nets of displaced conflict cells (not already among
      // the cell's nets), priced at the hypothetical positions.
      ts.extraNets.clear();
      for (const auto& [id, pos] : candidate.displaced) {
        for (const db::NetId n : db_.netsOfCell(id)) {
          if (std::find(baseNets.begin(), baseNets.end(), n) ==
              baseNets.end()) {
            ts.extraNets.push_back(n);
          }
        }
      }
      std::sort(ts.extraNets.begin(), ts.extraNets.end());
      ts.extraNets.erase(
          std::unique(ts.extraNets.begin(), ts.extraNets.end()),
          ts.extraNets.end());
      for (const db::NetId n : ts.extraNets) {
        computeMovedPins(templates_[n], ts.overrides, ts, cc.cell);
        buildTerminals(templates_[n], ts);
        cost += cache_.price(ts.terminals, pattern_, ts.pattern);
      }
      candidate.routeCost = cost;
    }
  }

  /// This phase's counters: deltas against the cache state at pricer
  /// construction, since the cache outlives the phase.
  obs::PricingStats stats() const {
    const obs::PricingStats now = cache_.stats();
    obs::PricingStats phase;
    phase.cacheHits = now.cacheHits - startStats_.cacheHits;
    phase.cacheMisses = now.cacheMisses - startStats_.cacheMisses;
    phase.deltaSkips = now.deltaSkips - startStats_.deltaSkips;
    return phase;
  }

 private:
  /// GCell terminal of one net pin, with its cell optionally relocated.
  groute::GPoint pinGPoint(const db::NetPin& pin,
                           const geom::Point* overridePos) const {
    geom::Point pos;
    int layer = 0;
    if (pin.isIo()) {
      pos = db_.design().ioPins[pin.ioPin()].pos;
      layer = db_.design().ioPins[pin.ioPin()].layer;
    } else {
      const auto& ref = pin.compPin();
      const auto& comp = db_.cell(ref.cell);
      const auto& macro = db_.macroOf(ref.cell);
      const geom::Point origin =
          overridePos != nullptr ? *overridePos : comp.pos;
      pos = geom::transformPoint(macro.pins[ref.pin].accessPoint(), origin,
                                 macro.width, macro.height, comp.orient);
      if (!macro.pins[ref.pin].shapes.empty()) {
        layer = macro.pins[ref.pin].shapes.front().layer;
      }
    }
    const db::GCell g = graph_.grid().cellAt(pos);
    return groute::GPoint{layer, g.x, g.y};
  }

  /// Recomputes the GCells of a templated net's overridden pins into
  /// ts.movedPins and reports whether any of them left its GCell.  An
  /// unchanged net never materializes a terminal set — the delta skip
  /// costs just this recompute.
  bool computeMovedPins(
      const NetTemplate& tpl,
      std::span<const std::pair<db::CellId, geom::Point>> overrides,
      PricerScratch& ts, db::CellId mainCell) const {
    ts.movedPins.clear();
    bool changed = false;
    for (const NetTemplate::MovablePin& mp : tpl.movable) {
      for (const auto& [id, overridePos] : overrides) {
        if (id != mp.cell) continue;
        groute::GPoint moved;
        if (mp.cell == mainCell) {
          // The candidate cell's pins were precomputed per candidate.
          moved = ts.cellPinG[mp.macroPin];
        } else {
          const auto& comp = db_.cell(mp.cell);
          const auto& macro = db_.macroOf(mp.cell);
          const geom::Point pos = geom::transformPoint(
              macro.pins[mp.macroPin].accessPoint(), overridePos,
              macro.width, macro.height, comp.orient);
          const db::GCell g = graph_.grid().cellAt(pos);
          int layer = 0;
          if (!macro.pins[mp.macroPin].shapes.empty()) {
            layer = macro.pins[mp.macroPin].shapes.front().layer;
          }
          moved = groute::GPoint{layer, g.x, g.y};
        }
        if (moved != tpl.pinPoints[mp.termIndex]) changed = true;
        ts.movedPins.emplace_back(mp.termIndex, moved);
        break;
      }
    }
    return changed;
  }

  /// Canonical terminal set of a templated net with ts.movedPins
  /// (from computeMovedPins) substituted in.
  void buildTerminals(const NetTemplate& tpl, PricerScratch& ts) const {
    ts.terminals.assign(tpl.pinPoints.begin(), tpl.pinPoints.end());
    for (const auto& [index, point] : ts.movedPins) {
      ts.terminals[index] = point;
    }
    canonicalizeTerminals(ts.terminals);
  }

  const db::Database& db_;
  const groute::RoutingGraph& graph_;
  const groute::PatternRouter pattern_;
  PricingCache& cache_;
  obs::PricingStats startStats_;
  std::vector<NetTemplate> templates_;
  std::uint32_t epoch_ = 0;  ///< tags per-thread baseline-table entries
};

}  // namespace

std::vector<groute::GPoint> terminalsWithOverrides(
    const db::Database& db, const groute::RoutingGraph& graph, db::NetId net,
    const std::unordered_map<db::CellId, geom::Point>& overrides) {
  std::vector<std::pair<db::CellId, geom::Point>> list(overrides.begin(),
                                                       overrides.end());
  std::vector<groute::GPoint> terminals;
  terminalsInto(db, graph, net, list, terminals);
  return terminals;
}

double estimateCandidateCost(const db::Database& db,
                             const groute::GlobalRouter& router,
                             const groute::PatternRouter& pattern,
                             db::CellId cell, const Candidate& candidate,
                             groute::PatternRouter::Scratch& scratch) {
  std::vector<std::pair<db::CellId, geom::Point>> overrides{
      {cell, candidate.position}};
  overrides.insert(overrides.end(), candidate.displaced.begin(),
                   candidate.displaced.end());

  // Affected nets in the engine's summation order, so the two sums
  // round identically: the cell's own nets in netsOfCell order, then
  // the displaced cells' other nets in ascending order.
  std::vector<db::NetId> nets = db.netsOfCell(cell);
  const std::size_t numOwn = nets.size();
  for (const auto& [id, pos] : candidate.displaced) {
    for (const db::NetId n : db.netsOfCell(id)) {
      if (std::find(nets.begin(), nets.begin() + numOwn, n) ==
          nets.begin() + numOwn) {
        nets.push_back(n);
      }
    }
  }
  std::sort(nets.begin() + numOwn, nets.end());
  nets.erase(std::unique(nets.begin() + numOwn, nets.end()), nets.end());

  double total = 0.0;
  std::vector<groute::GPoint> terminals;
  for (const db::NetId n : nets) {
    terminalsInto(db, router.graph(), n, overrides, terminals);
    total += pattern.priceTree(terminals, scratch);
  }
  return total;
}

void auditCandidatePrices(const db::Database& db,
                          const groute::GlobalRouter& router,
                          const std::vector<CellCandidates>& candidates,
                          check::AuditReport& report) {
  const groute::PatternRouter pattern(router.graph());
  groute::PatternRouter::Scratch scratch;
  for (const CellCandidates& cc : candidates) {
    for (std::size_t k = 0; k < cc.candidates.size(); ++k) {
      const double reference = estimateCandidateCost(
          db, router, pattern, cc.cell, cc.candidates[k], scratch);
      check::auditCandidatePrice(db.cell(cc.cell).name, k, reference,
                                 cc.candidates[k].routeCost, report);
    }
  }
}

std::vector<CellCandidates> buildCandidates(
    const db::Database& db, const legalizer::IlpLegalizer& legalizer,
    const std::vector<db::CellId>& criticalSet, util::ThreadPool* pool) {
  std::unordered_set<db::CellId> criticalLookup(criticalSet.begin(),
                                                criticalSet.end());
  std::vector<CellCandidates> result(criticalSet.size());

  // Alg. 2 lines 1-6 (parallel): current position + legalizer output.
  auto buildFor = [&](std::size_t i) {
    const db::CellId cell = criticalSet[i];
    CellCandidates& out = result[i];
    out.cell = cell;
    Candidate current;
    current.position = db.cell(cell).pos;
    current.isCurrent = true;
    out.candidates.push_back(current);
    for (const auto& legal : legalizer.generate(cell, &out.ilp)) {
      // Never displace another critical cell: the selection model
      // treats critical assignments as independent one-hots.
      bool displacesCritical = false;
      for (const auto& [id, pos] : legal.displaced) {
        if (criticalLookup.count(id) > 0) {
          displacesCritical = true;
          break;
        }
      }
      if (displacesCritical) continue;
      Candidate candidate;
      candidate.position = legal.position;
      candidate.displaced = legal.displaced;
      out.candidates.push_back(std::move(candidate));
    }
  };
  if (pool != nullptr) {
    pool->parallelFor(criticalSet.size(), buildFor);
  } else {
    for (std::size_t i = 0; i < criticalSet.size(); ++i) buildFor(i);
  }
  return result;
}

void priceCandidates(const db::Database& db,
                     const groute::GlobalRouter& router,
                     std::vector<CellCandidates>& candidates,
                     util::ThreadPool* pool, PricingCache& cache,
                     obs::PricingStats* stats) {
  CandidatePricer pricer(db, router, cache);
  auto priceFor = [&](std::size_t i) {
    static thread_local PricerScratch scratch;
    pricer.priceCell(candidates[i], scratch);
  };
  if (pool != nullptr) {
    pool->parallelFor(candidates.size(), priceFor);
  } else {
    for (std::size_t i = 0; i < candidates.size(); ++i) priceFor(i);
  }
  if (stats != nullptr) *stats += pricer.stats();
}

std::vector<CellCandidates> generateCandidates(
    const db::Database& db, const groute::GlobalRouter& router,
    const legalizer::IlpLegalizer& legalizer,
    const std::vector<db::CellId>& criticalSet, util::ThreadPool* pool,
    PricingCache& cache, obs::PricingStats* stats) {
  auto result = buildCandidates(db, legalizer, criticalSet, pool);
  priceCandidates(db, router, result, pool, cache, stats);
  return result;
}

}  // namespace crp::core
