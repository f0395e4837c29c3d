#include "baseline/median_ilp.hpp"

#include <algorithm>

#include "crp/candidate_generation.hpp"
#include "crp/selection.hpp"
#include "legalizer/ilp_legalizer.hpp"
#include "util/timer.hpp"

namespace crp::baseline {

namespace {

using core::Candidate;
using core::CellCandidates;

/// Per-row occupancy index: sorted (xlo, xhi, cell) per row.
struct RowIndex {
  std::vector<std::vector<std::tuple<geom::Coord, geom::Coord, db::CellId>>>
      rows;

  explicit RowIndex(const db::Database& db) : rows(db.numRows()) {
    for (db::CellId c = 0; c < db.numCells(); ++c) {
      const auto rect = db.cellRect(c);
      const int rowIdx = db.rowAt(rect.ylo);
      if (rowIdx != db::kInvalidId) {
        rows[rowIdx].emplace_back(rect.xlo, rect.xhi, c);
      }
    }
    for (auto& row : rows) std::sort(row.begin(), row.end());
  }

  /// True when [x, x+w) in `rowIdx` is free of cells other than `self`.
  bool spanFree(int rowIdx, geom::Coord x, geom::Coord w,
                db::CellId self) const {
    const auto& row = rows[rowIdx];
    // First interval with xlo >= x + w cannot overlap; walk backwards
    // from there while intervals may still reach into [x, x+w).
    auto it = std::lower_bound(
        row.begin(), row.end(),
        std::make_tuple(x + w, std::numeric_limits<geom::Coord>::min(),
                        db::kInvalidId));
    while (it != row.begin()) {
      --it;
      const auto& [xlo, xhi, id] = *it;
      if (xhi <= x) break;  // sorted by xlo; earlier cells end earlier
      if (id != self && xlo < x + w && xhi > x) return false;
    }
    return true;
  }
};

/// Nearest free legal slot to `target` for `cell`, searched inside a
/// window of the given size; kInvalid position (current) when none.
std::optional<geom::Point> nearestFreeSlot(const db::Database& db,
                                           const RowIndex& index,
                                           db::CellId cell,
                                           const geom::Point& target,
                                           int radiusSites, int radiusRows) {
  const auto& macro = db.macroOf(cell);
  const geom::Coord siteW = db.siteWidth();
  const geom::Coord rowH = db.rowHeight();
  const int centerRow = db.rowAt(
      std::clamp(target.y, db.design().dieArea.ylo,
                 db.design().dieArea.yhi - 1));
  if (centerRow == db::kInvalidId) return std::nullopt;

  std::optional<geom::Point> best;
  geom::Coord bestDist = std::numeric_limits<geom::Coord>::max();
  const int rowLo = std::max(0, centerRow - radiusRows / 2);
  const int rowHi = std::min(db.numRows() - 1, centerRow + radiusRows / 2);
  for (int rowIdx = rowLo; rowIdx <= rowHi; ++rowIdx) {
    const db::Row& row = db.row(rowIdx);
    const geom::Coord xCenter =
        geom::snapNearest(target.x, row.origin.x, siteW);
    for (int offset = -radiusSites / 2; offset <= radiusSites / 2;
         ++offset) {
      const geom::Coord x = xCenter + offset * siteW;
      if (x < row.origin.x ||
          x + macro.width > row.origin.x + row.numSites * siteW) {
        continue;
      }
      const geom::Rect span{x, row.origin.y, x + macro.width,
                            row.origin.y + rowH};
      if (!db.design().dieArea.contains(span)) continue;
      if (!index.spanFree(rowIdx, x, macro.width, cell)) continue;
      const geom::Coord dist =
          geom::manhattan(geom::Point{x, row.origin.y}, target);
      if (dist < bestDist) {
        bestDist = dist;
        best = geom::Point{x, row.origin.y};
      }
    }
  }
  if (best.has_value() && *best == db.cell(cell).pos) return std::nullopt;
  return best;
}

}  // namespace

BaselineResult runMedianIlpOptimizer(db::Database& db,
                                     groute::GlobalRouter& router,
                                     const BaselineOptions& options) {
  util::Stopwatch watch;
  BaselineResult result;

  // [18] prices candidates WITHOUT the congestion penalty: flip the
  // live graph's cost config for the estimation phase, restore after.
  groute::RoutingGraph& graph = router.graph();
  const groute::CostConfig savedConfig = graph.config();
  groute::CostConfig distanceOnly = savedConfig;
  distanceOnly.congestionPenalty = false;
  graph.setConfig(distanceOnly);
  const groute::PatternRouter pattern(graph);
  groute::PatternRouter::Scratch scratch;
  const RowIndex index(db);

  std::vector<CellCandidates> candidates;
  for (db::CellId cell = 0; cell < db.numCells(); ++cell) {
    if (db.cell(cell).fixed) continue;
    if (db.netsOfCell(cell).empty()) continue;
    if (watch.seconds() > options.timeBudgetSeconds) {
      graph.setConfig(savedConfig);
      result.failed = true;
      result.seconds = watch.seconds();
      return result;
    }
    ++result.consideredCells;

    CellCandidates cc;
    cc.cell = cell;
    Candidate stay;
    stay.position = db.cell(cell).pos;
    stay.isCurrent = true;
    cc.candidates.push_back(stay);

    const geom::Point median = db.medianPosition(cell);
    const auto slot = nearestFreeSlot(db, index, cell, median,
                                      options.searchRadiusSites,
                                      options.searchRows);
    if (slot.has_value()) {
      Candidate move;
      move.position = *slot;
      cc.candidates.push_back(move);
    }
    for (Candidate& candidate : cc.candidates) {
      candidate.routeCost = core::estimateCandidateCost(
          db, router, pattern, cell, candidate, scratch);
    }
    candidates.push_back(std::move(cc));
  }
  graph.setConfig(savedConfig);

  if (watch.seconds() > options.timeBudgetSeconds) {
    result.failed = true;
    result.seconds = watch.seconds();
    return result;
  }

  // Joint ILP selection (Eq. 12-shaped model, [18]'s single shot).
  const core::SelectionResult selection =
      core::selectCandidates(db, candidates);

  // Apply + reroute.
  std::vector<db::NetId> affectedNets;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const Candidate& chosen = candidates[i].candidates[selection.chosen[i]];
    if (chosen.isCurrent) continue;
    db.moveCell(candidates[i].cell, chosen.position);
    ++result.movedCells;
    for (const db::NetId n : db.netsOfCell(candidates[i].cell)) {
      affectedNets.push_back(n);
    }
  }
  std::sort(affectedNets.begin(), affectedNets.end());
  affectedNets.erase(std::unique(affectedNets.begin(), affectedNets.end()),
                     affectedNets.end());
  for (const db::NetId n : affectedNets) router.rerouteNet(n);
  result.reroutedNets = static_cast<int>(affectedNets.size());
  result.seconds = watch.seconds();
  return result;
}

}  // namespace crp::baseline
