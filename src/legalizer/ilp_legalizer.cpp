#include "legalizer/ilp_legalizer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "ilp/model.hpp"
#include "obs/obs.hpp"

namespace crp::legalizer {

namespace {

using db::CellId;
using geom::Coord;
using geom::Point;
using geom::Rect;

/// A cell overlapping the window, with its span in window-site units.
struct WindowCell {
  CellId id = db::kInvalidId;
  Rect rect;
  bool movable = false;
};

}  // namespace

/// Geometry of the legalization window around a critical cell.
struct IlpLegalizer::Window {
  Coord xlo = 0;       ///< left edge, site-aligned to the row origin
  Coord xhi = 0;       ///< right edge
  int rowLo = 0;       ///< first row index
  int rowHi = 0;       ///< last row index (inclusive)
  std::vector<WindowCell> cells;  ///< cells intersecting the window
};

namespace {

/// Eq. 11 displacement cost of placing a cell at `pos` given its median
/// target: site-row weighted, which equals the DBU Manhattan distance
/// when positions are site/row aligned.
double eq11Cost(const Point& pos, const Point& median) {
  return static_cast<double>(geom::manhattan(pos, median));
}

/// All legal x positions (site-aligned, inside window and row) for a
/// cell of width `w` in row `rowIdx`.
std::vector<Coord> slotPositions(const db::Database& db, const Rect& window,
                                 int rowIdx, Coord w) {
  std::vector<Coord> xs;
  const db::Row& row = db.row(rowIdx);
  const Coord siteW = db.siteWidth();
  const Coord rowEnd = row.origin.x + row.numSites * siteW;
  Coord x = geom::snapDown(std::max(window.xlo, row.origin.x), row.origin.x,
                           siteW);
  if (x < std::max(window.xlo, row.origin.x)) x += siteW;
  const Coord xMax = std::min(window.xhi, rowEnd) - w;
  for (; x <= xMax; x += siteW) xs.push_back(x);
  return xs;
}

/// True when [x, x+w) at row `rowIdx` avoids every rect in `obstacles`.
bool spanFree(const std::vector<Rect>& obstacles, Coord x, Coord w,
              Coord rowY, Coord rowH) {
  const Rect span{x, rowY, x + w, rowY + rowH};
  for (const Rect& obs : obstacles) {
    if (span.overlaps(obs)) return false;
  }
  return true;
}

}  // namespace

IlpLegalizer::IlpLegalizer(const db::Database& db, LegalizerOptions options)
    : db_(db), options_(options) {
  rowIndex_.resize(static_cast<std::size_t>(db_.numRows()));
  for (CellId cell = 0; cell < db_.numCells(); ++cell) {
    const Rect rect = db_.cellRect(cell);
    maxCellWidth_ = std::max(maxCellWidth_, rect.width());
    // rowsInSpan is O(log rows + hits); the all-rows scan this replaced
    // made construction O(cells x rows), which dominated at 100K cells.
    for (const int r : db_.rowsInSpan(rect.ylo, rect.yhi)) {
      rowIndex_[static_cast<std::size_t>(r)].push_back(
          RowEntry{rect.xlo, cell});
    }
  }
  for (std::vector<RowEntry>& bucket : rowIndex_) {
    std::sort(bucket.begin(), bucket.end(),
              [](const RowEntry& a, const RowEntry& b) {
                if (a.xlo != b.xlo) return a.xlo < b.xlo;
                return a.id < b.id;
              });
  }
}

std::vector<LegalizedCandidate> IlpLegalizer::generate(
    db::CellId cell, ilp::SolveTotals* totals) const {
  CRP_OBS_SPAN("gcp", "legalizer.window");
  CRP_OBS_COUNT("legalizer.windows", 1);
  std::vector<LegalizedCandidate> candidates;
  const auto& comp = db_.cell(cell);
  const auto& macro = db_.macroOf(cell);
  const Coord siteW = db_.siteWidth();
  const Coord rowH = db_.rowHeight();
  const Coord w = macro.width;
  // Rows the critical cell occupies (1 for classic cells; multi-row
  // cells need that many consecutive rows free at every slot).
  const int span = std::max(
      1, static_cast<int>(rowH > 0 ? macro.height / rowH : 1));

  // ---- window geometry ------------------------------------------------------
  const int centerRow = db_.rowAt(comp.pos.y);
  if (centerRow == db::kInvalidId || db_.numRows() == 0) return candidates;
  int rowLo = centerRow - options_.numRows / 2;
  int rowHi = rowLo + options_.numRows - 1;
  rowLo = std::max(rowLo, 0);
  rowHi = std::min(rowHi, db_.numRows() - 1);

  const Coord windowWidth = static_cast<Coord>(options_.numSites) * siteW;
  Coord xlo = comp.pos.x + w / 2 - windowWidth / 2;
  xlo = geom::snapNearest(xlo, db_.row(centerRow).origin.x, siteW);
  xlo = std::max(xlo, db_.design().dieArea.xlo);
  Coord xhi = std::min(xlo + windowWidth, db_.design().dieArea.xhi);
  const Rect windowRect{xlo, db_.row(rowLo).origin.y, xhi,
                        db_.row(rowHi).origin.y + rowH};
  // Occupancy must also see cells in the extra rows a multi-row
  // critical cell's slots reach above the window.
  const int occRowHi = std::min(rowHi + span - 1, db_.numRows() - 1);
  const Rect occRect{windowRect.xlo, windowRect.ylo, windowRect.xhi,
                     db_.row(occRowHi).origin.y + rowH};

  // ---- window occupancy -----------------------------------------------------
  // Row-bucket index query (see constructor).  Cells land in ascending
  // id order after the sort, matching the full-scan order this replaced
  // — the ILP sees an identical window, so flows are value-exact.
  std::vector<WindowCell> windowCells;
  for (int rowIdx = rowLo; rowIdx <= occRowHi; ++rowIdx) {
    const std::vector<RowEntry>& bucket =
        rowIndex_[static_cast<std::size_t>(rowIdx)];
    const Coord first = windowRect.xlo - maxCellWidth_;
    auto it = std::lower_bound(bucket.begin(), bucket.end(), first,
                               [](const RowEntry& entry, Coord x) {
                                 return entry.xlo < x;
                               });
    for (; it != bucket.end() && it->xlo < occRect.xhi; ++it) {
      if (it->id == cell) continue;
      const Rect rect = db_.cellRect(it->id);
      if (!rect.overlaps(occRect)) continue;
      // Fixed cells (macro blocks) and multi-row cells are immovable
      // blockers here: the conflict ILP only relocates classic
      // single-row cells, whose slot/packing model matches rows 1:1.
      const bool movable =
          !db_.cell(it->id).fixed && !db_.isMultiRow(it->id);
      windowCells.push_back(WindowCell{it->id, rect, movable});
    }
  }
  std::sort(windowCells.begin(), windowCells.end(),
            [](const WindowCell& a, const WindowCell& b) {
              return a.id < b.id;
            });
  windowCells.erase(std::unique(windowCells.begin(), windowCells.end(),
                                [](const WindowCell& a, const WindowCell& b) {
                                  return a.id == b.id;
                                }),
                    windowCells.end());

  const Point median = db_.medianPosition(cell);

  // ---- enumerate and rank target slots for the critical cell ---------------
  struct Slot {
    Point pos;
    double cost;
    std::vector<CellId> conflicts;  ///< movable cells displaced by it
  };
  std::vector<Slot> slots;
  for (int rowIdx = rowLo; rowIdx <= rowHi; ++rowIdx) {
    const db::Row& row = db_.row(rowIdx);
    // A multi-row cell's base row must have `span` contiguous rows
    // stacked above it, each covering the slot's x range on the site
    // grid (the kBadRowSpan legality rules).
    bool rowsOk = true;
    for (int s = 1; s < span; ++s) {
      const int upper = db_.rowAtOrigin(row.origin.y + s * rowH);
      if (upper == db::kInvalidId) {
        rowsOk = false;
        break;
      }
    }
    if (!rowsOk) continue;
    for (const Coord x : slotPositions(db_, windowRect, rowIdx, w)) {
      const Point pos{x, row.origin.y};
      if (pos == comp.pos) continue;  // current position added by caller
      bool xOk = true;
      for (int s = 1; s < span && xOk; ++s) {
        const db::Row& upper =
            db_.row(db_.rowAtOrigin(row.origin.y + s * rowH));
        const Coord upperEnd = upper.origin.x + upper.numSites * siteW;
        xOk = x >= upper.origin.x && x + w <= upperEnd &&
              (x - upper.origin.x) % siteW == 0;
      }
      if (!xOk) continue;
      const Rect target{x, row.origin.y, x + w,
                        row.origin.y + macro.height};
      std::vector<CellId> conflicts;
      bool blocked = false;
      for (const WindowCell& wc : windowCells) {
        if (!target.overlaps(wc.rect)) continue;
        if (!wc.movable) {
          blocked = true;
          break;
        }
        conflicts.push_back(wc.id);
      }
      if (blocked) continue;
      if (static_cast<int>(conflicts.size()) >
          options_.maxCellsPerIlp - 1) {
        continue;  // too many conflicts for one ILP execution
      }
      slots.push_back(Slot{pos, eq11Cost(pos, median), std::move(conflicts)});
    }
  }
  std::sort(slots.begin(), slots.end(), [](const Slot& a, const Slot& b) {
    if (a.cost != b.cost) return a.cost < b.cost;
    if (a.pos.y != b.pos.y) return a.pos.y < b.pos.y;
    return a.pos.x < b.pos.x;
  });

  // ---- legalize each slot (ILP when conflicts exist) ------------------------
  for (const Slot& slot : slots) {
    if (static_cast<int>(candidates.size()) >= options_.maxCandidates) break;
    const Rect target{slot.pos.x, slot.pos.y, slot.pos.x + w,
                      slot.pos.y + macro.height};
    if (slot.conflicts.empty()) {
      candidates.push_back(LegalizedCandidate{slot.pos, {}, slot.cost});
      continue;
    }

    // Obstacles for the conflict cells: the critical cell's target plus
    // every window cell that is not being relocated.
    std::vector<Rect> obstacles{target};
    for (const WindowCell& wc : windowCells) {
      if (std::find(slot.conflicts.begin(), slot.conflicts.end(), wc.id) ==
          slot.conflicts.end()) {
        obstacles.push_back(wc.rect);
      }
    }

    // Build the Eq. 11 ILP over the conflict cells.
    ilp::Model model;
    struct VarInfo {
      CellId cell;
      Point pos;
      int row;
      int siteLo, siteHi;  // covered site units (window coordinates)
    };
    std::vector<VarInfo> varInfo;
    bool anyCellWithoutSlots = false;
    for (const CellId conflictCell : slot.conflicts) {
      const auto& cMacro = db_.macroOf(conflictCell);
      const Point cMedian = db_.medianPosition(conflictCell);
      std::vector<int> cellVars;
      for (int rowIdx = rowLo; rowIdx <= rowHi; ++rowIdx) {
        const db::Row& row = db_.row(rowIdx);
        for (const Coord x :
             slotPositions(db_, windowRect, rowIdx, cMacro.width)) {
          if (!spanFree(obstacles, x, cMacro.width, row.origin.y, rowH)) {
            continue;
          }
          const Point pos{x, row.origin.y};
          const int var = model.addBinary(eq11Cost(pos, cMedian));
          cellVars.push_back(var);
          varInfo.push_back(VarInfo{
              conflictCell, pos, rowIdx,
              static_cast<int>((x - xlo) / siteW),
              static_cast<int>((x + cMacro.width - 1 - xlo) / siteW)});
        }
      }
      if (cellVars.empty()) {
        anyCellWithoutSlots = true;
        break;
      }
      model.addOneHot(cellVars);
    }
    if (anyCellWithoutSlots) continue;

    // Unit-site packing rows between the conflict cells.
    const int sitesInWindow = static_cast<int>((xhi - xlo) / siteW) + 1;
    for (int rowIdx = rowLo; rowIdx <= rowHi; ++rowIdx) {
      for (int site = 0; site < sitesInWindow; ++site) {
        std::vector<int> covering;
        for (int v = 0; v < static_cast<int>(varInfo.size()); ++v) {
          if (varInfo[v].row == rowIdx && varInfo[v].siteLo <= site &&
              site <= varInfo[v].siteHi) {
            covering.push_back(v);
          }
        }
        if (covering.size() > 1) model.addPacking(covering);
      }
    }

    CRP_OBS_COUNT("legalizer.ilp_solves", 1);
    const ilp::IlpResult solution = ilp::solveIlp(model);
    if (totals != nullptr) totals->add(solution);
    if (solution.status != ilp::IlpStatus::kOptimal &&
        solution.status != ilp::IlpStatus::kFeasible) {
      continue;  // no legal rearrangement for this slot
    }

    LegalizedCandidate candidate;
    candidate.position = slot.pos;
    candidate.legalizerCost = slot.cost + solution.objective;
    for (int v = 0; v < static_cast<int>(varInfo.size()); ++v) {
      if (solution.x[v] > 0.5) {
        candidate.displaced.emplace_back(varInfo[v].cell, varInfo[v].pos);
      }
    }
    candidates.push_back(std::move(candidate));
  }
  CRP_OBS_COUNT("legalizer.candidates", candidates.size());
  return candidates;
}

bool candidateIsLegal(const db::Database& db, db::CellId cell,
                      const LegalizedCandidate& candidate) {
  // Final rects of every moved cell.
  std::vector<std::pair<CellId, Rect>> moved;
  auto rectAt = [&](CellId id, const Point& pos) {
    const auto& macro = db.macroOf(id);
    return Rect{pos.x, pos.y, pos.x + macro.width, pos.y + macro.height};
  };
  moved.emplace_back(cell, rectAt(cell, candidate.position));
  for (const auto& [id, pos] : candidate.displaced) {
    moved.emplace_back(id, rectAt(id, pos));
  }

  const auto& die = db.design().dieArea;
  const Coord rowH = db.rowHeight();
  for (const auto& [id, rect] : moved) {
    if (!die.contains(rect)) return false;
    if (rowH <= 0 || (rect.yhi - rect.ylo) % rowH != 0) return false;
    const int span = static_cast<int>((rect.yhi - rect.ylo) / rowH);
    for (int s = 0; s < span; ++s) {
      const int rowIdx = db.rowAtOrigin(rect.ylo + s * rowH);
      if (rowIdx == db::kInvalidId) return false;
      const db::Row& row = db.row(rowIdx);
      if ((rect.xlo - row.origin.x) % db.siteWidth() != 0) return false;
      if (rect.xlo < row.origin.x ||
          rect.xhi > row.origin.x + row.numSites * db.siteWidth()) {
        return false;
      }
    }
  }
  // Pairwise among moved.
  for (std::size_t i = 0; i < moved.size(); ++i) {
    for (std::size_t j = i + 1; j < moved.size(); ++j) {
      if (moved[i].second.overlaps(moved[j].second)) return false;
    }
  }
  // Against every untouched cell.
  for (CellId other = 0; other < db.numCells(); ++other) {
    bool isMoved = false;
    for (const auto& [id, rect] : moved) {
      if (id == other) isMoved = true;
    }
    if (isMoved) continue;
    const Rect otherRect = db.cellRect(other);
    for (const auto& [id, rect] : moved) {
      if (rect.overlaps(otherRect)) return false;
    }
  }
  return true;
}

}  // namespace crp::legalizer
