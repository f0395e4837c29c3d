#include "crp/selection.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "ilp/solver.hpp"

namespace crp::core {

namespace {

using geom::Rect;

/// Footprint of a candidate: union of the target rects of every cell
/// it moves (empty for "stay" candidates).
struct Footprint {
  Rect bounds;                      ///< union bbox (empty when no moves)
  std::vector<Rect> rects;          ///< exact moved rects
  std::vector<db::CellId> movedIds;  ///< cells it moves (sorted)
};

Footprint footprintOf(const db::Database& db, db::CellId cell,
                      const Candidate& candidate) {
  Footprint fp;
  if (candidate.isCurrent) return fp;
  auto add = [&](db::CellId id, const geom::Point& pos) {
    const auto& macro = db.macroOf(id);
    const Rect rect{pos.x, pos.y, pos.x + macro.width, pos.y + macro.height};
    fp.rects.push_back(rect);
    fp.bounds = fp.bounds.unionWith(rect);
    fp.movedIds.push_back(id);
    // The vacated rect matters too: another candidate must not assume
    // the space this cell leaves is still occupied.  Conservatively
    // include the source rect in the footprint.
    const Rect src = db.cellRect(id);
    fp.rects.push_back(src);
    fp.bounds = fp.bounds.unionWith(src);
  };
  add(cell, candidate.position);
  for (const auto& [id, pos] : candidate.displaced) add(id, pos);
  std::sort(fp.movedIds.begin(), fp.movedIds.end());
  return fp;
}

bool conflicts(const Footprint& a, const Footprint& b) {
  if (a.rects.empty() || b.rects.empty()) return false;
  // Shared moved cell -> conflict.
  for (const db::CellId id : a.movedIds) {
    if (std::binary_search(b.movedIds.begin(), b.movedIds.end(), id)) {
      return true;
    }
  }
  if (!a.bounds.overlaps(b.bounds)) return false;
  for (const Rect& ra : a.rects) {
    for (const Rect& rb : b.rects) {
      if (ra.overlaps(rb)) return true;
    }
  }
  return false;
}

struct DisjointSet {
  explicit DisjointSet(int n) : parent(n) {
    std::iota(parent.begin(), parent.end(), 0);
  }
  int find(int x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  }
  void unite(int a, int b) { parent[find(a)] = find(b); }
  std::vector<int> parent;
};

}  // namespace

SelectionResult selectCandidates(const db::Database& db,
                                 const std::vector<CellCandidates>& cells,
                                 const SelectionOptions& options) {
  SelectionResult result;
  const int n = static_cast<int>(cells.size());
  result.chosen.assign(n, 0);
  if (n == 0) return result;

  // Precompute footprints.
  std::vector<std::vector<Footprint>> footprints(n);
  for (int i = 0; i < n; ++i) {
    footprints[i].reserve(cells[i].candidates.size());
    for (const Candidate& candidate : cells[i].candidates) {
      footprints[i].push_back(footprintOf(db, cells[i].cell, candidate));
    }
  }

  // Cell-level conflict graph (any candidate pair conflicting links the
  // two cells), built with a bounding-box sweep to avoid O(n^2) pairs.
  struct Entry {
    Rect bounds;
    int cellIdx;
  };
  std::vector<Entry> entries;
  for (int i = 0; i < n; ++i) {
    Rect bounds;
    for (const Footprint& fp : footprints[i]) {
      bounds = bounds.unionWith(fp.bounds);
    }
    if (!bounds.empty()) entries.push_back(Entry{bounds, i});
  }
  std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
    return a.bounds.xlo < b.bounds.xlo;
  });

  DisjointSet components(n);
  std::vector<std::pair<int, int>> conflictingCellPairs;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    for (std::size_t j = i + 1; j < entries.size(); ++j) {
      if (entries[j].bounds.xlo >= entries[i].bounds.xhi) break;
      if (!entries[i].bounds.overlaps(entries[j].bounds)) continue;
      const int a = entries[i].cellIdx;
      const int b = entries[j].cellIdx;
      // Verify that at least one candidate pair truly conflicts.
      bool found = false;
      for (const Footprint& fa : footprints[a]) {
        for (const Footprint& fb : footprints[b]) {
          if (conflicts(fa, fb)) {
            found = true;
            break;
          }
        }
        if (found) break;
      }
      if (found) {
        components.unite(a, b);
        conflictingCellPairs.emplace_back(a, b);
      }
    }
  }
  result.conflictPairs = static_cast<int>(conflictingCellPairs.size());

  // Group cells per component.
  std::vector<std::vector<int>> groups;
  {
    std::vector<int> groupOf(n, -1);
    for (int i = 0; i < n; ++i) {
      const int root = components.find(i);
      if (groupOf[root] < 0) {
        groupOf[root] = static_cast<int>(groups.size());
        groups.emplace_back();
      }
      groups[groupOf[root]].push_back(i);
    }
  }

  for (const auto& group : groups) {
    if (group.size() >
        static_cast<std::size_t>(options.maxIlpComponentCells)) {
      // Oversized component: gain-ordered greedy assignment.  Cells
      // with the most to gain pick first; later cells take their best
      // candidate compatible with everything already chosen.
      ++result.greedyComponents;
      std::vector<int> order(group.begin(), group.end());
      auto gainOf = [&](int i) {
        double best = 0.0;
        for (const Candidate& candidate : cells[i].candidates) {
          best = std::max(best, cells[i].candidates.front().routeCost -
                                    candidate.routeCost);
        }
        return best;
      };
      std::sort(order.begin(), order.end(),
                [&](int a, int b) { return gainOf(a) > gainOf(b); });
      std::vector<std::pair<int, int>> chosenSoFar;  // (cellIdx, cand)
      for (const int i : order) {
        int best = 0;  // "stay" is index 0 and never conflicts
        double bestCost = cells[i].candidates[0].routeCost;
        for (int k = 1; k < static_cast<int>(cells[i].candidates.size());
             ++k) {
          if (cells[i].candidates[k].routeCost >= bestCost) continue;
          bool compatible = true;
          for (const auto& [j, kj] : chosenSoFar) {
            if (conflicts(footprints[i][k], footprints[j][kj])) {
              compatible = false;
              break;
            }
          }
          if (compatible) {
            best = k;
            bestCost = cells[i].candidates[k].routeCost;
          }
        }
        result.chosen[i] = best;
        result.totalCost += bestCost;
        chosenSoFar.emplace_back(i, best);
      }
      continue;
    }
    if (group.size() == 1) {
      // Argmin over candidates.
      const int i = group.front();
      int best = 0;
      for (int k = 1; k < static_cast<int>(cells[i].candidates.size());
           ++k) {
        if (cells[i].candidates[k].routeCost <
            cells[i].candidates[best].routeCost) {
          best = k;
        }
      }
      result.chosen[i] = best;
      result.totalCost += cells[i].candidates[best].routeCost;
      continue;
    }

    // Eq. 12 ILP over the component.
    ilp::Model model;
    std::vector<std::vector<int>> varOf(group.size());
    for (std::size_t gi = 0; gi < group.size(); ++gi) {
      const int i = group[gi];
      for (const Candidate& candidate : cells[i].candidates) {
        varOf[gi].push_back(model.addBinary(candidate.routeCost));
      }
      model.addOneHot(varOf[gi]);
    }
    for (std::size_t gi = 0; gi < group.size(); ++gi) {
      for (std::size_t gj = gi + 1; gj < group.size(); ++gj) {
        const int a = group[gi];
        const int b = group[gj];
        for (std::size_t ka = 0; ka < footprints[a].size(); ++ka) {
          for (std::size_t kb = 0; kb < footprints[b].size(); ++kb) {
            if (conflicts(footprints[a][ka], footprints[b][kb])) {
              model.addPacking({varOf[gi][ka], varOf[gj][kb]});
            }
          }
        }
      }
    }
    ilp::IlpOptions ilpOptions;
    ilpOptions.maxNodes = options.maxIlpNodes;
    const ilp::IlpResult solution = ilp::solveIlp(model, ilpOptions);
    result.ilp.add(solution);
    ++result.ilpComponents;
    if (solution.status == ilp::IlpStatus::kOptimal ||
        solution.status == ilp::IlpStatus::kFeasible) {
      for (std::size_t gi = 0; gi < group.size(); ++gi) {
        for (std::size_t k = 0; k < varOf[gi].size(); ++k) {
          if (solution.x[varOf[gi][k]] > 0.5) {
            result.chosen[group[gi]] = static_cast<int>(k);
            result.totalCost +=
                cells[group[gi]].candidates[k].routeCost;
          }
        }
      }
    } else {
      // Infeasible should be impossible ("stay" candidates never
      // conflict); fall back to staying put.
      for (std::size_t gi = 0; gi < group.size(); ++gi) {
        result.chosen[group[gi]] = 0;
        result.totalCost += cells[group[gi]].candidates[0].routeCost;
      }
    }
  }
  return result;
}

}  // namespace crp::core
