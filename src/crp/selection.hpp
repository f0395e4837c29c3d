// Eq. 12: select one candidate per critical cell minimizing the total
// estimated routing cost, subject to spatial compatibility.
//
// Two candidates of different cells conflict when their moved-cell
// footprints overlap or they move the same conflict cell.  The
// selection problem decomposes over connected components of the
// conflict graph: singleton components reduce to an argmin, the rest
// are solved exactly with the branch-and-bound ILP (the paper solves
// one monolithic CPLEX model; the decomposition is equivalent because
// components share no constraints).
#pragma once

#include <vector>

#include "crp/candidate_generation.hpp"
#include "ilp/solver.hpp"

namespace crp::core {

struct SelectionResult {
  /// Chosen candidate index per entry of the input vector.
  std::vector<int> chosen;
  double totalCost = 0.0;
  int ilpComponents = 0;     ///< components solved exactly by B&B
  int greedyComponents = 0;  ///< oversized components solved greedily
  int conflictPairs = 0;
  ilp::SolveTotals ilp;  ///< effort of the component ILPs
};

struct SelectionOptions {
  /// Components larger than this are solved with a gain-ordered greedy
  /// assignment instead of the exact ILP.  Dense designs can chain
  /// hundreds of cells into one conflict component, where exact B&B is
  /// intractable; the greedy pass preserves feasibility (every cell
  /// keeps a compatible candidate — "stay" never conflicts).
  int maxIlpComponentCells = 12;
  int maxIlpNodes = 20000;  ///< B&B node cap per component
};

SelectionResult selectCandidates(const db::Database& db,
                                 const std::vector<CellCandidates>& cells,
                                 const SelectionOptions& options = {});

}  // namespace crp::core
