// Branch-and-bound 0/1 / integer linear solver on top of the simplex
// relaxation — the CPLEX substitute used by the legalizer (Eq. 11) and
// the candidate-selection step (Eq. 12).
//
// Exact for the model sizes in this codebase: depth-first
// branch-and-bound with LP bounding, most-fractional branching and a
// round-and-repair incumbent heuristic at the root.
#pragma once

#include <cstdint>
#include <vector>

#include "ilp/model.hpp"
#include "ilp/simplex.hpp"

namespace crp::ilp {

enum class IlpStatus : int {
  kOptimal,     ///< proven optimal
  kFeasible,    ///< stopped at node limit with an incumbent
  kInfeasible,  ///< no integer-feasible point exists
  kAborted,     ///< node limit hit with no incumbent
};

struct IlpResult {
  IlpStatus status = IlpStatus::kInfeasible;
  double objective = 0.0;
  std::vector<double> x;
  int nodesExplored = 0;
  int lpCalls = 0;   ///< LP relaxations solved across all nodes
  int lpPivots = 0;  ///< simplex pivots summed over those LPs
};

/// Effort summed over a set of solves, from their IlpResults (the
/// RunReport's ILP totals; independent of the metrics registry, so the
/// runtime obs gate cannot change them).
struct SolveTotals {
  std::uint64_t solves = 0;
  std::uint64_t nodes = 0;
  std::uint64_t lpCalls = 0;
  std::uint64_t lpPivots = 0;

  void add(const IlpResult& result) {
    ++solves;
    nodes += static_cast<std::uint64_t>(result.nodesExplored);
    lpCalls += static_cast<std::uint64_t>(result.lpCalls);
    lpPivots += static_cast<std::uint64_t>(result.lpPivots);
  }
  SolveTotals& operator+=(const SolveTotals& other) {
    solves += other.solves;
    nodes += other.nodes;
    lpCalls += other.lpCalls;
    lpPivots += other.lpPivots;
    return *this;
  }
};

struct IlpOptions {
  int maxNodes = 200000;
  double integralityTol = 1e-6;
  /// Prune nodes whose LP bound is within this of the incumbent
  /// (asymmetric epsilon; 0 keeps full optimality).
  double gapTol = 1e-9;
};

IlpResult solveIlp(const Model& model, const IlpOptions& options = {});

}  // namespace crp::ilp
