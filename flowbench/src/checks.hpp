// Output checks of the flow benchmark.  Each one recomputes a property
// of the method from the program's public outputs along its own path
// (its own sweep, its own union-find, its own sums) instead of
// comparing against a stored copy of an earlier run.  Each returns the
// list of problems it found; empty means the output passed.
#pragma once

#include <string>
#include <vector>

#include "db/database.hpp"
#include "droute/detailed_router.hpp"
#include "groute/global_router.hpp"

namespace flowbench::checks {

using Problems = std::vector<std::string>;

/// Placement legality of `placed` (normally the DEF as written and
/// parsed back): every movable cell sits on a row and on the site grid
/// of that row for every row strip it spans, every cell lies inside the
/// die, no two cells overlap (row-strip sweep by x), no movable cell
/// covers a placement blockage, and every cell that is fixed in
/// `reference` is still fixed at the same place.
Problems placementLegal(const crp::db::Database& placed,
                        const crp::db::Database& reference);

/// Same cells at the same places in both databases (DEF round trip).
Problems samePlacement(const crp::db::Database& a, const crp::db::Database& b);

/// Global-route checks over every net of the router's current state.
/// Connectivity: a union-find over the gcell nodes each segment
/// covers, each terminal joining through the lowest routed node of its
/// (x, y) column (terminals that all share one column need no route);
/// openNets counts the misses.  Totals: the graph's running wire and
/// via totals and GlobalRouteStats against per-net sums recomputed
/// edge by edge from the gcell bounds.  Bound: each connected net's
/// wire, and the total, at least the half-perimeter of its terminal
/// gcell centers.
struct RouteSummary {
  int nets = 0;
  int openNets = 0;
  Problems problems;
};
RouteSummary globalRoutes(const crp::groute::GlobalRouter& router);

/// Detailed-route checks: wire length from netPaths plus
/// patchedWireDbu, and vias as layer changes, against the router's
/// stats; each net's paths form one connected piece.
Problems detailedRoutes(const crp::droute::DetailedRouter& router,
                        const crp::droute::DetailedRouteStats& stats);

/// The two fingerprints are equal.
Problems fingerprintsMatch(const std::string& what, const std::string& expected,
                           const std::string& actual);

/// Self-tests: each check above fed a corrupted input (two overlapping
/// cells, a severed route segment, a wire total off by one pitch, a
/// detailed via count off by one, a mismatched fingerprint) must
/// report it, and the uncorrupted input must pass.  Returns the checks
/// that did not behave.
Problems selfTest();

}  // namespace flowbench::checks
