// The ILP-based legalizer of paper §IV.B.2 (Eq. 11).
//
// For a critical cell c, the legalizer works inside a local window of
// N_site sites x N_row rows centered on c.  It proposes up to
// `maxCandidates` legal positions for c; for every proposed position
// that collides with neighbours, a small ILP (|cells| <= 3 including c)
// relocates the colliding "conflict cells" inside the window,
// minimizing the Eq. 11 displacement-toward-median cost:
//
//   cost_c^(i,j) = W_site * |X - X_med| + H_row * |Y - Y_med|
//
// Every returned candidate therefore carries a fully legal assignment
// (the framework invariant: "for any new candidate position a
// legalized placement solution for the entire circuit must be
// guaranteed", §II).
#pragma once

#include <vector>

#include "db/database.hpp"
#include "ilp/solver.hpp"

namespace crp::legalizer {

/// One legal placement proposal for a critical cell.
struct LegalizedCandidate {
  geom::Point position;  ///< lower-left target for the critical cell
  /// Conflict cells displaced to make the position legal (possibly
  /// empty), with their new legal lower-left positions.
  std::vector<std::pair<db::CellId, geom::Point>> displaced;
  double legalizerCost = 0.0;  ///< Eq. 11 objective of this assignment
};

struct LegalizerOptions {
  int numSites = 20;       ///< N_site (paper value)
  int numRows = 5;         ///< N_row (paper value)
  int maxCellsPerIlp = 3;  ///< |cells| per ILP execution (paper value)
  int maxCandidates = 6;   ///< positions proposed per critical cell
};

class IlpLegalizer {
 public:
  /// Snapshots a row-bucketed spatial index of the current cell
  /// positions (every consumer — the GCP phase, tests, benches —
  /// constructs a fresh legalizer after positions change; the framework
  /// builds one per iteration).  The index turns the per-window
  /// occupancy query from a full-database scan into a scan of the
  /// window's rows, which is what keeps GCP cost proportional to the
  /// critical set instead of critical-set x design size.
  IlpLegalizer(const db::Database& db, LegalizerOptions options = {});

  /// Proposes legal candidates for `cell` (its current position is NOT
  /// included — the framework adds it separately per Alg. 2 line 2).
  /// Thread-safe: reads the database and the snapshot index, never
  /// mutates either.  Positions must not have changed since
  /// construction.  `totals`, when given, receives the effort of the
  /// window ILPs solved for this cell.
  std::vector<LegalizedCandidate> generate(
      db::CellId cell, ilp::SolveTotals* totals = nullptr) const;

  const LegalizerOptions& options() const { return options_; }

 private:
  struct Window;

  /// One cell's x-span within a row bucket, sorted by xlo.
  struct RowEntry {
    geom::Coord xlo = 0;
    db::CellId id = db::kInvalidId;
  };

  const db::Database& db_;
  LegalizerOptions options_;
  std::vector<std::vector<RowEntry>> rowIndex_;  ///< one bucket per row
  geom::Coord maxCellWidth_ = 0;
};

/// Verifies that applying `candidate` for `cell` yields a placement
/// with no overlaps / boundary violations among the affected cells and
/// their window neighbours.  Exposed for tests and debug assertions.
bool candidateIsLegal(const db::Database& db, db::CellId cell,
                      const LegalizedCandidate& candidate);

}  // namespace crp::legalizer
