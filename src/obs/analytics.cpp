#include "obs/analytics.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <map>
#include <sstream>

namespace crp::obs {

namespace {

bool nearlyEqual(double a, double b) {
  return std::abs(a - b) <= 1e-12 * std::max({1.0, std::abs(a), std::abs(b)});
}

std::string lowercase(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

bool endsWith(const std::string& s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Direction of a bench metric, derived from its name.  0 = not gated
/// (counts, configuration echoes), -1 = lower is better (latencies,
/// wall clocks, overhead), +1 = higher is better (speedups,
/// throughput, reuse rates).
int metricDirection(const std::string& name) {
  const std::string lower = lowercase(name);
  if (endsWith(lower, "_ms") || endsWith(lower, "seconds") ||
      lower.find("latency") != std::string::npos ||
      endsWith(lower, "_percent")) {
    return -1;
  }
  if (lower.find("speedup") != std::string::npos ||
      lower.find("jobspersec") != std::string::npos ||
      lower.find("per_sec") != std::string::npos ||
      lower.find("hit_rate") != std::string::npos ||
      lower.find("frac") != std::string::npos) {
    return +1;
  }
  return 0;
}

std::string formatNumber(double value) {
  std::ostringstream os;
  os << std::setprecision(6) << value;
  return os.str();
}

void checkFlowSeries(const RunLedgerEntry& prev, const RunLedgerEntry& last,
                     const LedgerCheckOptions& options,
                     LedgerCheckResult::SeriesResult& out) {
  out.notes.push_back(
      "fingerprint " + std::string(last.fingerprintDigest ==
                                           prev.fingerprintDigest
                                       ? "identical to"
                                       : "differs from") +
      " previous (" + prev.fingerprintDigest + " -> " +
      last.fingerprintDigest + ")");
  if (last.optionsDigest != prev.optionsDigest) {
    out.notes.push_back(
        "options digest changed (" + prev.optionsDigest + " -> " +
        last.optionsDigest + "); QoR bands still apply");
  }

  const auto gateGrowth = [&out](const char* what, double prev_,
                                 double last_, double allowed) {
    if (last_ > allowed) {
      std::ostringstream os;
      os << what << " regressed: " << formatNumber(prev_) << " -> "
         << formatNumber(last_) << " (allowed <= " << formatNumber(allowed)
         << ")";
      out.failures.push_back(os.str());
    }
  };
  gateGrowth("wirelength", static_cast<double>(prev.qor.wirelengthDbu),
             static_cast<double>(last.qor.wirelengthDbu),
             static_cast<double>(prev.qor.wirelengthDbu) *
                 (1.0 + options.tolQorRel));
  gateGrowth("vias", static_cast<double>(prev.qor.vias),
             static_cast<double>(last.qor.vias),
             static_cast<double>(prev.qor.vias) * (1.0 + options.tolQorRel));
  gateGrowth("overflow", prev.qor.totalOverflow, last.qor.totalOverflow,
             prev.qor.totalOverflow * (1.0 + options.tolOverflowRel) +
                 options.tolOverflowAbs);
  if (last.qor.openNets > prev.qor.openNets) {
    out.failures.push_back(
        "open nets regressed: " + std::to_string(prev.qor.openNets) +
        " -> " + std::to_string(last.qor.openNets));
  }
  // Wall clock gates only against meaningful baselines: sub-millisecond
  // totals are pure noise.
  if (prev.wallSeconds > 1e-3) {
    gateGrowth("wall time (s)", prev.wallSeconds, last.wallSeconds,
               prev.wallSeconds * (1.0 + options.tolPerfRel));
  }
}

void checkBenchSeries(const RunLedgerEntry& prev, const RunLedgerEntry& last,
                      const LedgerCheckOptions& options,
                      LedgerCheckResult::SeriesResult& out) {
  if (!prev.metrics.isObject() || !last.metrics.isObject()) {
    out.notes.push_back("bench entry lacks a metrics object; nothing gated");
    return;
  }
  int gated = 0;
  for (const auto& [name, value] : last.metrics.asObject()) {
    if (!value.isNumber()) continue;
    const Json* prevValue = prev.metrics.find(name);
    if (prevValue == nullptr || !prevValue->isNumber()) continue;
    const int direction = metricDirection(name);
    if (direction == 0) continue;
    ++gated;
    const double prev_ = prevValue->asDouble();
    const double last_ = value.asDouble();
    if (direction < 0) {  // lower is better: growth beyond band fails
      const double allowed = prev_ * (1.0 + options.tolPerfRel);
      if (prev_ > 0.0 && last_ > allowed) {
        out.failures.push_back(name + " regressed: " + formatNumber(prev_) +
                               " -> " + formatNumber(last_) +
                               " (allowed <= " + formatNumber(allowed) + ")");
      }
    } else {  // higher is better: shrink beyond band fails
      const double allowed = prev_ / (1.0 + options.tolPerfRel);
      if (prev_ > 0.0 && last_ < allowed) {
        out.failures.push_back(name + " regressed: " + formatNumber(prev_) +
                               " -> " + formatNumber(last_) +
                               " (allowed >= " + formatNumber(allowed) + ")");
      }
    }
  }
  out.notes.push_back(std::to_string(gated) + " metric(s) gated");
}

}  // namespace

Json ReportDiff::toJson() const {
  Json root = Json::object();
  root.set("fingerprintsIdentical", fingerprintsIdentical);
  root.set("qorIdentical", qorIdentical);
  root.set("configsMatch", configsMatch);
  Json qorArr = Json::array();
  for (const Delta& d : qor) {
    Json row = Json::object();
    row.set("name", d.name);
    row.set("a", d.a);
    row.set("b", d.b);
    row.set("delta", d.delta());
    qorArr.append(std::move(row));
  }
  root.set("qor", std::move(qorArr));
  Json phaseArr = Json::array();
  for (const Delta& d : phases) {
    Json row = Json::object();
    row.set("name", d.name);
    row.set("a", d.a);
    row.set("b", d.b);
    row.set("delta", d.delta());
    phaseArr.append(std::move(row));
  }
  root.set("phases", std::move(phaseArr));
  Json iterArr = Json::array();
  for (const IterationDelta& d : iterations) {
    Json row = Json::object();
    row.set("iteration", d.iteration);
    row.set("movedCellsDelta", d.movedCells);
    row.set("reroutedNetsDelta", d.reroutedNets);
    row.set("selectedCostDelta", d.selectedCost);
    row.set("netsPricedDelta", d.netsPriced);
    if (d.hasOverflow) {
      row.set("overflowAfterA", d.overflowAfterA);
      row.set("overflowAfterB", d.overflowAfterB);
    }
    iterArr.append(std::move(row));
  }
  root.set("iterations", std::move(iterArr));
  return root;
}

ReportDiff diffReports(const RunReport& a, const RunReport& b) {
  ReportDiff diff;
  diff.fingerprintsIdentical = a.fingerprint() == b.fingerprint();
  diff.configsMatch = a.iterations == b.iterations && a.seed == b.seed;

  diff.qor = {
      {"wirelengthDbu", static_cast<double>(a.router.wirelengthDbu),
       static_cast<double>(b.router.wirelengthDbu)},
      {"vias", static_cast<double>(a.router.vias),
       static_cast<double>(b.router.vias)},
      {"totalOverflow", a.router.totalOverflow, b.router.totalOverflow},
      {"overflowedEdges", static_cast<double>(a.router.overflowedEdges),
       static_cast<double>(b.router.overflowedEdges)},
      {"openNets", static_cast<double>(a.router.openNets),
       static_cast<double>(b.router.openNets)},
  };
  diff.qorIdentical = true;
  for (const ReportDiff::Delta& d : diff.qor) {
    if (!nearlyEqual(d.a, d.b)) diff.qorIdentical = false;
  }

  // Phase attribution: union of both phase lists, a's flow order first.
  for (const RunReport::PhaseStat& phase : a.phases) {
    diff.phases.push_back(
        {phase.name, phase.seconds, b.phaseSeconds(phase.name)});
  }
  for (const RunReport::PhaseStat& phase : b.phases) {
    if (a.phaseSeconds(phase.name) == 0.0 &&
        std::none_of(diff.phases.begin(), diff.phases.end(),
                     [&phase](const ReportDiff::Delta& d) {
                       return d.name == phase.name;
                     })) {
      diff.phases.push_back({phase.name, 0.0, phase.seconds});
    }
  }

  const std::size_t iterationCount =
      std::max(a.iterationStats.size(), b.iterationStats.size());
  const TimelineRecord absent;  // the side that ran fewer iterations
  for (std::size_t i = 0; i < iterationCount; ++i) {
    ReportDiff::IterationDelta d;
    d.iteration = static_cast<int>(i);
    // Record i is iteration i in both reports, so overflow brackets
    // pair by iteration number even when captures started late.
    const TimelineRecord& statA =
        i < a.iterationStats.size() ? a.iterationStats[i] : absent;
    const TimelineRecord& statB =
        i < b.iterationStats.size() ? b.iterationStats[i] : absent;
    d.movedCells = statB.movedCells - statA.movedCells;
    d.reroutedNets = statB.reroutedNets - statA.reroutedNets;
    d.selectedCost = statB.selectedCost - statA.selectedCost;
    d.netsPriced = static_cast<std::int64_t>(statB.netsPriced) -
                   static_cast<std::int64_t>(statA.netsPriced);
    if (statA.overflowCaptured && statB.overflowCaptured) {
      d.hasOverflow = true;
      d.overflowAfterA = statA.overflowAfter;
      d.overflowAfterB = statB.overflowAfter;
    }
    diff.iterations.push_back(d);
  }
  return diff;
}

std::string formatReportDiff(const ReportDiff& diff,
                             const std::string& labelA,
                             const std::string& labelB) {
  std::ostringstream os;
  os << "RunReport diff: A=" << labelA << "  B=" << labelB << "\n";
  os << "  fingerprints: "
     << (diff.fingerprintsIdentical ? "identical" : "DIFFER") << "\n";
  if (!diff.configsMatch) {
    os << "  note: configs differ (iterations or seed) — deltas compare "
          "different flows\n";
  }

  os << "  qor (" << (diff.qorIdentical ? "identical" : "deltas") << "):\n";
  for (const ReportDiff::Delta& d : diff.qor) {
    os << "    " << std::left << std::setw(16) << d.name << std::right
       << std::setw(14) << formatNumber(d.a) << " -> " << std::setw(14)
       << formatNumber(d.b) << "  (" << std::showpos << formatNumber(d.delta())
       << std::noshowpos << ")\n";
  }

  os << "  phase wall times (s):\n";
  for (const ReportDiff::Delta& d : diff.phases) {
    os << "    " << std::left << std::setw(6) << d.name << std::right
       << std::fixed << std::setprecision(3) << std::setw(9) << d.a << " -> "
       << std::setw(9) << d.b << "  (" << std::showpos << d.delta()
       << std::noshowpos << ")\n";
    os.unsetf(std::ios::fixed);
  }

  os << "  iterations:\n";
  for (const ReportDiff::IterationDelta& d : diff.iterations) {
    os << "    iter " << std::setw(2) << d.iteration
       << "  moved " << std::showpos << d.movedCells
       << "  rerouted " << d.reroutedNets
       << "  cost " << formatNumber(d.selectedCost)
       << "  priced " << d.netsPriced << std::noshowpos;
    if (d.hasOverflow) {
      os << "  overflowAfter " << formatNumber(d.overflowAfterA) << " -> "
         << formatNumber(d.overflowAfterB);
    }
    os << "\n";
  }
  return os.str();
}

LedgerCheckResult checkLedger(const RunLedger::LoadResult& loaded,
                              const LedgerCheckOptions& options) {
  LedgerCheckResult result;
  result.skippedLines = loaded.skippedLines;

  // Group into (kind, design) series, file order preserved.
  std::map<std::pair<std::string, std::string>,
           std::vector<const RunLedgerEntry*>>
      series;
  for (const RunLedgerEntry& entry : loaded.entries) {
    if (options.skipDirty && entry.dirty) continue;
    series[{entry.kind, entry.design}].push_back(&entry);
  }

  for (const auto& [key, entries] : series) {
    LedgerCheckResult::SeriesResult out;
    out.kind = key.first;
    out.design = key.second;
    if (entries.size() < 2) {
      out.notes.push_back("no previous entry; nothing to gate against");
    } else {
      out.checked = true;
      const RunLedgerEntry& prev = *entries[entries.size() - 2];
      const RunLedgerEntry& last = *entries.back();
      if (prev.dirty || last.dirty) {
        out.notes.push_back("comparing against a dirty-tree entry");
      }
      if (last.kind == "bench") {
        checkBenchSeries(prev, last, options, out);
      } else {
        checkFlowSeries(prev, last, options, out);
      }
      out.ok = out.failures.empty();
      if (!out.ok) result.ok = false;
    }
    result.series.push_back(std::move(out));
  }
  return result;
}

std::string LedgerCheckResult::format() const {
  std::ostringstream os;
  os << "ledger check: " << series.size() << " series";
  if (skippedLines > 0) {
    os << " (" << skippedLines << " unparseable line(s) skipped)";
  }
  os << "\n";
  for (const SeriesResult& s : series) {
    os << "  [" << s.kind << "] " << s.design << ": "
       << (s.checked ? (s.ok ? "OK" : "FAIL") : "SKIP") << "\n";
    for (const std::string& note : s.notes) {
      os << "    note: " << note << "\n";
    }
    for (const std::string& failure : s.failures) {
      os << "    FAIL: " << failure << "\n";
    }
  }
  os << (ok ? "ledger check passed" : "ledger check FAILED") << "\n";
  return os.str();
}

}  // namespace crp::obs
