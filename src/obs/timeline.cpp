#include "obs/timeline.hpp"

#include <iomanip>
#include <sstream>

namespace crp::obs {

Json TimelineRecord::toJson() const {
  Json record = Json::object();
  record.set("iteration", iteration);
  record.set("criticalCells", criticalCells);
  record.set("dampedCells", dampedCells);
  record.set("candidatesGenerated", candidatesGenerated);
  record.set("netsPriced", netsPriced);
  record.set("movesSelected", movesSelected);
  record.set("selectedCost", selectedCost);
  record.set("movedCells", movedCells);
  record.set("displacedCells", displacedCells);
  record.set("totalDisplacementDbu", totalDisplacementDbu);
  record.set("maxDisplacementDbu", maxDisplacementDbu);
  record.set("reroutedNets", reroutedNets);
  record.set("overflowBefore", overflowBefore);
  record.set("overflowAfter", overflowAfter);
  record.set("overflowedEdgesBefore", overflowedEdgesBefore);
  record.set("overflowedEdgesAfter", overflowedEdgesAfter);
  if (eco) record.set("eco", true);
  return record;
}

TimelineRecord TimelineRecord::fromJson(const Json& json) {
  TimelineRecord record;
  record.iteration = static_cast<int>(json.at("iteration").asInt());
  record.criticalCells = static_cast<int>(json.at("criticalCells").asInt());
  record.dampedCells = static_cast<int>(json.at("dampedCells").asInt());
  record.candidatesGenerated =
      static_cast<int>(json.at("candidatesGenerated").asInt());
  record.netsPriced = json.at("netsPriced").asUint();
  record.movesSelected = static_cast<int>(json.at("movesSelected").asInt());
  record.selectedCost = json.at("selectedCost").asDouble();
  record.movedCells = static_cast<int>(json.at("movedCells").asInt());
  record.displacedCells = static_cast<int>(json.at("displacedCells").asInt());
  record.totalDisplacementDbu = json.at("totalDisplacementDbu").asInt();
  record.maxDisplacementDbu = json.at("maxDisplacementDbu").asInt();
  record.reroutedNets = static_cast<int>(json.at("reroutedNets").asInt());
  record.overflowBefore = json.at("overflowBefore").asDouble();
  record.overflowAfter = json.at("overflowAfter").asDouble();
  record.overflowedEdgesBefore =
      static_cast<int>(json.at("overflowedEdgesBefore").asInt());
  record.overflowedEdgesAfter =
      static_cast<int>(json.at("overflowedEdgesAfter").asInt());
  if (const Json* eco = json.find("eco")) record.eco = eco->asBool();
  record.overflowCaptured = true;  // only captured records are serialized
  return record;
}

std::string formatTimeline(const std::vector<TimelineRecord>& timeline) {
  std::ostringstream os;
  os << "iter  crit  damp  cand  priced  sel  moved  disp  maxDisp  "
        "reroute  ovfl before -> after (edges)\n";
  for (const TimelineRecord& r : timeline) {
    os << std::setw(4) << r.iteration << "  " << std::setw(4)
       << r.criticalCells << "  " << std::setw(4) << r.dampedCells << "  "
       << std::setw(4) << r.candidatesGenerated << "  " << std::setw(6)
       << r.netsPriced << "  " << std::setw(3) << r.movesSelected << "  "
       << std::setw(5) << r.movedCells << "  " << std::setw(4)
       << r.displacedCells << "  " << std::setw(7) << r.maxDisplacementDbu
       << "  " << std::setw(7) << r.reroutedNets << "  " << std::fixed
       << std::setprecision(2) << r.overflowBefore << " -> "
       << r.overflowAfter << " (" << r.overflowedEdgesBefore << " -> "
       << r.overflowedEdgesAfter << ")" << (r.eco ? "  [eco]" : "") << "\n";
  }
  return os.str();
}

std::string timelineCsv(const std::vector<TimelineRecord>& timeline) {
  std::ostringstream os;
  os << "iteration,criticalCells,dampedCells,candidatesGenerated,netsPriced,"
        "movesSelected,selectedCost,movedCells,displacedCells,"
        "totalDisplacementDbu,maxDisplacementDbu,reroutedNets,"
        "overflowBefore,overflowAfter,overflowedEdgesBefore,"
        "overflowedEdgesAfter,eco\n";
  for (const TimelineRecord& r : timeline) {
    os << r.iteration << ',' << r.criticalCells << ',' << r.dampedCells << ','
       << r.candidatesGenerated << ',' << r.netsPriced << ','
       << r.movesSelected << ',' << r.selectedCost << ',' << r.movedCells
       << ',' << r.displacedCells << ',' << r.totalDisplacementDbu << ','
       << r.maxDisplacementDbu << ',' << r.reroutedNets << ','
       << r.overflowBefore << ',' << r.overflowAfter << ','
       << r.overflowedEdgesBefore << ',' << r.overflowedEdgesAfter << ','
       << (r.eco ? 1 : 0) << '\n';
  }
  return os.str();
}

}  // namespace crp::obs
