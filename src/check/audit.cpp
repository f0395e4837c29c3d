#include "check/audit.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <filesystem>
#include <sstream>
#include <string>

#include "db/legality.hpp"
#include "obs/context.hpp"
#include "obs/flight_recorder.hpp"
#include "lefdef/def_parser.hpp"
#include "lefdef/def_writer.hpp"
#include "lefdef/guide_io.hpp"

namespace crp::check {
namespace {

// Diagnosability beats completeness for a mass failure: a corrupted
// demand map can dirty thousands of edges, and the first few localize
// the bug as well as all of them.  Per-invariant cap with an explicit
// suppression marker so a capped report never reads as exhaustive.
constexpr int kMaxFailuresPerInvariant = 20;

void record(AuditReport& report, AuditFailure failure) {
  const int already = report.countFor(failure.invariant);
  if (already > kMaxFailuresPerInvariant) return;
  if (already == kMaxFailuresPerInvariant) {
    failure.object = "(additional failures suppressed)";
    failure.expected.clear();
    failure.actual.clear();
  }
  report.failures.push_back(std::move(failure));
}

std::string formatDouble(double value) {
  std::ostringstream os;
  os.precision(17);
  os << value;
  return os.str();
}

std::string wireEdgeName(const groute::WireEdge& e) {
  std::ostringstream os;
  os << "wire edge L" << e.layer << " (" << e.x << "," << e.y << ")";
  return os.str();
}

std::string viaEdgeName(const groute::ViaEdge& e) {
  std::ostringstream os;
  os << "via edge L" << e.layer << "->L" << e.layer + 1 << " (" << e.x << ","
     << e.y << ")";
  return os.str();
}

std::string nodeName(const groute::GPoint& p) {
  std::ostringstream os;
  os << "node L" << p.layer << " (" << p.x << "," << p.y << ")";
  return os.str();
}

std::string segmentName(const groute::RouteSegment& seg) {
  std::ostringstream os;
  os << "segment (" << seg.a.layer << "," << seg.a.x << "," << seg.a.y
     << ")-(" << seg.b.layer << "," << seg.b.x << "," << seg.b.y << ")";
  return os.str();
}

std::string terminalName(const groute::GPoint& p) {
  std::ostringstream os;
  os << "terminal L" << p.layer << " (" << p.x << "," << p.y << ")";
  return os.str();
}

/// First line number + content where two texts diverge, for the
/// round-trip failure records.
std::string firstTextDivergence(const std::string& a, const std::string& b) {
  std::istringstream sa(a);
  std::istringstream sb(b);
  std::string la;
  std::string lb;
  int lineNo = 0;
  while (true) {
    ++lineNo;
    const bool okA = static_cast<bool>(std::getline(sa, la));
    const bool okB = static_cast<bool>(std::getline(sb, lb));
    if (!okA && !okB) return "texts identical";
    if (la != lb || okA != okB) {
      std::ostringstream os;
      os << "line " << lineNo << ": \"" << (okA ? la : std::string("<eof>"))
         << "\" vs \"" << (okB ? lb : std::string("<eof>")) << "\"";
      return os.str();
    }
  }
}

}  // namespace

// ---- names / parsing --------------------------------------------------------

const char* auditLevelName(AuditLevel level) {
  switch (level) {
    case AuditLevel::kOff:
      return "off";
    case AuditLevel::kPhaseBoundary:
      return "phase-boundary";
    case AuditLevel::kParanoid:
      return "paranoid";
  }
  return "unknown";
}

std::optional<AuditLevel> auditLevelFromString(const std::string& text) {
  if (text == "off" || text == "none") return AuditLevel::kOff;
  if (text == "phase" || text == "phase-boundary")
    return AuditLevel::kPhaseBoundary;
  if (text == "paranoid" || text == "full") return AuditLevel::kParanoid;
  return std::nullopt;
}

const char* invariantName(Invariant invariant) {
  switch (invariant) {
    case Invariant::kPlacementLegality:
      return "placement-legality";
    case Invariant::kDemandExactness:
      return "demand-exactness";
    case Invariant::kRouteValidity:
      return "route-validity";
    case Invariant::kPricingCoherence:
      return "pricing-coherence";
    case Invariant::kGuideRoundTrip:
      return "guide-round-trip";
    case Invariant::kDefRoundTrip:
      return "def-round-trip";
    case Invariant::kBlockageDemand:
      return "blockage-demand-exactness";
    case Invariant::kMacroLegality:
      return "macro-overlap-legality";
    case Invariant::kHeightAlignment:
      return "height-row-alignment";
    case Invariant::kCandidatePricing:
      return "candidate-pricing";
  }
  return "unknown";
}

// ---- AuditFailure / AuditReport ---------------------------------------------

std::string AuditFailure::describe() const {
  std::ostringstream os;
  os << "[" << invariantName(invariant) << "] " << object;
  if (!expected.empty() || !actual.empty()) {
    os << ": expected " << expected << ", actual " << actual;
  }
  return os.str();
}

int AuditReport::countFor(Invariant invariant) const {
  int count = 0;
  for (const AuditFailure& failure : failures) {
    if (failure.invariant == invariant) ++count;
  }
  return count;
}

bool AuditReport::onlyFailure(Invariant invariant) const {
  if (failures.empty()) return false;
  return std::all_of(failures.begin(), failures.end(),
                     [invariant](const AuditFailure& failure) {
                       return failure.invariant == invariant;
                     });
}

std::string AuditReport::summary() const {
  if (clean()) return "";
  std::ostringstream os;
  os << failures.size() << " audit failure(s) across " << invariantsChecked
     << " invariant(s) checked:\n";
  for (const AuditFailure& failure : failures) {
    os << "  " << failure.describe() << "\n";
  }
  return os.str();
}

// ---- standalone building blocks ---------------------------------------------

void auditRoute(const groute::RoutingGraph& graph,
                const groute::NetRoute& route,
                const std::vector<groute::GPoint>& terminals,
                const std::string& object, AuditReport& report) {
  if (terminals.size() < 2) return;  // nothing to route; trivially valid

  if (!route.routed) {
    record(report, {Invariant::kRouteValidity, object,
                    "routed net covering " + std::to_string(terminals.size()) +
                        " terminals",
                    "unrouted (open net)"});
    return;
  }

  // Per-segment geometry: endpoints on the grid, wire runs straight and
  // direction-legal on their layer, via stacks within the layer range.
  bool geometryClean = true;
  for (const groute::RouteSegment& seg : route.segments) {
    if (!graph.validNode(seg.a) || !graph.validNode(seg.b)) {
      record(report, {Invariant::kRouteValidity, object,
                      "segment endpoints inside the gcell grid",
                      segmentName(seg) + " out of bounds"});
      geometryClean = false;
      continue;
    }
    if (seg.isVia()) {
      if (seg.a.x != seg.b.x || seg.a.y != seg.b.y) {
        record(report, {Invariant::kRouteValidity, object,
                        "via stack at a single (x,y) column",
                        segmentName(seg) + " changes both layer and position"});
        geometryClean = false;
      }
      continue;
    }
    if (seg.a.x != seg.b.x && seg.a.y != seg.b.y) {
      record(report, {Invariant::kRouteValidity, object,
                      "axis-aligned wire run",
                      segmentName(seg) + " bends within one layer"});
      geometryClean = false;
      continue;
    }
    const db::LayerDir dir = graph.layerDir(seg.a.layer);
    const bool horizontal = seg.a.y == seg.b.y && seg.a.x != seg.b.x;
    const bool vertical = seg.a.x == seg.b.x && seg.a.y != seg.b.y;
    if ((horizontal && dir != db::LayerDir::kHorizontal) ||
        (vertical && dir != db::LayerDir::kVertical)) {
      record(report, {Invariant::kRouteValidity, object,
                      std::string("wire run along the layer's preferred "
                                  "direction (") +
                          (dir == db::LayerDir::kHorizontal ? "H" : "V") + ")",
                      segmentName(seg) + " runs against it"});
      geometryClean = false;
      continue;
    }
    // Every wire edge the run crosses must exist (guards the grid's
    // upper boundary, which validNode alone does not).
    const groute::RouteSegment n = groute::normalized(seg);
    for (int x = n.a.x, y = n.a.y; x < n.b.x || y < n.b.y;
         horizontal ? ++x : ++y) {
      const groute::WireEdge e{n.a.layer, x, y};
      if (!graph.validWireEdge(e)) {
        record(report, {Invariant::kRouteValidity, object,
                        "wire edges inside the routing graph",
                        segmentName(seg) + " crosses invalid " +
                            wireEdgeName(e)});
        geometryClean = false;
        break;
      }
    }
  }

  // Terminal coverage, per terminal for diagnosability: the strict
  // contract (route.hpp) requires the terminal's (x,y) column to appear
  // in some segment.
  for (const groute::GPoint& t : terminals) {
    const bool covered = std::any_of(
        route.segments.begin(), route.segments.end(),
        [&t](const groute::RouteSegment& seg) {
          if (seg.isVia() || seg.a.x == seg.b.x || seg.a.y == seg.b.y) {
            const groute::RouteSegment n = groute::normalized(seg);
            if (seg.isVia()) return n.a.x == t.x && n.a.y == t.y;
            if (n.a.y == n.b.y)
              return n.a.y == t.y && n.a.x <= t.x && t.x <= n.b.x;
            if (n.a.x == n.b.x)
              return n.a.x == t.x && n.a.y <= t.y && t.y <= n.b.y;
          }
          return false;
        });
    if (!covered) {
      record(report, {Invariant::kRouteValidity, object,
                      terminalName(t) + " covered by a segment column",
                      "no segment touches the terminal's (x,y) column"});
    }
  }

  // Single-component check through the canonical oracle, so the audit's
  // notion of connectedness can never drift from the router's.
  if (geometryClean && !groute::routeConnectsTerminals(route, terminals)) {
    record(report, {Invariant::kRouteValidity, object,
                    "one connected component covering all terminals",
                    "segment graph is disconnected"});
  }
}

void auditDemandAgainstRoutes(
    const db::Database& db, const groute::RoutingGraph& graph,
    const std::vector<const groute::NetRoute*>& routes, AuditReport& report) {
  // From-scratch reference: a fresh graph with the same cost model,
  // charged with exactly the committed routes.  Fixed usage (U_f) is a
  // construction-time snapshot in both graphs and cells may have moved
  // since `graph` was built, so the diff covers only route-induced
  // state; the Eq. 9 demand comparison subtracts each graph's own U_f.
  groute::RoutingGraph fresh(db, graph.config());
  for (const groute::NetRoute* route : routes) {
    if (route != nullptr && route->routed) fresh.applyRoute(*route, +1);
  }

  const db::GCellGrid& grid = graph.grid();
  for (int layer = 0; layer < graph.numLayers(); ++layer) {
    for (int y = 0; y < grid.countY(); ++y) {
      for (int x = 0; x < grid.countX(); ++x) {
        const groute::WireEdge e{layer, x, y};
        if (graph.validWireEdge(e)) {
          if (graph.wireUsage(e) != fresh.wireUsage(e)) {
            record(report, {Invariant::kDemandExactness, wireEdgeName(e),
                            "usage " + formatDouble(fresh.wireUsage(e)),
                            "usage " + formatDouble(graph.wireUsage(e))});
          } else {
            // Eq. 9 demand net of the static fixed term: exposes a via
            // bookkeeping break even when wire usage agrees.
            const double expected = fresh.demand(e) - fresh.fixedUsage(e);
            const double actual = graph.demand(e) - graph.fixedUsage(e);
            if (expected != actual) {
              record(report, {Invariant::kDemandExactness, wireEdgeName(e),
                              "demand-U_f " + formatDouble(expected),
                              "demand-U_f " + formatDouble(actual)});
            }
          }
        }
        const groute::GPoint node{layer, x, y};
        if (graph.viaCount(node) != fresh.viaCount(node)) {
          record(report,
                 {Invariant::kDemandExactness, nodeName(node),
                  "via count " + std::to_string(fresh.viaCount(node)),
                  "via count " + std::to_string(graph.viaCount(node))});
        }
        if (layer + 1 < graph.numLayers()) {
          const groute::ViaEdge v{layer, x, y};
          if (graph.viaUsage(v) != fresh.viaUsage(v)) {
            record(report, {Invariant::kDemandExactness, viaEdgeName(v),
                            "usage " + formatDouble(fresh.viaUsage(v)),
                            "usage " + formatDouble(graph.viaUsage(v))});
          }
        }
      }
    }
  }

  if (graph.totalWireDbu() != fresh.totalWireDbu()) {
    record(report, {Invariant::kDemandExactness, "total wirelength",
                    std::to_string(fresh.totalWireDbu()) + " dbu",
                    std::to_string(graph.totalWireDbu()) + " dbu"});
  }
  if (graph.totalVias() != fresh.totalVias()) {
    record(report, {Invariant::kDemandExactness, "total vias",
                    std::to_string(fresh.totalVias()),
                    std::to_string(graph.totalVias())});
  }
}

void auditCachedPrices(
    const groute::PatternRouter& pattern,
    const std::vector<std::pair<std::vector<groute::GPoint>, double>>& entries,
    AuditReport& report) {
  groute::PatternRouter::Scratch scratch;
  for (const auto& [terminals, cachedPrice] : entries) {
    const double freshPrice = pattern.priceTree(terminals, scratch);
    if (freshPrice != cachedPrice) {
      std::ostringstream object;
      object << "cached price for " << terminals.size() << " terminals {";
      for (std::size_t i = 0; i < terminals.size(); ++i) {
        if (i > 0) object << " ";
        object << "(" << terminals[i].layer << "," << terminals[i].x << ","
               << terminals[i].y << ")";
      }
      object << "}";
      record(report, {Invariant::kPricingCoherence, object.str(),
                      formatDouble(freshPrice), formatDouble(cachedPrice)});
    }
  }
}

void auditCandidatePrice(const std::string& cellName, std::size_t candidate,
                         double referencePrice, double enginePrice,
                         AuditReport& report) {
  if (enginePrice == referencePrice) return;
  record(report, {Invariant::kCandidatePricing,
                  "cell " + cellName + " candidate " +
                      std::to_string(candidate),
                  formatDouble(referencePrice), formatDouble(enginePrice)});
}

// ---- DbAuditor --------------------------------------------------------------

DbAuditor::DbAuditor(const db::Database& db, const groute::GlobalRouter* router)
    : db_(db), router_(router) {}

AuditReport DbAuditor::auditAll() const {
  AuditReport report;
  auditPlacement(report);
  auditDefRoundTrip(report);
  if (router_ != nullptr) {
    auditRoutes(report);
    auditDemand(report);
    auditGuideRoundTrip(report);
    auditBlockages(report);
  }
  return report;
}

void DbAuditor::auditPlacement(AuditReport& report) const {
  // One checkPlacement scan covers three catalog entries; each
  // violation is classified to the invariant it breaks so the mutation
  // tests can pin "caught by exactly the named invariant".
  report.invariantsChecked += 3;
  for (const db::PlacementViolation& v : db::checkPlacement(db_)) {
    const std::string object =
        v.cell != db::kInvalidId ? "cell " + db_.cell(v.cell).name : "die";
    Invariant invariant = Invariant::kPlacementLegality;
    switch (v.kind) {
      case db::ViolationKind::kBadRowSpan:
        invariant = Invariant::kHeightAlignment;
        break;
      case db::ViolationKind::kMacroOverlap:
        invariant = Invariant::kMacroLegality;
        break;
      case db::ViolationKind::kOutsideDie:
        if (v.cell != db::kInvalidId && db_.cell(v.cell).fixed) {
          invariant = Invariant::kMacroLegality;
        }
        break;
      default:
        break;
    }
    record(report, {invariant, object, "legal placement", v.describe(db_)});
  }
}

void DbAuditor::auditBlockages(AuditReport& report) const {
  if (router_ == nullptr) return;
  ++report.invariantsChecked;
  const groute::RoutingGraph& graph = router_->graph();
  // The fixed-usage and hard-blocked maps are construction-time
  // snapshots; rebuilding from the current db must reproduce them
  // exactly (fixed cells never move, so any diff means the snapshot
  // contract was broken or the charge arithmetic diverged).
  groute::RoutingGraph fresh(db_, graph.config());
  for (int layer = 0; layer < graph.numLayers(); ++layer) {
    for (int y = 0; y < graph.wireEdgeCountY(layer); ++y) {
      for (int x = 0; x < graph.wireEdgeCountX(layer); ++x) {
        const groute::WireEdge e{layer, x, y};
        if (graph.fixedUsage(e) != fresh.fixedUsage(e)) {
          record(report, {Invariant::kBlockageDemand, wireEdgeName(e),
                          "U_f " + formatDouble(fresh.fixedUsage(e)),
                          "U_f " + formatDouble(graph.fixedUsage(e))});
        }
        if (graph.blockedFraction(e) != fresh.blockedFraction(e)) {
          record(report,
                 {Invariant::kBlockageDemand, wireEdgeName(e),
                  "blocked fraction " + formatDouble(fresh.blockedFraction(e)),
                  "blocked fraction " +
                      formatDouble(graph.blockedFraction(e))});
        }
      }
    }
  }
  // No committed route may cross a hard-blocked edge: infinite-cost
  // edges are impassable, so a route over one means a router bypassed
  // the cost model (or demand was edited behind the router's back).
  for (db::NetId net = 0; net < db_.numNets(); ++net) {
    const groute::NetRoute& route = router_->route(net);
    if (!route.routed) continue;
    const std::string object = "net " + db_.net(net).name;
    for (const groute::RouteSegment& rawSeg : route.segments) {
      const groute::RouteSegment seg = groute::normalized(rawSeg);
      if (seg.isVia()) continue;
      const bool horizontal = seg.a.y == seg.b.y && seg.a.x != seg.b.x;
      for (int x = seg.a.x, y = seg.a.y; x < seg.b.x || y < seg.b.y;
           horizontal ? ++x : ++y) {
        const groute::WireEdge e{seg.a.layer, x, y};
        if (graph.validWireEdge(e) && graph.hardBlocked(e)) {
          record(report, {Invariant::kBlockageDemand, object,
                          "route avoids hard-blocked edges",
                          segmentName(seg) + " crosses blocked " +
                              wireEdgeName(e)});
          break;
        }
      }
    }
  }
}

void DbAuditor::auditDemand(AuditReport& report) const {
  if (router_ == nullptr) return;
  ++report.invariantsChecked;
  std::vector<const groute::NetRoute*> routes;
  routes.reserve(static_cast<std::size_t>(db_.numNets()));
  for (db::NetId net = 0; net < db_.numNets(); ++net) {
    routes.push_back(&router_->route(net));
  }
  auditDemandAgainstRoutes(db_, router_->graph(), routes, report);
}

void DbAuditor::auditRoutes(AuditReport& report) const {
  if (router_ == nullptr) return;
  ++report.invariantsChecked;
  for (db::NetId net = 0; net < db_.numNets(); ++net) {
    const std::vector<groute::GPoint> terminals = router_->netTerminals(net);
    const groute::NetRoute& route = router_->route(net);
    const std::string object = "net " + db_.net(net).name;
    if (route.routed && route.net != net) {
      record(report, {Invariant::kRouteValidity, object,
                      "route tagged with net id " + std::to_string(net),
                      "tagged " + std::to_string(route.net)});
    }
    auditRoute(router_->graph(), route, terminals, object, report);
  }
}

void DbAuditor::auditGuideRoundTrip(AuditReport& report) const {
  if (router_ == nullptr) return;
  ++report.invariantsChecked;
  const std::vector<lefdef::NetGuide> guides = router_->buildGuides();
  std::ostringstream first;
  lefdef::writeGuides(first, db_, guides);
  const std::vector<lefdef::NetGuide> parsed =
      lefdef::parseGuides(first.str(), db_.tech());

  if (parsed.size() != guides.size()) {
    record(report, {Invariant::kGuideRoundTrip, "guide file",
                    std::to_string(guides.size()) + " nets",
                    std::to_string(parsed.size()) + " nets after parse"});
    return;
  }
  for (std::size_t i = 0; i < guides.size(); ++i) {
    const std::string object = "guides of net " + guides[i].net;
    if (parsed[i].net != guides[i].net) {
      record(report, {Invariant::kGuideRoundTrip, object, guides[i].net,
                      parsed[i].net});
      continue;
    }
    if (parsed[i].rects != guides[i].rects) {
      record(report,
             {Invariant::kGuideRoundTrip, object,
              std::to_string(guides[i].rects.size()) + " rects (verbatim)",
              std::to_string(parsed[i].rects.size()) + " rects, content "
                                                       "differs"});
    }
  }
  // Belt and suspenders: write-again must reproduce the bytes, so a
  // writer/parser asymmetry the structural diff misses still fails.
  std::ostringstream second;
  lefdef::writeGuides(second, db_, parsed);
  if (first.str() != second.str()) {
    record(report, {Invariant::kGuideRoundTrip, "guide file text",
                    "write(parse(write)) byte-identical",
                    firstTextDivergence(first.str(), second.str())});
  }
}

void DbAuditor::auditDefRoundTrip(AuditReport& report) const {
  ++report.invariantsChecked;
  std::ostringstream first;
  lefdef::writeDef(first, db_);
  db::Design reparsed;
  try {
    reparsed = lefdef::parseDef(first.str(), db_.tech(), db_.library());
  } catch (const std::exception& e) {
    record(report, {Invariant::kDefRoundTrip, "DEF text",
                    "parseable by def_parser", std::string("throws: ") +
                                                   e.what()});
    return;
  }
  db::Database redb(db_.tech(), db_.library(), std::move(reparsed));
  std::ostringstream second;
  lefdef::writeDef(second, redb);
  if (first.str() != second.str()) {
    record(report, {Invariant::kDefRoundTrip, "DEF text",
                    "write(parse(write)) byte-identical",
                    firstTextDivergence(first.str(), second.str())});
  }
}

// ---- flow fingerprint -------------------------------------------------------

namespace {

struct Fnv1a {
  std::uint64_t hash = 1469598103934665603ull;
  void mix(std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (value >> (8 * i)) & 0xffu;
      hash *= 1099511628211ull;
    }
  }
  void mix(const groute::GPoint& p) {
    mix(static_cast<std::uint64_t>(p.layer));
    mix(static_cast<std::uint64_t>(p.x));
    mix(static_cast<std::uint64_t>(p.y));
  }
};

}  // namespace

obs::Json auditReportToJson(const AuditReport& report) {
  obs::Json doc = obs::Json::object();
  doc.set("invariantsChecked", report.invariantsChecked);
  obs::Json failures = obs::Json::array();
  for (const AuditFailure& failure : report.failures) {
    obs::Json f = obs::Json::object();
    f.set("invariant", invariantName(failure.invariant));
    f.set("object", failure.object);
    f.set("expected", failure.expected);
    f.set("actual", failure.actual);
    failures.append(std::move(f));
  }
  doc.set("failures", std::move(failures));
  return doc;
}

std::string writeFlightRecorderDump(const AuditReport& report,
                                    const std::string& dir,
                                    const std::string& context) {
  std::string slug;
  for (const char c : context) {
    slug += (std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '-' ||
             c == '_')
                ? c
                : '-';
  }
  if (slug.empty()) slug = "audit";
  try {
    std::filesystem::create_directories(dir);
    const std::string path = dir + "/flight_" + slug + ".json";
    obs::Json trigger = obs::Json::object();
    trigger.set("source", "audit");
    trigger.set("context", context);
    trigger.set("audit", auditReportToJson(report));
    // Ambient context: a session's audit failure dumps that session's
    // ring, not the process-default one.
    if (!obs::currentContext().flightRecorder().dumpToFile(
            path, std::move(trigger))) {
      return {};
    }
    return path;
  } catch (const std::exception&) {
    return {};
  }
}

std::uint64_t flowFingerprint(const db::Database& db,
                              const groute::GlobalRouter& router) {
  Fnv1a fnv;
  fnv.mix(static_cast<std::uint64_t>(db.numCells()));
  for (db::CellId id = 0; id < db.numCells(); ++id) {
    const db::Component& cell = db.cell(id);
    fnv.mix(static_cast<std::uint64_t>(cell.pos.x));
    fnv.mix(static_cast<std::uint64_t>(cell.pos.y));
  }
  fnv.mix(static_cast<std::uint64_t>(db.numNets()));
  for (db::NetId net = 0; net < db.numNets(); ++net) {
    const groute::NetRoute& route = router.route(net);
    fnv.mix(route.routed ? 1u : 0u);
    fnv.mix(static_cast<std::uint64_t>(route.segments.size()));
    for (const groute::RouteSegment& seg : route.segments) {
      const groute::RouteSegment n = groute::normalized(seg);
      fnv.mix(n.a);
      fnv.mix(n.b);
    }
  }
  fnv.mix(static_cast<std::uint64_t>(router.graph().totalWireDbu()));
  fnv.mix(static_cast<std::uint64_t>(router.graph().totalVias()));
  return fnv.hash;
}

}  // namespace crp::check
