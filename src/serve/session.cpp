#include "serve/session.hpp"

#include <stdexcept>
#include <utility>

#include "bmgen/perturb.hpp"
#include "db/eco.hpp"
#include "obs/run_report.hpp"

namespace crp::serve {

namespace {

double numberOr(const obs::Json& params, std::string_view key,
                double fallback) {
  const obs::Json* value = params.find(key);
  return value != nullptr ? value->asDouble() : fallback;
}

std::string stringOr(const obs::Json& params, std::string_view key,
                     std::string fallback) {
  const obs::Json* value = params.find(key);
  return value != nullptr ? value->asString() : std::move(fallback);
}

/// Builds the benchmark spec a bmgen job describes.  Unknown keys are
/// ignored; absent keys keep BenchmarkSpec defaults (small designs by
/// default — the daemon is a job server, not a batch bench).
bmgen::BenchmarkSpec specFromParams(const Session& session,
                                    const obs::Json& params) {
  bmgen::BenchmarkSpec spec;
  spec.name = stringOr(params, "name",
                       session.name.empty() ? "serve" : session.name);
  spec.targetCells = static_cast<int>(numberOr(params, "cells", 400));
  spec.utilization = numberOr(params, "util", spec.utilization);
  spec.netsPerCell = numberOr(params, "netsPerCell", spec.netsPerCell);
  spec.localityBias = numberOr(params, "localityBias", spec.localityBias);
  spec.numLayers = static_cast<int>(numberOr(params, "layers", spec.numLayers));
  spec.hotspots = static_cast<int>(numberOr(params, "hotspots", 0));
  spec.hotspotStrength =
      numberOr(params, "hotspotStrength", spec.hotspotStrength);
  spec.macroCount = static_cast<int>(numberOr(params, "macros", 0));
  spec.multiRowFrac = numberOr(params, "multiRowFrac", 0.0);
  spec.refinePlacement = numberOr(params, "refine", 0) > 0;
  spec.seed = static_cast<std::uint64_t>(numberOr(params, "seed", 1));
  return spec;
}

/// Routes the session's design once (idempotent).  The router records
/// into the session context and batches on the shared pool.
void ensureRouted(Session& session) {
  if (session.db == nullptr) {
    throw std::runtime_error(
        "session has no design (run a bmgen job first)");
  }
  if (session.routed && session.router != nullptr) return;
  session.framework.reset();
  groute::GlobalRouterOptions routerOptions;
  routerOptions.sharedPool = session.pool;
  session.router =
      std::make_unique<groute::GlobalRouter>(*session.db, routerOptions);
  session.router->run();
  session.routed = true;
}

core::CrpOptions crpOptionsFromParams(Session& session,
                                      const obs::Json& params) {
  core::CrpOptions options;
  options.iterations = static_cast<int>(numberOr(params, "k", 2));
  options.gamma = numberOr(params, "gamma", options.gamma);
  options.seed = static_cast<std::uint64_t>(numberOr(params, "seed", 1));
  options.snapshots = numberOr(params, "snapshots", 1) > 0;
  options.sharedPool = session.pool;
  return options;
}

/// Installs the per-iteration streaming callback: a compact event with
/// the iteration's headline numbers plus — when the spatial tier
/// captured it — the full record and the newest heatmap delta.  Captures
/// by value (the callback outlives the installing job's stack).
void installStreaming(Session& session, EventSink emit) {
  core::CrpFramework* framework = session.framework.get();
  if (!emit) {
    framework->setIterationCallback(nullptr);
    return;
  }
  framework->setIterationCallback(
      [framework, emit = std::move(emit)](const obs::TimelineRecord& record) {
        obs::Json event = obs::Json::object();
        event.set("event", "iteration");
        event.set("iteration", record.iteration);
        event.set("criticalCells", record.criticalCells);
        event.set("movedCells", record.movedCells);
        event.set("reroutedNets", record.reroutedNets);
        event.set("selectedCost", record.selectedCost);
        if (record.overflowCaptured) event.set("timeline", record.toJson());
        if (!framework->heatmaps().empty()) {
          event.set("heatmapDelta", framework->heatmaps().latestEntryJson());
        }
        emit(event);
      });
}

/// The result fields every flow job ends with.
void stampReport(Session& session, const obs::Json& params,
                 obs::Json& result) {
  const obs::RunReport& runReport = session.framework->runReport();
  result.set("fingerprint", runReport.fingerprint());
  if (numberOr(params, "report", 1) > 0) {
    result.set("report", runReport.toJson());
  }
}

}  // namespace

obs::Json runBmgenJob(Session& session, const obs::Json& params) {
  std::lock_guard<std::mutex> lock(session.jobMutex);
  session.context.tracer().clear();  // spans are job-scoped
  obs::ObsContextScope scope(session.context);
  const bmgen::BenchmarkSpec spec = specFromParams(session, params);
  // Teardown in dependency order before the new design replaces the
  // old one.
  session.framework.reset();
  session.router.reset();
  session.routed = false;
  session.db =
      std::make_unique<db::Database>(bmgen::generateBenchmark(spec));

  obs::Json result = obs::Json::object();
  result.set("event", "result");
  result.set("design", spec.name);
  result.set("cells", session.db->numCells());
  result.set("nets", session.db->numNets());
  if (const obs::Json* perturb = params.find("perturb")) {
    bmgen::PerturbOptions perturbOptions;
    perturbOptions.seed =
        static_cast<std::uint64_t>(numberOr(*perturb, "seed", 1));
    perturbOptions.frac = numberOr(*perturb, "frac", perturbOptions.frac);
    const db::EcoDelta delta =
        bmgen::perturbDesign(*session.db, perturbOptions);
    result.set("ecoEdits", static_cast<std::int64_t>(delta.size()));
    result.set("ecoDelta", db::ecoDeltaToJson(delta));
  }
  ++session.jobsExecuted;
  return result;
}

obs::Json runRunJob(Session& session, const obs::Json& params,
                    const EventSink& emit) {
  std::lock_guard<std::mutex> lock(session.jobMutex);
  session.context.tracer().clear();  // spans are job-scoped
  obs::ObsContextScope scope(session.context);
  ensureRouted(session);
  const core::CrpOptions options = crpOptionsFromParams(session, params);
  // A fresh framework per run: its construction-time metrics baseline
  // makes the RunReport counter deltas (and the fingerprint) describe
  // exactly this run.
  session.framework = std::make_unique<core::CrpFramework>(
      *session.db, *session.router, options);
  installStreaming(session, emit);
  const obs::RunReport& crp = session.framework->run();

  obs::Json result = obs::Json::object();
  result.set("event", "result");
  result.set("iterations", options.iterations);
  result.set("totalMoves", crp.totalMoves);
  result.set("totalReroutes", crp.totalReroutes);
  if (const obs::Json* perturb = params.find("perturb")) {
    // Derive the ECO delta from the *post-run* placement — a delta
    // drawn before the run would reference positions the iterations
    // just moved and fail the apply-time legality check.
    bmgen::PerturbOptions perturbOptions;
    perturbOptions.seed =
        static_cast<std::uint64_t>(numberOr(*perturb, "seed", 1));
    perturbOptions.frac = numberOr(*perturb, "frac", perturbOptions.frac);
    const db::EcoDelta delta =
        bmgen::perturbDesign(*session.db, perturbOptions);
    result.set("ecoEdits", static_cast<std::int64_t>(delta.size()));
    result.set("ecoDelta", db::ecoDeltaToJson(delta));
  }
  stampReport(session, params, result);
  ++session.jobsExecuted;
  return result;
}

obs::Json runEcoJob(Session& session, const obs::Json& params,
                    const EventSink& emit) {
  std::lock_guard<std::mutex> lock(session.jobMutex);
  session.context.tracer().clear();  // spans are job-scoped
  obs::ObsContextScope scope(session.context);
  const obs::Json* deltaJson = params.find("delta");
  if (deltaJson == nullptr) {
    throw std::runtime_error("eco job requires a 'delta' document");
  }
  const db::EcoDelta delta = db::ecoDeltaFromJson(*deltaJson);
  ensureRouted(session);
  if (session.framework == nullptr) {
    // No prior run in this session: wrap the routed design so runEco
    // has a framework (mirrors `crp eco --base-k 0`).
    session.framework = std::make_unique<core::CrpFramework>(
        *session.db, *session.router, crpOptionsFromParams(session, params));
  }
  installStreaming(session, emit);
  core::EcoOptions eco;
  eco.iterations = static_cast<int>(numberOr(params, "k", 1));
  eco.haloGCells = static_cast<int>(numberOr(params, "halo", eco.haloGCells));
  const core::EcoReport report = session.framework->runEco(delta, eco);

  obs::Json result = obs::Json::object();
  result.set("event", "result");
  obs::Json ecoJson = obs::Json::object();
  ecoJson.set("edits", static_cast<std::int64_t>(delta.size()));
  ecoJson.set("movedCells", report.movedCells);
  ecoJson.set("rewiredPins", report.rewiredPins);
  ecoJson.set("dirtyNets", report.dirtyNets);
  ecoJson.set("scopeCells", report.scopeCells);
  ecoJson.set("cacheEvictions",
              static_cast<std::int64_t>(report.cacheEvictions));
  ecoJson.set("totalMoves", report.moves);
  ecoJson.set("totalReroutes", report.reroutes);
  ecoJson.set("patchSeconds", report.patchSeconds);
  ecoJson.set("totalSeconds", report.totalSeconds);
  result.set("eco", std::move(ecoJson));
  stampReport(session, params, result);
  ++session.jobsExecuted;
  return result;
}

obs::Json runReportJob(Session& session) {
  std::lock_guard<std::mutex> lock(session.jobMutex);
  session.context.tracer().clear();  // spans are job-scoped
  obs::ObsContextScope scope(session.context);
  if (session.framework == nullptr) {
    throw std::runtime_error("session has no run to report on");
  }
  obs::Json result = obs::Json::object();
  result.set("event", "result");
  const obs::RunReport& runReport = session.framework->runReport();
  result.set("fingerprint", runReport.fingerprint());
  result.set("report", runReport.toJson());
  ++session.jobsExecuted;
  return result;
}

SessionManager::SessionManager(std::size_t maxSessions)
    : maxSessions_(maxSessions) {}

std::shared_ptr<Session> SessionManager::open(std::string name,
                                              util::ThreadPool& pool) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (sessions_.size() >= maxSessions_) return nullptr;
  auto session = std::make_shared<Session>();
  session->id = nextId_++;
  session->name = std::move(name);
  session->pool = &pool;
  session->context.setEnabled(true);
  sessions_.emplace(session->id, session);
  return session;
}

std::shared_ptr<Session> SessionManager::find(std::uint64_t id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = sessions_.find(id);
  return it != sessions_.end() ? it->second : nullptr;
}

bool SessionManager::close(std::uint64_t id) {
  std::shared_ptr<Session> victim;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = sessions_.find(id);
    if (it == sessions_.end()) return false;
    victim = std::move(it->second);
    sessions_.erase(it);
  }
  // Destroy outside the registry lock; wait for a job in flight so the
  // design state never dies under it.
  std::lock_guard<std::mutex> jobLock(victim->jobMutex);
  return true;
}

std::size_t SessionManager::count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return sessions_.size();
}

std::vector<std::shared_ptr<Session>> SessionManager::all() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::shared_ptr<Session>> out;
  out.reserve(sessions_.size());
  for (const auto& [id, session] : sessions_) out.push_back(session);
  return out;
}

}  // namespace crp::serve
