// Resident daemon sessions (docs/serve.md).
//
// A Session owns everything one client's design work touches: its own
// obs::ObsContext (metrics registry, tracer, flight recorder, logger),
// the generated db::Database, the GlobalRouter built over it, and the
// CrpFramework driving iterations.  Jobs from different sessions run
// concurrently on the daemon's one shared ThreadPool, yet never share
// mutable state — the ObsContext is installed around every job and
// propagates to pool workers through the submit-time task wrapper, so
// a session's RunReport counter deltas (and therefore its fingerprint)
// are bit-identical whether the session runs alone or interleaved with
// others.  The interleaved-fingerprint test in tests/test_serve.cpp
// holds the daemon to exactly that.
//
// The job functions below are the daemon's whole execution model; the
// Server only parses frames and calls them.  Tests drive them directly
// (no sockets) to prove session isolation independently of transport.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "bmgen/generator.hpp"
#include "crp/framework.hpp"
#include "db/database.hpp"
#include "groute/global_router.hpp"
#include "obs/context.hpp"
#include "obs/json.hpp"
#include "util/thread_pool.hpp"

namespace crp::serve {

/// One resident client context.  jobMutex serializes jobs within the
/// session (two requests on one session queue behind each other); jobs
/// on *different* sessions proceed in parallel.
struct Session {
  std::uint64_t id = 0;
  std::string name;
  /// Per-session instruments; enabled at creation so counters, spans,
  /// and heatmaps record without a process-global gate flip.  Spans
  /// are job-scoped: every job clears the tracer first, because nothing
  /// in the daemon reads spans back and a resident session would
  /// otherwise keep every span of every job it ever ran.
  obs::ObsContext context;
  /// The daemon's shared compute pool (never null once opened).
  util::ThreadPool* pool = nullptr;

  // Design state, built up by jobs.  Teardown order matters: framework
  // references router and db, router references db.
  std::unique_ptr<db::Database> db;
  std::unique_ptr<groute::GlobalRouter> router;
  std::unique_ptr<core::CrpFramework> framework;
  bool routed = false;

  std::uint64_t jobsExecuted = 0;
  std::mutex jobMutex;
};

/// Receives progress frames during a streaming job (one JSON document
/// per completed iteration).  Called on the job's thread, inside the
/// session's jobMutex; keep it cheap.  Null-ok: pass {} to skip
/// streaming.
using EventSink = std::function<void(const obs::Json&)>;

/// Jobs.  Each takes the session's jobMutex, installs its ObsContext,
/// and throws std::runtime_error (or a library error) on invalid
/// parameters / missing prerequisites — the server turns that into an
/// ok:false response.
///
/// bmgen: generate a synthetic design from spec parameters (cells,
/// util, seed, netsPerCell, hotspots, layers, macros, multiRowFrac,
/// refine).  Replaces any previous design in the session.  An optional
/// "perturb" object {seed, frac} additionally derives an EcoDelta and
/// returns it under "ecoDelta" — the paired input for a later eco job.
obs::Json runBmgenJob(Session& session, const obs::Json& params);

/// run: global-route (once per design) and execute k CR&P iterations
/// on a fresh framework.  Streams one "iteration" event per iteration
/// (timeline record + heatmap delta when snapshots are on), then
/// returns the "result" document with the RunReport and its
/// fingerprint.  An optional "perturb" object {seed, frac} derives an
/// EcoDelta from the *post-run* placement (valid input for the next
/// eco job, unlike a pre-run delta the iterations would invalidate).
obs::Json runRunJob(Session& session, const obs::Json& params,
                    const EventSink& emit);

/// eco: apply an EcoDelta ("delta", required) incrementally and run k
/// restricted iterations, streaming like run.  Reuses the session's
/// framework (warm pricing cache) when one exists.
obs::Json runEcoJob(Session& session, const obs::Json& params,
                    const EventSink& emit);

/// report: the current framework's RunReport + fingerprint, no
/// mutation.
obs::Json runReportJob(Session& session);

/// Session registry.  Thread-safe; sessions are handed out as
/// shared_ptr so a job can keep running on a session that a concurrent
/// close_session already unlinked.
class SessionManager {
 public:
  explicit SessionManager(std::size_t maxSessions = 64);

  /// Null when the registry is at maxSessions.
  std::shared_ptr<Session> open(std::string name, util::ThreadPool& pool);
  std::shared_ptr<Session> find(std::uint64_t id) const;
  bool close(std::uint64_t id);
  std::size_t count() const;
  std::vector<std::shared_ptr<Session>> all() const;

 private:
  mutable std::mutex mutex_;
  std::size_t maxSessions_;
  std::uint64_t nextId_ = 1;
  std::map<std::uint64_t, std::shared_ptr<Session>> sessions_;
};

}  // namespace crp::serve
