// eco-serve: a closed loop of clients against an in-process `crp serve`
// daemon, talking the daemon's socket protocol.
#include <barrier>
#include <filesystem>
#include <string>
#include <thread>
#include <unistd.h>

#include "checks.hpp"
#include "lefdef/def_parser.hpp"
#include "lefdef/def_writer.hpp"
#include "probes.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"
#include "workloads.hpp"

namespace flowbench {

namespace {

using crp::obs::Json;

constexpr int kClients = 2;
constexpr int kCells = 3000;
constexpr double kUtilization = 0.75;
constexpr double kPerturbFrac = 0.01;
/// Chain links every client runs whatever the run length: 2 x 50 ECOs
/// keep at least 10 samples beyond p90.
constexpr int kMinLinks = 50;
/// The link whose ECO reply carries the full report; its router
/// wirelength and vias are the workload's QoR.
constexpr int kQorLink = 30;

std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return (x ^ (x >> 31)) & 0x7fffffffULL;  // exact as a JSON double
}

Json bmgenParams(std::uint64_t seed) {
  Json params = Json::object();
  params.set("cells", kCells);
  params.set("util", kUtilization);
  params.set("seed", static_cast<std::int64_t>(seed));
  return params;
}

Json runParams(std::int64_t perturbSeed) {
  Json params = Json::object();
  params.set("k", 0);
  params.set("report", 0);
  if (perturbSeed >= 0) {
    Json perturb = Json::object();
    perturb.set("seed", perturbSeed);
    perturb.set("frac", kPerturbFrac);
    params.set("perturb", std::move(perturb));
  }
  return params;
}

Json ecoParams(const Json& delta, bool report) {
  Json params = Json::object();
  params.set("delta", delta);
  params.set("k", 1);
  params.set("report", report ? 1 : 0);
  return params;
}

/// `params` plus the op name and session id: a protocol request.
Json request(const std::string& op, std::int64_t session, Json params) {
  params.set("op", op);
  if (session >= 0) params.set("session", session);
  return params;
}

struct Link {
  std::int64_t perturbSeed = 0;
  double latencyMs = 0.0;      ///< send to final frame, client side
  double serverTotalMs = 0.0;  ///< reply totalSeconds
  double patchMs = 0.0;        ///< reply patchSeconds
  double dirtyNets = 0, scopeCells = 0, cacheEvictions = 0, reroutes = 0;
  std::string fingerprint;
};

struct ClientRun {
  std::uint64_t designSeed = 0;
  int attempts = 0;  ///< chain links started in the loop
  std::vector<Link> links;
  int errorFrames = 0;
  bool broken = false;  ///< the client stopped on an exception
  std::vector<std::string> errors;
  double qorWirelength = 0, qorVias = 0;
};

/// The final frame of a call, or null after counting an error frame.
const Json* finalFrame(const std::vector<Json>& frames, ClientRun& run,
                       const std::string& op) {
  const Json& last = frames.back();
  const Json* ok = last.find("ok");
  if (ok != nullptr && ok->asBool()) return &last;
  ++run.errorFrames;
  const Json* error = last.find("error");
  run.errors.push_back(op + ": " + (error != nullptr ? error->asString() : "error frame"));
  return nullptr;
}

/// One client: open a session, set it up (bmgen + run), wait for the
/// others, then run chain links until the run length has passed and at
/// least kMinLinks are done.  `ready` is passed twice: after set-up
/// and when the loop clock has started.
void runClient(const std::string& socket, int index, const RunOptions& options,
               std::barrier<>& ready, const Clock::time_point& loopStart,
               ClientRun& run) {
  crp::serve::Client client(socket);
  Json open = Json::object();
  open.set("name", "client" + std::to_string(index));
  const Json opened = client.call(request("open_session", -1, std::move(open))).back();
  const std::int64_t session = opened.at("session").asInt();
  finalFrame(client.call(request("bmgen", session, bmgenParams(run.designSeed))), run,
             "bmgen");
  finalFrame(client.call(request("run", session, runParams(-1))), run, "run");
  ready.arrive_and_wait();  // every session is set up
  ready.arrive_and_wait();  // the loop clock has started

  for (int link = 0; link < kMinLinks || secondsSince(loopStart) < options.seconds;
       ++link) {
    Span span("eco_serve.link");
    ++run.attempts;
    Link record;
    record.perturbSeed = static_cast<std::int64_t>(
        mix(options.seed * 1000003ULL + static_cast<std::uint64_t>(index) * 7919ULL +
            static_cast<std::uint64_t>(link)));
    const auto ranFrames =
        client.call(request("run", session, runParams(record.perturbSeed)));
    const Json* ran = finalFrame(ranFrames, run, "run");
    if (ran == nullptr) continue;
    const auto start = Clock::now();
    const auto frames = client.call(
        request("eco", session, ecoParams(ran->at("ecoDelta"), link == kQorLink)));
    record.latencyMs = secondsSince(start) * 1e3;
    const Json* eco = finalFrame(frames, run, "eco");
    if (eco == nullptr) continue;
    const Json& stats = eco->at("eco");
    record.serverTotalMs = stats.at("totalSeconds").asDouble() * 1e3;
    record.patchMs = stats.at("patchSeconds").asDouble() * 1e3;
    record.dirtyNets = stats.at("dirtyNets").asDouble();
    record.scopeCells = stats.at("scopeCells").asDouble();
    record.cacheEvictions = stats.at("cacheEvictions").asDouble();
    record.reroutes = stats.at("totalReroutes").asDouble();
    record.fingerprint = eco->at("fingerprint").dump();
    if (link == kQorLink) {
      const Json& router = eco->at("report").at("router");
      run.qorWirelength = router.at("wirelengthDbu").asDouble();
      run.qorVias = router.at("vias").asDouble();
    }
    run.links.push_back(std::move(record));
  }
}

double meanOf(const std::vector<Link>& links, double Link::*field) {
  double sum = 0.0;
  for (const Link& link : links) sum += link.*field;
  return links.empty() ? 0.0 : sum / static_cast<double>(links.size());
}

/// Replays client 0's chain serially on an in-process session with its
/// own pool, compares every link's fingerprint with the served one,
/// and checks the final placement (written as DEF and parsed back) and
/// routes.
void replayAndCheck(const ClientRun& served, const RunOptions& options, Result& result) {
  Span span("eco_serve.replay");
  crp::util::ThreadPool pool(static_cast<std::size_t>(workloadThreads()));
  crp::serve::Session session;
  session.name = "client0";
  session.pool = &pool;
  session.context.setEnabled(true);  // as SessionManager::open does
  crp::serve::runBmgenJob(session, bmgenParams(served.designSeed));
  const crp::db::Database reference = *session.db;
  const auto routeStart = Clock::now();
  crp::serve::runRunJob(session, runParams(-1), nullptr);
  if (options.trace) {
    result.set("groute.run_s", secondsSince(routeStart));
    recordGlobalRoute(session.context, session.router->stats(), result);
  }
  for (std::size_t link = 0; link < served.links.size(); ++link) {
    const Json ran = crp::serve::runRunJob(
        session, runParams(served.links[link].perturbSeed), nullptr);
    const Json eco = crp::serve::runEcoJob(
        session, ecoParams(ran.at("ecoDelta"), false), nullptr);
    const auto problems = checks::fingerprintsMatch(
        "replayed link " + std::to_string(link), served.links[link].fingerprint,
        eco.at("fingerprint").dump());
    if (!problems.empty()) {
      for (const auto& p : problems) result.fail("serve isolation: " + p);
      break;
    }
  }
  if (options.trace) {
    recordCrp(session.framework->runReport(), result);
    probeGroute(*session.router, options.seed, result);
  }

  const std::string def =
      options.outDir + "/eco-serve-" + std::to_string(getpid()) + ".out.def";
  crp::lefdef::writeDefFile(def, *session.db);
  const crp::db::Database placed(
      session.db->tech(), session.db->library(),
      crp::lefdef::parseDefFile(def, session.db->tech(), session.db->library()));
  std::filesystem::remove(def);
  for (const auto& p : checks::placementLegal(placed, reference)) {
    result.fail("serve placement: " + p);
  }
  for (const auto& p : checks::samePlacement(placed, *session.db)) {
    result.fail("serve DEF round trip: " + p);
  }
  const auto routes = checks::globalRoutes(*session.router);
  for (const auto& p : routes.problems) result.fail("serve routes: " + p);
  if (routes.openNets != 0) {
    result.fail("serve routes: " + std::to_string(routes.openNets) + " open nets");
  }
}

}  // namespace

void runEcoServe(const RunOptions& options, Result& result) {
  const std::string socket =
      options.outDir + "/serve-" + std::to_string(getpid()) + ".sock";
  crp::serve::ServeOptions serveOptions;
  serveOptions.socketPath = socket;
  serveOptions.workers = workloadThreads();
  crp::serve::Server server(serveOptions);
  server.start();
  // Stops and joins the daemon on every way out of this function.
  struct Daemon {
    crp::serve::Server& server;
    std::thread thread{[this] { server.serve(); }};
    ~Daemon() {
      server.requestStop();
      thread.join();
    }
  } daemon{server};

  std::vector<ClientRun> runs(kClients);
  std::barrier<> ready(kClients + 1);
  Clock::time_point loopStart;
  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; ++i) {
    runs[i].designSeed = 101 + static_cast<std::uint64_t>(i);
    clients.emplace_back([&, i] {
      try {
        runClient(socket, i, options, ready, loopStart, runs[i]);
      } catch (const std::exception& e) {
        runs[i].errors.push_back(std::string("client: ") + e.what());
        runs[i].broken = true;
        ready.arrive_and_drop();  // never block the other parties
      }
    });
  }
  ready.arrive_and_wait();
  result.set("setup_s", secondsSince(processStart()));
  loopStart = Clock::now();
  ready.arrive_and_wait();
  for (auto& client : clients) client.join();
  const double loopSeconds = secondsSince(loopStart);

  const Json stats =
      crp::serve::Client(socket).call(request("stats", -1, Json::object())).back();
  // The daemon and its sessions, before the replay below adds its own.
  result.set("peak_rss_mib", peakRssMib());

  std::vector<Link> links;
  double qorWirelength = 0, qorVias = 0;
  for (const ClientRun& run : runs) {
    result.attempted += run.attempts;
    result.failed += run.errorFrames;
    for (const auto& e : run.errors) std::cerr << "flowbench: " << e << "\n";
    if (run.broken) result.fail("a serve client stopped on an exception");
    links.insert(links.end(), run.links.begin(), run.links.end());
    qorWirelength += run.qorWirelength;
    qorVias += run.qorVias;
  }

  std::vector<double> latency, serverMs, patchMs;
  for (const Link& link : links) {
    latency.push_back(link.latencyMs);
    serverMs.push_back(link.serverTotalMs);
    patchMs.push_back(link.patchMs);
    if (link.serverTotalMs > link.latencyMs) {
      result.fail("serve latency: server reported " + std::to_string(link.serverTotalMs) +
                  " ms for an ECO the client saw take " + std::to_string(link.latencyMs) +
                  " ms");
    }
  }
  result.set("flow_s", quantile(latency, 0.5) / 1e3);
  result.set("wirelength_dbu", qorWirelength);
  result.set("vias", qorVias);
  result.set("eco.patch_ms", quantile(patchMs, 0.5));
  result.set("eco.server_ms", quantile(serverMs, 0.5));
  result.set("eco.dirty_nets", meanOf(links, &Link::dirtyNets));
  result.set("eco.scope_cells", meanOf(links, &Link::scopeCells));
  result.set("eco.cache_evictions", meanOf(links, &Link::cacheEvictions));
  result.set("eco.reroutes", meanOf(links, &Link::reroutes));
  result.set("serve.eco_p90_ms", quantile(latency, 0.9));
  result.set("serve.ecos_per_s", static_cast<double>(links.size()) / loopSeconds);
  const Json* ops = stats.find("ops");
  const Json* ecoOp = ops != nullptr ? ops->find("eco") : nullptr;
  result.set("serve.eco_p50_ms",
               ecoOp != nullptr ? ecoOp->at("latencyP50Micros").asDouble() / 1e3 : 0.0);
  result.set("serve.bytes_per_eco",
               links.empty() ? 0.0
                             : (stats.at("bytesIn").asDouble() + stats.at("bytesOut").asDouble()) /
                                   static_cast<double>(links.size()));

  replayAndCheck(runs[0], options, result);
}

}  // namespace flowbench
