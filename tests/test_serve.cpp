// Serve daemon tests: wire framing, in-process session jobs, the
// socket end-to-end chain, and — the isolation contract the per-session
// ObsContext refactor exists for — bit-identical RunReport
// fingerprints between serial and interleaved sessions.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "obs/run_ledger.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"
#include "util/thread_pool.hpp"

namespace crp::serve {
namespace {

// ---- protocol framing ------------------------------------------------------

struct SocketPair {
  int fds[2] = {-1, -1};
  SocketPair() {
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  }
  ~SocketPair() {
    if (fds[0] >= 0) ::close(fds[0]);
    if (fds[1] >= 0) ::close(fds[1]);
  }
};

TEST(ServeProtocol, FrameRoundTrip) {
  SocketPair pair;
  const std::string big(1 << 20, 'x');
  // The 1 MiB frame exceeds the socketpair buffer, so writes must be
  // drained concurrently or the writer blocks forever.
  std::thread writer([&] {
    writeFrame(pair.fds[0], "hello");
    writeFrame(pair.fds[0], "");  // empty payload is a legal frame
    writeFrame(pair.fds[0], big);
  });

  std::string payload;
  ASSERT_TRUE(readFrame(pair.fds[1], payload));
  EXPECT_EQ(payload, "hello");
  ASSERT_TRUE(readFrame(pair.fds[1], payload));
  EXPECT_EQ(payload, "");
  ASSERT_TRUE(readFrame(pair.fds[1], payload));
  EXPECT_EQ(payload, big);
  writer.join();
}

TEST(ServeProtocol, CleanEofReturnsFalse) {
  SocketPair pair;
  ::close(pair.fds[0]);
  pair.fds[0] = -1;
  std::string payload;
  EXPECT_FALSE(readFrame(pair.fds[1], payload));
}

TEST(ServeProtocol, TruncatedFrameThrows) {
  SocketPair pair;
  // Header promises 10 bytes; only 3 arrive before EOF.
  const unsigned char header[4] = {0, 0, 0, 10};
  ASSERT_EQ(::write(pair.fds[0], header, 4), 4);
  ASSERT_EQ(::write(pair.fds[0], "abc", 3), 3);
  ::close(pair.fds[0]);
  pair.fds[0] = -1;
  std::string payload;
  EXPECT_THROW(readFrame(pair.fds[1], payload), ProtocolError);
}

TEST(ServeProtocol, OversizedLengthThrows) {
  SocketPair pair;
  const std::uint32_t length = kMaxFrameBytes + 1;
  const unsigned char header[4] = {
      static_cast<unsigned char>(length >> 24),
      static_cast<unsigned char>(length >> 16),
      static_cast<unsigned char>(length >> 8),
      static_cast<unsigned char>(length)};
  ASSERT_EQ(::write(pair.fds[0], header, 4), 4);
  std::string payload;
  EXPECT_THROW(readFrame(pair.fds[1], payload), ProtocolError);
}

TEST(ServeProtocol, MalformedJsonFrameThrows) {
  SocketPair pair;
  writeFrame(pair.fds[0], "{not json");
  obs::Json message;
  EXPECT_THROW(readMessage(pair.fds[1], message), ProtocolError);
}

TEST(ServeProtocol, MessageRoundTripPreservesDocument) {
  SocketPair pair;
  obs::Json request = obs::Json::object();
  request.set("op", "bmgen");
  request.set("cells", 400);
  request.set("util", 0.85);
  writeMessage(pair.fds[0], request);
  obs::Json decoded;
  ASSERT_TRUE(readMessage(pair.fds[1], decoded));
  EXPECT_EQ(decoded, request);
}

// ---- in-process session jobs ----------------------------------------------

obs::Json bmgenParams(int cells, std::uint64_t seed) {
  obs::Json params = obs::Json::object();
  params.set("cells", cells);
  params.set("seed", seed);
  return params;
}

obs::Json runParams(int k) {
  obs::Json params = obs::Json::object();
  params.set("k", k);
  params.set("snapshots", 1);
  return params;
}

TEST(ServeSession, BmgenThenRunStreamsOneEventPerIteration) {
  util::ThreadPool pool(2);
  SessionManager manager;
  auto session = manager.open("t", pool);
  ASSERT_NE(session, nullptr);

  const obs::Json generated = runBmgenJob(*session, bmgenParams(200, 3));
  EXPECT_GT(generated.at("cells").asInt(), 0);
  EXPECT_GT(generated.at("nets").asInt(), 0);

  std::vector<obs::Json> events;
  obs::Json params = runParams(2);
  {
    obs::Json perturb = obs::Json::object();
    perturb.set("seed", 7);
    perturb.set("frac", 0.05);
    params.set("perturb", std::move(perturb));
  }
  const obs::Json result = runRunJob(
      *session, params, [&](const obs::Json& e) { events.push_back(e); });

  ASSERT_EQ(events.size(), 2u);
  for (int i = 0; i < 2; ++i) {
    const obs::Json& event = events[static_cast<std::size_t>(i)];
    EXPECT_EQ(event.at("event").asString(), "iteration");
    EXPECT_EQ(event.at("iteration").asInt(), i);
    EXPECT_NE(event.find("timeline"), nullptr);
    EXPECT_NE(event.find("heatmapDelta"), nullptr);
  }
  EXPECT_NE(result.find("fingerprint"), nullptr);
  EXPECT_NE(result.find("report"), nullptr);

  // The post-run perturb delta must apply cleanly through the eco job,
  // and the report job must agree with eco's fingerprint afterwards.
  obs::Json ecoReq = obs::Json::object();
  ecoReq.set("delta", result.at("ecoDelta"));
  ecoReq.set("k", 1);
  std::vector<obs::Json> ecoEvents;
  const obs::Json ecoResult = runEcoJob(
      *session, ecoReq, [&](const obs::Json& e) { ecoEvents.push_back(e); });
  EXPECT_EQ(ecoEvents.size(), 1u);
  EXPECT_GT(ecoResult.at("eco").at("dirtyNets").asInt(), 0);
  const obs::Json reported = runReportJob(*session);
  EXPECT_EQ(reported.at("fingerprint"), ecoResult.at("fingerprint"));
}

/// A resident session must not accumulate spans job over job: after
/// each job the tracer holds only that job's spans.
TEST(ServeSession, TracerDoesNotGrowWithJobs) {
  util::ThreadPool pool(2);
  SessionManager manager;
  auto session = manager.open("t", pool);
  ASSERT_NE(session, nullptr);
  runBmgenJob(*session, bmgenParams(200, 3));
  const obs::Tracer& tracer = session->context.tracer();

  std::size_t afterOne = 0;
  for (int link = 1; link <= 20; ++link) {
    obs::Json params = obs::Json::object();
    params.set("k", 0);
    obs::Json perturb = obs::Json::object();
    perturb.set("seed", link);
    perturb.set("frac", 0.02);
    params.set("perturb", std::move(perturb));
    const obs::Json run = runRunJob(*session, params, {});
    obs::Json ecoReq = obs::Json::object();
    ecoReq.set("delta", run.at("ecoDelta"));
    ecoReq.set("k", 1);
    const std::uint64_t ecoStartNs = tracer.nowNs();
    runEcoJob(*session, ecoReq, {});

    const auto records = tracer.records();
    for (const auto& [tid, span] : records) {
      ASSERT_GE(span.startNs, ecoStartNs) << "a span outlived its job";
    }
    if (link == 1) afterOne = records.size();
    ASSERT_GT(afterOne, 0u);  // the jobs do record spans
    EXPECT_LT(records.size(), 2 * afterOne) << "after " << link << " links";
  }
}

TEST(ServeSession, JobsWithoutDesignOrRunFail) {
  util::ThreadPool pool(1);
  SessionManager manager;
  auto session = manager.open("t", pool);
  EXPECT_THROW(runRunJob(*session, runParams(1), {}), std::runtime_error);
  EXPECT_THROW(runReportJob(*session), std::runtime_error);
  obs::Json ecoReq = obs::Json::object();
  EXPECT_THROW(runEcoJob(*session, ecoReq, {}), std::runtime_error);
}

TEST(ServeSession, ManagerEnforcesCapacityAndClose) {
  util::ThreadPool pool(1);
  SessionManager manager(/*maxSessions=*/1);
  auto first = manager.open("a", pool);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(manager.open("b", pool), nullptr);
  EXPECT_TRUE(manager.close(first->id));
  EXPECT_FALSE(manager.close(first->id));
  EXPECT_NE(manager.open("b", pool), nullptr);
  EXPECT_EQ(manager.count(), 1u);
}

/// The isolation proof: two sessions interleaved on one shared pool
/// produce RunReport fingerprints bit-identical to the same specs run
/// serially.  Fingerprints cover the per-context metric counter deltas
/// (pricing, ILP, router), so any cross-session bleed — a counter
/// landing in the wrong registry, a heatmap in the wrong series —
/// shows up as a diff here.
TEST(ServeSession, InterleavedSessionsMatchSerialFingerprints) {
  util::ThreadPool pool(4);

  const auto chain = [&pool](SessionManager& manager, int cells,
                             std::uint64_t seed) {
    auto session = manager.open("s" + std::to_string(seed), pool);
    EXPECT_NE(session, nullptr);
    runBmgenJob(*session, bmgenParams(cells, seed));
    const obs::Json result = runRunJob(*session, runParams(2), {});
    // The run's ILP counters land in the session's own registry, so
    // the fingerprint compared below carries them.
    const std::int64_t solves =
        result.at("fingerprint").at("ilpSolves").asInt();
    EXPECT_GT(solves, 0);
    EXPECT_EQ(session->context.metrics().counter("ilp.solves")->value(),
              static_cast<std::uint64_t>(solves));
    return result.at("fingerprint").dump();
  };

  SessionManager serial;
  const std::string serialA = chain(serial, 220, 3);
  const std::string serialB = chain(serial, 300, 11);

  SessionManager interleaved;
  std::string threadedA;
  std::string threadedB;
  std::thread ta(
      [&] { threadedA = chain(interleaved, 220, 3); });
  std::thread tb(
      [&] { threadedB = chain(interleaved, 300, 11); });
  ta.join();
  tb.join();

  EXPECT_EQ(serialA, threadedA);
  EXPECT_EQ(serialB, threadedB);
  EXPECT_NE(serialA, serialB);  // distinct designs, distinct reports
}

// ---- socket end-to-end -----------------------------------------------------

std::string tempSocketPath() {
  return "/tmp/crp_serve_t" + std::to_string(::getpid()) + ".sock";
}

const obs::Json& lastFrame(const std::vector<obs::Json>& frames) {
  return frames.back();
}

TEST(ServeDaemon, EndToEndJobChainOverSocket) {
  ServeOptions options;
  options.socketPath = tempSocketPath();
  options.workers = 2;
  Server server(options);
  server.start();
  std::thread loop([&] { server.serve(); });

  {
    Client client(options.socketPath);

    obs::Json hello = obs::Json::object();
    hello.set("op", "hello");
    hello.set("tag", "t0");
    const auto helloFrames = client.call(hello);
    EXPECT_TRUE(lastFrame(helloFrames).at("ok").asBool());
    EXPECT_EQ(lastFrame(helloFrames).at("protocol").asInt(),
              kProtocolVersion);
    EXPECT_EQ(lastFrame(helloFrames).at("tag").asString(), "t0");

    obs::Json open = obs::Json::object();
    open.set("op", "open_session");
    open.set("name", "e2e");
    const auto openFrames = client.call(open);
    ASSERT_TRUE(lastFrame(openFrames).at("ok").asBool());
    const std::int64_t session = lastFrame(openFrames).at("session").asInt();

    obs::Json bmgen = obs::Json::object();
    bmgen.set("op", "bmgen");
    bmgen.set("session", session);
    bmgen.set("cells", 180);
    bmgen.set("seed", 5);
    ASSERT_TRUE(lastFrame(client.call(bmgen)).at("ok").asBool());

    obs::Json run = obs::Json::object();
    run.set("op", "run");
    run.set("session", session);
    run.set("k", 1);
    run.set("snapshots", 1);
    const auto runFrames = client.call(run);
    ASSERT_EQ(runFrames.size(), 2u);  // 1 iteration event + result
    EXPECT_EQ(runFrames[0].at("event").asString(), "iteration");
    EXPECT_TRUE(lastFrame(runFrames).at("ok").asBool());
    EXPECT_NE(lastFrame(runFrames).find("fingerprint"), nullptr);

    obs::Json stats = obs::Json::object();
    stats.set("op", "stats");
    const auto statsFrames = client.call(stats);
    EXPECT_GE(lastFrame(statsFrames).at("jobsCompleted").asInt(), 2);
    EXPECT_EQ(lastFrame(statsFrames).at("sessions").asInt(), 1);

    obs::Json close = obs::Json::object();
    close.set("op", "close_session");
    close.set("session", session);
    EXPECT_TRUE(lastFrame(client.call(close)).at("ok").asBool());

    obs::Json shutdown = obs::Json::object();
    shutdown.set("op", "shutdown");
    EXPECT_TRUE(lastFrame(client.call(shutdown)).at("ok").asBool());
  }
  loop.join();
}

TEST(ServeDaemon, BadRequestsGetErrorFramesNotDisconnects) {
  ServeOptions options;
  options.socketPath = tempSocketPath();
  options.workers = 1;
  Server server(options);
  server.start();
  std::thread loop([&] { server.serve(); });

  {
    Client client(options.socketPath);

    obs::Json unknown = obs::Json::object();
    unknown.set("op", "frobnicate");
    EXPECT_FALSE(lastFrame(client.call(unknown)).at("ok").asBool());

    obs::Json noSession = obs::Json::object();
    noSession.set("op", "run");
    const auto noSessionFrames = client.call(noSession);
    EXPECT_FALSE(lastFrame(noSessionFrames).at("ok").asBool());
    EXPECT_NE(lastFrame(noSessionFrames).find("error"), nullptr);

    obs::Json missingOp = obs::Json::object();
    EXPECT_FALSE(lastFrame(client.call(missingOp)).at("ok").asBool());

    // The connection survived all three errors.
    obs::Json hello = obs::Json::object();
    hello.set("op", "hello");
    EXPECT_TRUE(lastFrame(client.call(hello)).at("ok").asBool());
  }
  server.requestStop();
  loop.join();
}

TEST(ServeDaemon, TelemetryOpsExposeMetricsStatsAndLedger) {
  ServeOptions options;
  options.socketPath = tempSocketPath() + ".telemetry";
  options.workers = 1;
  options.ledgerPath =
      "/tmp/crp_serve_ledger_" + std::to_string(::getpid()) + ".jsonl";
  ::unlink(options.ledgerPath.c_str());
  Server server(options);
  server.start();
  std::thread loop([&] { server.serve(); });

  {
    Client client(options.socketPath);

    obs::Json open = obs::Json::object();
    open.set("op", "open_session");
    const std::int64_t session =
        lastFrame(client.call(open)).at("session").asInt();
    obs::Json bmgen = obs::Json::object();
    bmgen.set("op", "bmgen");
    bmgen.set("session", session);
    bmgen.set("cells", 150);
    bmgen.set("seed", 2);
    ASSERT_TRUE(lastFrame(client.call(bmgen)).at("ok").asBool());
    obs::Json run = obs::Json::object();
    run.set("op", "run");
    run.set("session", session);
    run.set("k", 1);
    ASSERT_TRUE(lastFrame(client.call(run)).at("ok").asBool());

    // stats: uptime, traffic counters, and the per-op breakdown fed by
    // the server's own latency histograms.
    obs::Json statsReq = obs::Json::object();
    statsReq.set("op", "stats");
    const obs::Json stats = lastFrame(client.call(statsReq));
    EXPECT_GE(stats.at("uptimeSeconds").asDouble(), 0.0);
    EXPECT_GT(stats.at("bytesIn").asInt(), 0);
    EXPECT_GT(stats.at("bytesOut").asInt(), 0);
    EXPECT_EQ(stats.at("protocolErrors").asInt(), 0);
    const obs::Json& ops = stats.at("ops");
    ASSERT_NE(ops.find("run"), nullptr);
    EXPECT_EQ(ops.at("run").at("requests").asInt(), 1);
    EXPECT_LE(ops.at("run").at("latencyP50Micros").asDouble(),
              ops.at("run").at("latencyP99Micros").asDouble());

    // Server-wide Prometheus exposition carries the daemon's own
    // instruments; the per-session flavour carries the flow's.
    obs::Json metricsReq = obs::Json::object();
    metricsReq.set("op", "metrics");
    const obs::Json metrics = lastFrame(client.call(metricsReq));
    EXPECT_EQ(metrics.at("contentType").asString(),
              "text/plain; version=0.0.4");
    const std::string text = metrics.at("metrics").asString();
    EXPECT_NE(text.find("# TYPE crp_serve_op_run_latency histogram"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("crp_serve_bytes_in"), std::string::npos);

    metricsReq.set("session", session);
    const std::string sessionText =
        lastFrame(client.call(metricsReq)).at("metrics").asString();
    EXPECT_EQ(sessionText.find("serve_op"), std::string::npos)
        << "session scrape leaked daemon instruments";

    obs::Json shutdown = obs::Json::object();
    shutdown.set("op", "shutdown");
    EXPECT_TRUE(lastFrame(client.call(shutdown)).at("ok").asBool());
  }
  loop.join();

  // The run job landed in the ledger as a serve-run entry.
  const obs::RunLedger::LoadResult loaded =
      obs::RunLedger::load(options.ledgerPath);
  EXPECT_EQ(loaded.skippedLines, 0);
  ASSERT_EQ(loaded.entries.size(), 1u);
  EXPECT_EQ(loaded.entries[0].kind, "serve-run");
  EXPECT_EQ(loaded.entries[0].fingerprintDigest.size(), 16u);
  ::unlink(options.ledgerPath.c_str());
}

}  // namespace
}  // namespace crp::serve
