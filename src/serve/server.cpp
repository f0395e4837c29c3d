#include "serve/server.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <iostream>
#include <stdexcept>

#include "obs/prometheus.hpp"
#include "obs/run_ledger.hpp"
#include "serve/protocol.hpp"

namespace crp::serve {

namespace {

/// Microsecond latency buckets for the per-op histograms: powers of
/// two from 1 us to ~16.8 s.  Wide enough that a full run job lands in
/// a finite bucket, fine enough that p50/p99 of cheap ops (hello,
/// stats) stay meaningful.
std::vector<std::uint64_t> latencyBoundsMicros() {
  std::vector<std::uint64_t> bounds;
  for (std::uint64_t b = 1; b <= (1ull << 24); b <<= 1) bounds.push_back(b);
  return bounds;
}

[[noreturn]] void throwErrno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

/// Copies the request's correlation tag (if any) into a response
/// frame, so pipelined clients can match streams to requests.
void stampTag(const obs::Json& request, obs::Json& response) {
  if (const obs::Json* tag = request.find("tag")) {
    response.set("tag", *tag);
  }
}

obs::Json okFrame(const obs::Json& request, bool done) {
  obs::Json frame = obs::Json::object();
  frame.set("ok", true);
  stampTag(request, frame);
  if (done) frame.set("done", true);
  return frame;
}

obs::Json errorFrame(const obs::Json& request, const std::string& message) {
  obs::Json frame = obs::Json::object();
  frame.set("ok", false);
  frame.set("error", message);
  stampTag(request, frame);
  frame.set("done", true);
  return frame;
}

/// Merges a job result document into an ok frame (keeps "ok"/"tag"
/// first, "done" last — purely cosmetic, the protocol is key-based).
obs::Json resultFrame(const obs::Json& request, const obs::Json& result) {
  obs::Json frame = okFrame(request, /*done=*/false);
  for (const auto& [key, value] : result.asObject()) {
    if (key == "event") continue;  // implied by the done flag
    frame.set(key, value);
  }
  frame.set("done", true);
  return frame;
}

}  // namespace

Server::Server(ServeOptions options)
    : options_(std::move(options)),
      pool_(static_cast<std::size_t>(std::max(0, options_.workers))),
      sessions_(options_.maxSessions) {}

Server::~Server() {
  for (std::thread& handler : handlers_) {
    if (handler.joinable()) handler.join();
  }
  if (listenFd_ >= 0) ::close(listenFd_);
  if (wakeFds_[0] >= 0) ::close(wakeFds_[0]);
  if (wakeFds_[1] >= 0) ::close(wakeFds_[1]);
}

void Server::start() {
  if (options_.socketPath.empty()) {
    throw std::runtime_error("serve: socket path is empty");
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (options_.socketPath.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("serve: socket path too long: " +
                             options_.socketPath);
  }
  std::memcpy(addr.sun_path, options_.socketPath.c_str(),
              options_.socketPath.size() + 1);

  if (::pipe2(wakeFds_, O_CLOEXEC | O_NONBLOCK) != 0) throwErrno("pipe2");
  listenFd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listenFd_ < 0) throwErrno("socket");
  ::unlink(options_.socketPath.c_str());  // stale socket from a crash
  if (::bind(listenFd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    throwErrno("bind " + options_.socketPath);
  }
  if (::listen(listenFd_, 64) != 0) throwErrno("listen");
  startTime_ = std::chrono::steady_clock::now();
  if (options_.verbose) {
    std::cerr << "crp serve: listening on " << options_.socketPath << " ("
              << pool_.threadCount() << " workers)\n";
  }
}

void Server::serve() {
  while (!stop_.load(std::memory_order_acquire)) {
    pollfd fds[2] = {{listenFd_, POLLIN, 0}, {wakeFds_[0], POLLIN, 0}};
    const int ready = ::poll(fds, 2, -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[1].revents != 0) break;  // requestStop woke us
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int client = ::accept4(listenFd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (client < 0) continue;
    connectionsAccepted_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(connMutex_);
    liveFds_.push_back(client);
    obs_.metrics().gauge("serve.connections.active")
        ->set(static_cast<double>(liveFds_.size()));
    handlers_.emplace_back(&Server::handleConnection, this, client);
  }

  // Teardown: stop accepting, wake blocked readers, join handlers.
  ::close(listenFd_);
  listenFd_ = -1;
  ::unlink(options_.socketPath.c_str());
  std::vector<std::thread> handlers;
  {
    std::lock_guard<std::mutex> lock(connMutex_);
    for (const int fd : liveFds_) ::shutdown(fd, SHUT_RDWR);
    handlers.swap(handlers_);
  }
  for (std::thread& handler : handlers) handler.join();
  if (options_.verbose) {
    std::cerr << "crp serve: stopped ("
              << connectionsAccepted_.load(std::memory_order_relaxed)
              << " connections, " << jobsCompleted() << " jobs)\n";
  }
}

void Server::requestStop() {
  stop_.store(true, std::memory_order_release);
  if (wakeFds_[1] >= 0) {
    const char byte = 'x';
    // Best-effort; the pipe is non-blocking and one pending byte is
    // enough to wake poll().
    [[maybe_unused]] const ssize_t n = ::write(wakeFds_[1], &byte, 1);
  }
}

void Server::handleConnection(int fd) {
  for (;;) {
    obs::Json request;
    std::size_t wireBytes = 0;
    try {
      if (!readMessage(fd, request, &wireBytes)) break;  // clean EOF
    } catch (const ProtocolError&) {
      obs_.metrics().counter("serve.errors.protocol")->add(1);
      break;  // framing broken; nothing sane to reply with
    }
    obs_.metrics().counter("serve.bytes.in")->add(wireBytes);
    try {
      if (!dispatch(fd, request)) break;
    } catch (const ProtocolError&) {
      obs_.metrics().counter("serve.errors.protocol")->add(1);
      break;  // peer went away mid-response
    }
  }
  ::close(fd);
  std::lock_guard<std::mutex> lock(connMutex_);
  liveFds_.erase(std::remove(liveFds_.begin(), liveFds_.end(), fd),
                 liveFds_.end());
  obs_.metrics().gauge("serve.connections.active")
      ->set(static_cast<double>(liveFds_.size()));
}

double Server::uptimeSeconds() const {
  if (startTime_ == std::chrono::steady_clock::time_point{}) return 0.0;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       startTime_)
      .count();
}

void Server::send(int fd, const obs::Json& frame) {
  std::size_t wireBytes = 0;
  writeMessage(fd, frame, &wireBytes);
  obs_.metrics().counter("serve.bytes.out")->add(wireBytes);
  const obs::Json* ok = frame.find("ok");
  if (ok != nullptr && !ok->asBool()) {
    obs_.metrics().counter("serve.errors.request")->add(1);
  }
}

void Server::appendLedgerEntry(const std::string& op, Session& session,
                               const obs::Json& request) {
  if (options_.ledgerPath.empty()) return;
  obs::RunLedgerEntry entry;
  {
    // The job released jobMutex when it returned; retake it so the
    // report cannot change shape under us if another connection races
    // a new job onto this session.
    std::lock_guard<std::mutex> lock(session.jobMutex);
    if (session.framework == nullptr) return;
    entry = obs::makeRunLedgerEntry(session.framework->runReport());
    entry.design = session.db != nullptr ? session.db->design().name
                                         : session.name;
  }
  entry.kind = "serve-" + op;
  // Digest of the request's configuration surface: everything except
  // transport plumbing and bulk payloads.  Stable across sessions and
  // connections for identical job parameters.
  obs::Json optionsJson = obs::Json::object();
  for (const auto& [key, value] : request.asObject()) {
    if (key == "op" || key == "tag" || key == "session" || key == "delta") {
      continue;
    }
    optionsJson.set(key, value);
  }
  entry.optionsDigest = obs::fnv1a64Hex(optionsJson.dump());
  std::string error;
  obs::RunLedger ledger(options_.ledgerPath);
  if (!ledger.append(entry, &error) && options_.verbose) {
    std::cerr << "crp serve: ledger append failed: " << error << "\n";
  }
}

std::shared_ptr<Session> Server::requireSession(const obs::Json& request) {
  const obs::Json* id = request.find("session");
  if (id == nullptr) {
    throw std::runtime_error("request is missing 'session'");
  }
  std::shared_ptr<Session> session =
      sessions_.find(static_cast<std::uint64_t>(id->asInt()));
  if (session == nullptr) {
    throw std::runtime_error("unknown session " + std::to_string(id->asInt()));
  }
  return session;
}

bool Server::dispatch(int fd, const obs::Json& request) {
  std::string op;
  try {
    op = request.at("op").asString();
  } catch (const std::exception&) {
    send(fd, errorFrame(request, "request is missing 'op'"));
    return true;
  }
  if (options_.verbose) std::cerr << "crp serve: op " << op << "\n";

  // Self-instrumentation: request count + wall latency per op, into
  // the server-owned context (never a session's).
  obs_.metrics().counter("serve.op." + op + ".requests")->add(1);
  const auto started = std::chrono::steady_clock::now();
  const bool keepOpen = dispatchOp(fd, request, op);
  const auto micros = std::chrono::duration_cast<std::chrono::microseconds>(
                          std::chrono::steady_clock::now() - started)
                          .count();
  obs_.metrics()
      .histogram("serve.op." + op + ".latency", latencyBoundsMicros())
      ->record(static_cast<std::uint64_t>(micros));
  return keepOpen;
}

bool Server::dispatchOp(int fd, const obs::Json& request,
                        const std::string& op) {
  try {
    if (op == "hello") {
      obs::Json frame = okFrame(request, /*done=*/false);
      frame.set("server", "crp-serve");
      frame.set("protocol", kProtocolVersion);
      frame.set("pid", static_cast<std::int64_t>(::getpid()));
      frame.set("workers",
                static_cast<std::int64_t>(pool_.threadCount()));
      frame.set("sessions", static_cast<std::int64_t>(sessions_.count()));
      frame.set("done", true);
      send(fd, frame);
      return true;
    }
    if (op == "open_session") {
      const std::shared_ptr<Session> session = sessions_.open(
          request.find("name") != nullptr ? request.at("name").asString()
                                          : std::string(),
          pool_);
      if (session == nullptr) {
        send(fd, errorFrame(request, "session limit reached"));
        return true;
      }
      obs_.metrics().gauge("serve.sessions.active")
          ->set(static_cast<double>(sessions_.count()));
      obs::Json frame = okFrame(request, /*done=*/false);
      frame.set("session", session->id);
      frame.set("done", true);
      send(fd, frame);
      return true;
    }
    if (op == "close_session") {
      const obs::Json* id = request.find("session");
      const bool closed =
          id != nullptr &&
          sessions_.close(static_cast<std::uint64_t>(id->asInt()));
      if (!closed) {
        send(fd, errorFrame(request, "unknown session"));
        return true;
      }
      obs_.metrics().gauge("serve.sessions.active")
          ->set(static_cast<double>(sessions_.count()));
      send(fd, okFrame(request, /*done=*/true));
      return true;
    }
    if (op == "stats") {
      const obs::MetricsSnapshot snapshot = obs_.metrics().snapshot();
      obs::Json frame = okFrame(request, /*done=*/false);
      frame.set("sessions", static_cast<std::int64_t>(sessions_.count()));
      frame.set("connections",
                static_cast<std::int64_t>(
                    connectionsAccepted_.load(std::memory_order_relaxed)));
      frame.set("jobsCompleted", static_cast<std::int64_t>(jobsCompleted()));
      frame.set("workers", static_cast<std::int64_t>(pool_.threadCount()));
      frame.set("uptimeSeconds", uptimeSeconds());
      const auto counterOr = [&snapshot](const char* name) -> std::int64_t {
        const auto it = snapshot.counters.find(name);
        return it != snapshot.counters.end()
                   ? static_cast<std::int64_t>(it->second)
                   : 0;
      };
      frame.set("bytesIn", counterOr("serve.bytes.in"));
      frame.set("bytesOut", counterOr("serve.bytes.out"));
      frame.set("requestErrors", counterOr("serve.errors.request"));
      frame.set("protocolErrors", counterOr("serve.errors.protocol"));
      // Per-op breakdown: request count plus p50/p99 latency (micros)
      // from the server's own histograms.
      obs::Json ops = obs::Json::object();
      for (const auto& [name, value] : snapshot.counters) {
        constexpr std::string_view prefix = "serve.op.";
        constexpr std::string_view suffix = ".requests";
        if (name.size() <= prefix.size() + suffix.size() ||
            name.compare(0, prefix.size(), prefix) != 0 ||
            name.compare(name.size() - suffix.size(), suffix.size(),
                         suffix) != 0) {
          continue;
        }
        const std::string opName = name.substr(
            prefix.size(), name.size() - prefix.size() - suffix.size());
        obs::Json entry = obs::Json::object();
        entry.set("requests", value);
        const auto hist = snapshot.histograms.find(
            std::string(prefix) + opName + ".latency");
        if (hist != snapshot.histograms.end()) {
          entry.set("latencyP50Micros", hist->second.quantile(0.50));
          entry.set("latencyP99Micros", hist->second.quantile(0.99));
        }
        ops.set(opName, std::move(entry));
      }
      frame.set("ops", std::move(ops));
      frame.set("done", true);
      send(fd, frame);
      return true;
    }
    if (op == "metrics") {
      // Prometheus exposition.  Server-wide by default; with a
      // "session" id, that session's instruments instead (the design's
      // counters/heatmaps, not the daemon's).
      std::string text;
      if (request.find("session") != nullptr) {
        const std::shared_ptr<Session> session = requireSession(request);
        text = obs::renderPrometheus(session->context.metrics(), "crp");
      } else {
        text = obs::renderPrometheus(obs_.metrics(), "crp");
      }
      obs::Json frame = okFrame(request, /*done=*/false);
      frame.set("contentType", "text/plain; version=0.0.4");
      frame.set("metrics", text);
      frame.set("done", true);
      send(fd, frame);
      return true;
    }
    if (op == "shutdown") {
      send(fd, okFrame(request, /*done=*/true));
      requestStop();
      return false;
    }

    // Job ops below need a session.
    const std::shared_ptr<Session> session = requireSession(request);
    if (op == "bmgen") {
      const obs::Json result = runBmgenJob(*session, request);
      jobsCompleted_.fetch_add(1, std::memory_order_relaxed);
      send(fd, resultFrame(request, result));
      return true;
    }
    if (op == "run" || op == "eco") {
      const EventSink emit = [this, fd, &request](const obs::Json& event) {
        obs::Json frame = event;
        frame.set("ok", true);
        stampTag(request, frame);
        send(fd, frame);
      };
      const obs::Json result =
          op == "run" ? runRunJob(*session, request, emit)
                      : runEcoJob(*session, request, emit);
      jobsCompleted_.fetch_add(1, std::memory_order_relaxed);
      appendLedgerEntry(op, *session, request);
      send(fd, resultFrame(request, result));
      return true;
    }
    if (op == "report") {
      const obs::Json result = runReportJob(*session);
      jobsCompleted_.fetch_add(1, std::memory_order_relaxed);
      send(fd, resultFrame(request, result));
      return true;
    }
    send(fd, errorFrame(request, "unknown op '" + op + "'"));
    return true;
  } catch (const ProtocolError&) {
    throw;  // socket-level failure: close the connection
  } catch (const std::exception& e) {
    send(fd, errorFrame(request, e.what()));
    return true;
  }
}

}  // namespace crp::serve
