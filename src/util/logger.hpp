// Lightweight leveled logger for the CR&P toolkit.
//
// The process has one logger, Logger::instance(); the CRP_LOG_* macros
// write to it:
//
//   CRP_LOG_INFO("routed {} nets, {} overflows", nNets, nOv);
//
// Each record is written under the logger's mutex, so lines from
// concurrent flows never interleave mid-line.
//
// Formatting uses iostreams under the hood but the public interface is
// printf-like via a tiny variadic formatter; placeholders are
// positional "{}" and any printable type works.
//
// Sink ownership: the logger holds its sink as a shared_ptr, so a
// stream handed over with setSink() stays alive for as long as any
// write could still reach it — swapping sinks while other threads log
// is safe.
#pragma once

#include <atomic>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <string_view>

namespace crp::util {

/// Severity levels, ordered from most to least verbose.
enum class LogLevel : int {
  kDebug = 0,
  kInfo = 1,
  kWarn = 2,
  kError = 3,
  kSilent = 4,
};

/// Converts a level to its fixed-width display tag.
std::string_view logLevelTag(LogLevel level);

/// Thread-safe leveled logger: each emitted record is written under a
/// mutex so concurrent messages never interleave, and the sink is
/// owned (shared_ptr), so replacing it cannot dangle a writer that is
/// mid-record on another thread.
class Logger {
 public:
  Logger() = default;
  Logger(const Logger&) = delete;
  Logger& operator=(const Logger&) = delete;

  /// The process logger (what CRP_LOG_* writes to).
  static Logger& instance();

  void setLevel(LogLevel level) {
    level_.store(static_cast<int>(level), std::memory_order_relaxed);
  }
  LogLevel level() const {
    return static_cast<LogLevel>(level_.load(std::memory_order_relaxed));
  }

  /// Redirects output to an owned sink (default: std::clog).  The
  /// logger keeps the stream alive until no write can reach it any
  /// more; pass nullptr to restore the default.
  void setSink(std::shared_ptr<std::ostream> os);
  std::shared_ptr<std::ostream> sink() const;

  bool enabled(LogLevel level) const {
    return static_cast<int>(level) >=
           level_.load(std::memory_order_relaxed);
  }

  void write(LogLevel level, std::string_view message);

 private:
  std::atomic<int> level_{static_cast<int>(LogLevel::kInfo)};
  std::shared_ptr<std::ostream> os_;  ///< null = std::clog
  mutable std::mutex mutex_;
};

namespace detail {

inline void formatNext(std::ostringstream& os, std::string_view& fmt) {
  os << fmt;
  fmt = {};
}

template <typename Arg, typename... Rest>
void formatNext(std::ostringstream& os, std::string_view& fmt, Arg&& arg,
                Rest&&... rest) {
  const auto pos = fmt.find("{}");
  if (pos == std::string_view::npos) {
    os << fmt;
    fmt = {};
    return;
  }
  os << fmt.substr(0, pos) << arg;
  fmt.remove_prefix(pos + 2);
  formatNext(os, fmt, std::forward<Rest>(rest)...);
}

}  // namespace detail

/// Formats `fmt` with positional "{}" placeholders.
template <typename... Args>
std::string formatMessage(std::string_view fmt, Args&&... args) {
  std::ostringstream os;
  detail::formatNext(os, fmt, std::forward<Args>(args)...);
  return os.str();
}

template <typename... Args>
void log(LogLevel level, std::string_view fmt, Args&&... args) {
  Logger& logger = Logger::instance();
  if (!logger.enabled(level)) return;
  logger.write(level, formatMessage(fmt, std::forward<Args>(args)...));
}

}  // namespace crp::util

#define CRP_LOG_DEBUG(...) \
  ::crp::util::log(::crp::util::LogLevel::kDebug, __VA_ARGS__)
#define CRP_LOG_INFO(...) \
  ::crp::util::log(::crp::util::LogLevel::kInfo, __VA_ARGS__)
#define CRP_LOG_WARN(...) \
  ::crp::util::log(::crp::util::LogLevel::kWarn, __VA_ARGS__)
#define CRP_LOG_ERROR(...) \
  ::crp::util::log(::crp::util::LogLevel::kError, __VA_ARGS__)
