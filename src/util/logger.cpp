#include "util/logger.hpp"

namespace crp::util {

namespace {
// Innermost LoggerScope's logger for this thread; null = process default.
thread_local Logger* tlsCurrentLogger = nullptr;
}  // namespace

std::string_view logLevelTag(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "[debug]";
    case LogLevel::kInfo:
      return "[info ]";
    case LogLevel::kWarn:
      return "[warn ]";
    case LogLevel::kError:
      return "[error]";
    case LogLevel::kSilent:
      return "[-----]";
  }
  return "[?????]";
}

Logger& Logger::instance() {
  static Logger logger;
  return logger;
}

Logger& Logger::current() {
  Logger* scoped = tlsCurrentLogger;
  return scoped != nullptr ? *scoped : instance();
}

void Logger::setSink(std::shared_ptr<std::ostream> os) {
  std::lock_guard lock(mutex_);
  os_ = std::move(os);
}

std::shared_ptr<std::ostream> Logger::sink() const {
  std::lock_guard lock(mutex_);
  return os_;
}

void Logger::write(LogLevel level, std::string_view message) {
  std::lock_guard lock(mutex_);
  std::ostream& os = os_ != nullptr ? *os_ : std::clog;
  os << logLevelTag(level) << ' ' << message << '\n';
}

LoggerScope::LoggerScope(Logger* logger) {
  if (logger == nullptr) return;
  previous_ = tlsCurrentLogger;
  tlsCurrentLogger = logger;
  installed_ = true;
}

LoggerScope::~LoggerScope() {
  if (installed_) tlsCurrentLogger = previous_;
}

}  // namespace crp::util
