#include "util/logger.hpp"

namespace crp::util {

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

}  // namespace crp::util
