// Wall-clock timing utility.
#pragma once

#include <chrono>

namespace crp::util {

/// Simple restartable stopwatch (wall clock).
class Stopwatch {
 public:
  Stopwatch() { restart(); }

  void restart() { start_ = Clock::now(); }

  /// Elapsed seconds since construction or the last restart().
  double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace crp::util
