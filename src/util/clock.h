#ifndef LSCHED_UTIL_CLOCK_H_
#define LSCHED_UTIL_CLOCK_H_

#include <chrono>

namespace lsched {

/// Monotonic wall clock in seconds since construction.
class WallClock {
 public:
  WallClock() : start_(std::chrono::steady_clock::now()) {}
  double Now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// RAII stopwatch measuring elapsed wall time in seconds.
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }
  void Restart() { start_ = std::chrono::steady_clock::now(); }

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace lsched

#endif  // LSCHED_UTIL_CLOCK_H_
