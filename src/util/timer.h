#ifndef S3VCD_UTIL_TIMER_H_
#define S3VCD_UTIL_TIMER_H_

#include <chrono>
#include <cstdint>

namespace s3vcd {

/// Monotonic wall-clock stopwatch. Started on construction.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  /// Restarts the stopwatch.
  void Reset() { start_ = Clock::now(); }

  /// Elapsed time since construction / last Reset.
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }
  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }
  double ElapsedMicros() const { return ElapsedSeconds() * 1e6; }
  /// Integer nanoseconds, for counters that must survive aggregation of
  /// many sub-microsecond intervals (e.g. the selection/refine split).
  uint64_t ElapsedNanos() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start_)
            .count());
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace s3vcd

#endif  // S3VCD_UTIL_TIMER_H_
