#ifndef S3VCD_SERVICE_CANCEL_TOKEN_H_
#define S3VCD_SERVICE_CANCEL_TOKEN_H_

#include <chrono>

namespace s3vcd::service {

/// Cooperative stop signal of one batch: its deadline.
///
/// Execution loops poll ShouldStop() between queries / scan tasks;
/// already-running per-shard scans finish, so the overshoot is bounded by
/// one scan's latency. A default-constructed token never stops.
///
/// Thread model: immutable after construction, so any number of fan-out
/// tasks may poll it concurrently.
class CancelToken {
 public:
  CancelToken() = default;
  explicit CancelToken(std::chrono::steady_clock::time_point deadline)
      : has_deadline_(true), deadline_(deadline) {}

  /// True when the token has a deadline and `now` is at or past it.
  bool ExpiredAt(std::chrono::steady_clock::time_point now) const {
    return has_deadline_ && now >= deadline_;
  }

  /// True when the batch should stop: past the deadline this token was
  /// armed with.
  bool ShouldStop() const {
    return ExpiredAt(std::chrono::steady_clock::now());
  }

  bool has_deadline() const { return has_deadline_; }

 private:
  bool has_deadline_ = false;
  std::chrono::steady_clock::time_point deadline_{};
};

}  // namespace s3vcd::service

#endif  // S3VCD_SERVICE_CANCEL_TOKEN_H_
