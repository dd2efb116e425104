#ifndef S3VCD_BENCH_E2E_SPANS_H_
#define S3VCD_BENCH_E2E_SPANS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace s3vcd::e2e {

/// Nanoseconds on the steady clock since the first call in the process.
uint64_t NowNs();

/// In-memory span log of one traced pass. The benchmark opens a span around
/// every call it makes into a layer's public functions; spans nest by
/// call order, and every span of one keyframe (or service batch) carries
/// that keyframe's id. Nothing is written until the benchmark ends.
///
/// Single-threaded: each traced pass records from one thread at a time.
class SpanLog {
 public:
  static constexpr size_t kNone = static_cast<size_t>(-1);

  struct Span {
    const char* name = nullptr;  ///< layer name, a string literal
    uint64_t id = 0;             ///< keyframe / batch the work belongs to
    size_t parent = kNone;       ///< index of the enclosing span
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
  };

  /// Opens a span nested in the innermost open one; returns its index.
  size_t Open(const char* name, uint64_t id);
  void Close(size_t index);

  /// Appends an already finished span (times the program reported rather
  /// than ones the benchmark sampled, e.g. a batch's queue wait).
  size_t Add(const char* name, uint64_t id, size_t parent, uint64_t start_ns,
             uint64_t end_ns);

  /// Self time per span name, in seconds: each span's duration minus the
  /// part covered by its direct children.
  std::map<std::string, double> SelfSeconds() const;

  /// Chrome trace-event JSON ("X" events, microseconds, id in args).
  bool WriteChromeTrace(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<size_t> open_;
};

/// Opens a span for the rest of the scope; a null log records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint64_t id)
      : log_(log), index_(log != nullptr ? log->Open(name, id) : 0) {}
  ~ScopedSpan() {
    if (log_ != nullptr) {
      log_->Close(index_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  size_t index_;
};

}  // namespace s3vcd::e2e

#endif  // S3VCD_BENCH_E2E_SPANS_H_
