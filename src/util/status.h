#ifndef S3VCD_UTIL_STATUS_H_
#define S3VCD_UTIL_STATUS_H_

#include <cassert>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

namespace s3vcd {

/// Canonical error space used across the library. The library does not throw
/// exceptions; every fallible operation returns a Status or a Result<T>.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kOutOfRange,
  kFailedPrecondition,
  kIOError,
  kCorruption,
  kUnimplemented,
  kInternal,
  /// Transient overload: the caller may retry later (admission-queue
  /// backpressure in the query service).
  kUnavailable,
  /// The request's deadline elapsed before (or during) execution.
  kDeadlineExceeded,
};

/// Returns a stable human-readable name for `code` (e.g. "InvalidArgument").
std::string_view StatusCodeToString(StatusCode code);

/// A cheap value type carrying success or an error code plus message.
///
/// The OK status carries no allocation. Statuses are copyable and movable;
/// prefer returning them by value.
class Status {
 public:
  /// Constructs an OK status.
  Status() = default;

  /// Constructs a status with the given code and message. `code` must not be
  /// kOk; use the default constructor (or OK()) for success.
  Status(StatusCode code, std::string_view message)
      : code_(code), message_(message) {
    assert(code != StatusCode::kOk);
  }

  /// Named constructors, one per error code.
  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string_view msg) {
    return Status(StatusCode::kInvalidArgument, msg);
  }
  static Status NotFound(std::string_view msg) {
    return Status(StatusCode::kNotFound, msg);
  }
  static Status OutOfRange(std::string_view msg) {
    return Status(StatusCode::kOutOfRange, msg);
  }
  static Status FailedPrecondition(std::string_view msg) {
    return Status(StatusCode::kFailedPrecondition, msg);
  }
  static Status IOError(std::string_view msg) {
    return Status(StatusCode::kIOError, msg);
  }
  static Status Corruption(std::string_view msg) {
    return Status(StatusCode::kCorruption, msg);
  }
  static Status Unimplemented(std::string_view msg) {
    return Status(StatusCode::kUnimplemented, msg);
  }
  static Status Internal(std::string_view msg) {
    return Status(StatusCode::kInternal, msg);
  }
  static Status Unavailable(std::string_view msg) {
    return Status(StatusCode::kUnavailable, msg);
  }
  static Status DeadlineExceeded(std::string_view msg) {
    return Status(StatusCode::kDeadlineExceeded, msg);
  }

  /// True iff this status represents success.
  bool ok() const { return code_ == StatusCode::kOk; }

  StatusCode code() const { return code_; }

  /// The error message; empty for OK statuses.
  const std::string& message() const { return message_; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

/// Either a value of type T or an error Status. Analogous to absl::StatusOr.
///
/// Accessing the value of an errored Result is a programming error and
/// asserts in debug builds.
template <typename T>
class Result {
 public:
  /// Implicit conversion from a value (success case).
  Result(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)

  /// Implicit conversion from an error status. `status` must not be OK.
  Result(Status status) : status_(std::move(status)) {  // NOLINT
    assert(!status_.ok());
  }

  bool ok() const { return value_.has_value(); }

  /// The carried status: OK when a value is present.
  const Status& status() const { return status_; }

  /// Value accessors; require ok().
  const T& value() const& {
    assert(ok());
    return *value_;
  }
  T& value() & {
    assert(ok());
    return *value_;
  }
  T&& value() && {
    assert(ok());
    return std::move(*value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  /// Returns the value or `fallback` when errored.
  T value_or(T fallback) const {
    return ok() ? *value_ : std::move(fallback);
  }

 private:
  Status status_;  // OK when value_ holds a value.
  std::optional<T> value_;
};

}  // namespace s3vcd

/// Propagates an error Status from the current function.
#define S3VCD_RETURN_IF_ERROR(expr)                 \
  do {                                              \
    ::s3vcd::Status s3vcd_status_tmp_ = (expr);     \
    if (!s3vcd_status_tmp_.ok()) {                  \
      return s3vcd_status_tmp_;                     \
    }                                               \
  } while (false)

/// Evaluates a Result<T> expression; on error propagates the Status,
/// otherwise assigns the value to `lhs` (which may include a declaration).
#define S3VCD_ASSIGN_OR_RETURN(lhs, expr)                       \
  S3VCD_ASSIGN_OR_RETURN_IMPL_(                                 \
      S3VCD_STATUS_CONCAT_(s3vcd_result_, __LINE__), lhs, expr)

#define S3VCD_STATUS_CONCAT_INNER_(a, b) a##b
#define S3VCD_STATUS_CONCAT_(a, b) S3VCD_STATUS_CONCAT_INNER_(a, b)
#define S3VCD_ASSIGN_OR_RETURN_IMPL_(tmp, lhs, expr) \
  auto tmp = (expr);                                 \
  if (!tmp.ok()) {                                   \
    return tmp.status();                             \
  }                                                  \
  lhs = std::move(tmp).value()

#endif  // S3VCD_UTIL_STATUS_H_
