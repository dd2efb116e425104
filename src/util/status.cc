#include "util/status.h"

namespace s3vcd {

std::string_view StatusCodeToString(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "InvalidArgument";
    case StatusCode::kNotFound:
      return "NotFound";
    case StatusCode::kOutOfRange:
      return "OutOfRange";
    case StatusCode::kFailedPrecondition:
      return "FailedPrecondition";
    case StatusCode::kIOError:
      return "IOError";
    case StatusCode::kCorruption:
      return "Corruption";
    case StatusCode::kUnimplemented:
      return "Unimplemented";
    case StatusCode::kInternal:
      return "Internal";
    case StatusCode::kUnavailable:
      return "Unavailable";
    case StatusCode::kDeadlineExceeded:
      return "DeadlineExceeded";
  }
  return "Unknown";
}

std::string Status::ToString() const {
  if (ok()) {
    return "OK";
  }
  std::string out(StatusCodeToString(code_));
  out += ": ";
  out += message_;
  return out;
}

}  // namespace s3vcd
