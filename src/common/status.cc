#include "common/status.h"

#include <cstring>

namespace obiswap {

const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kNotFound:
      return "NOT_FOUND";
    case StatusCode::kAlreadyExists:
      return "ALREADY_EXISTS";
    case StatusCode::kInvalidArgument:
      return "INVALID_ARGUMENT";
    case StatusCode::kFailedPrecondition:
      return "FAILED_PRECONDITION";
    case StatusCode::kResourceExhausted:
      return "RESOURCE_EXHAUSTED";
    case StatusCode::kUnavailable:
      return "UNAVAILABLE";
    case StatusCode::kDataLoss:
      return "DATA_LOSS";
    case StatusCode::kInternal:
      return "INTERNAL";
    case StatusCode::kDeadlineExceeded:
      return "DEADLINE_EXCEEDED";
  }
  return "UNKNOWN";
}

StatusCode StatusCodeFromName(std::string_view name) {
  // The codes are dense from kOk, and StatusCodeName ends the walk at the
  // first value past the last one, so every named code decodes.
  for (int i = 0;; ++i) {
    const auto code = static_cast<StatusCode>(i);
    const char* known = StatusCodeName(code);
    if (std::strcmp(known, "UNKNOWN") == 0) return StatusCode::kInternal;
    if (name == known) return code;
  }
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out = StatusCodeName(code_);
  if (!message_.empty()) {
    out += ": ";
    out += message_;
  }
  return out;
}

Status NotFoundError(std::string message) {
  return Status(StatusCode::kNotFound, std::move(message));
}
Status AlreadyExistsError(std::string message) {
  return Status(StatusCode::kAlreadyExists, std::move(message));
}
Status InvalidArgumentError(std::string message) {
  return Status(StatusCode::kInvalidArgument, std::move(message));
}
Status FailedPreconditionError(std::string message) {
  return Status(StatusCode::kFailedPrecondition, std::move(message));
}
Status ResourceExhaustedError(std::string message) {
  return Status(StatusCode::kResourceExhausted, std::move(message));
}
Status UnavailableError(std::string message) {
  return Status(StatusCode::kUnavailable, std::move(message));
}
Status DataLossError(std::string message) {
  return Status(StatusCode::kDataLoss, std::move(message));
}
Status InternalError(std::string message) {
  return Status(StatusCode::kInternal, std::move(message));
}
Status DeadlineExceededError(std::string message) {
  return Status(StatusCode::kDeadlineExceeded, std::move(message));
}

}  // namespace obiswap
