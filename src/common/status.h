// Status / Result error model used across all obiswap modules.
//
// Modules report recoverable failures (network loss, capacity exhaustion,
// malformed XML, unknown ids) through Status / Result<T> rather than
// exceptions, so every cross-module call site spells out its failure path.
// Programmer errors (broken invariants) use OBISWAP_CHECK, which aborts.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

namespace obiswap {

/// Coarse failure categories shared by every module.
enum class StatusCode {
  kOk = 0,
  kNotFound,         ///< id / key / device not known
  kAlreadyExists,    ///< duplicate registration
  kInvalidArgument,  ///< caller passed something malformed
  kFailedPrecondition,  ///< operation not valid in current state
  kResourceExhausted,   ///< heap / store / link capacity exceeded
  kUnavailable,         ///< device out of range, link down
  kDataLoss,            ///< checksum mismatch, truncated payload
  kInternal,            ///< invariant violation surfaced as error
  kDeadlineExceeded,    ///< operation abandoned at its virtual-time budget
};

/// Human-readable name for a StatusCode (stable, used in logs, tests and
/// the `status` attribute of every response envelope).
const char* StatusCodeName(StatusCode code);

/// Inverse of StatusCodeName over every code; any other name decodes as
/// kInternal.
StatusCode StatusCodeFromName(std::string_view name);

/// A success-or-error value. Cheap to copy on the success path.
class Status {
 public:
  Status() = default;
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<CODE>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const { return code_ == other.code_; }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

inline Status OkStatus() { return Status::Ok(); }
Status NotFoundError(std::string message);
Status AlreadyExistsError(std::string message);
Status InvalidArgumentError(std::string message);
Status FailedPreconditionError(std::string message);
Status ResourceExhaustedError(std::string message);
Status UnavailableError(std::string message);
Status DataLossError(std::string message);
Status InternalError(std::string message);
Status DeadlineExceededError(std::string message);

/// A value of T or a failure Status. Mirrors absl::StatusOr.
template <typename T>
class Result {
 public:
  Result(T value) : value_(std::move(value)) {}  // NOLINT: implicit by design
  Result(Status status) : status_(std::move(status)) {}  // NOLINT
  Result(StatusCode code, std::string message)
      : status_(code, std::move(message)) {}

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  /// Value access. Aborts if not ok (programmer error).
  T& value() & {
    check_ok();
    return *value_;
  }
  const T& value() const& {
    check_ok();
    return *value_;
  }
  T&& value() && {
    check_ok();
    return std::move(*value_);
  }

  T& operator*() & { return value(); }
  const T& operator*() const& { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

 private:
  void check_ok() const {
    if (!status_.ok()) {
      std::fprintf(stderr, "Result::value() on error: %s\n",
                   status_.ToString().c_str());
      std::abort();
    }
  }

  Status status_;
  std::optional<T> value_;
};

}  // namespace obiswap

/// Abort with a message if `cond` is false. For invariants, not for
/// recoverable errors.
#define OBISWAP_CHECK(cond)                                              \
  do {                                                                   \
    if (!(cond)) {                                                       \
      std::fprintf(stderr, "OBISWAP_CHECK failed at %s:%d: %s\n",        \
                   __FILE__, __LINE__, #cond);                           \
      std::abort();                                                      \
    }                                                                    \
  } while (0)

/// Early-return the Status if it is not OK.
#define OBISWAP_RETURN_IF_ERROR(expr)              \
  do {                                             \
    ::obiswap::Status _st = (expr);                \
    if (!_st.ok()) return _st;                     \
  } while (0)

/// Evaluate a Result<T> expression; on error return its Status, else bind
/// the value into `lhs`.
#define OBISWAP_ASSIGN_OR_RETURN(lhs, expr)        \
  auto OBISWAP_CONCAT_(_res_, __LINE__) = (expr);  \
  if (!OBISWAP_CONCAT_(_res_, __LINE__).ok())      \
    return OBISWAP_CONCAT_(_res_, __LINE__).status(); \
  lhs = std::move(OBISWAP_CONCAT_(_res_, __LINE__)).value()

#define OBISWAP_CONCAT_INNER_(a, b) a##b
#define OBISWAP_CONCAT_(a, b) OBISWAP_CONCAT_INNER_(a, b)
