#ifndef INVARNETX_COMMON_STATUS_H_
#define INVARNETX_COMMON_STATUS_H_

#include <string>
#include <utility>
#include <variant>

namespace invarnetx {

// Status codes for operations that can fail. Follows the RocksDB-style
// "no exceptions across API boundaries" idiom: fallible operations return
// Status (or Result<T> below) instead of throwing.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kFailedPrecondition,
  kInternal,
  kIoError,
  kCorruption,
  kNumericalError,
  kUnimplemented,
};

// Lightweight status object: a code plus a human-readable message.
// The default-constructed Status is OK and carries no allocation.
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(StatusCode::kCorruption, std::move(msg));
  }
  static Status NumericalError(std::string msg) {
    return Status(StatusCode::kNumericalError, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  // Renders "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

// Result<T> holds either a value or an error Status, like absl::StatusOr.
// Check ok() before calling value().
template <typename T>
class Result {
 public:
  // Intentionally implicit so `return value;` and `return status;` both work
  // at function boundaries, matching the absl::StatusOr ergonomics.
  Result(T value) : storage_(std::move(value)) {}  // NOLINT
  Result(Status status) : storage_(std::move(status)) {}  // NOLINT

  bool ok() const { return std::holds_alternative<T>(storage_); }

  const T& value() const& { return std::get<T>(storage_); }
  T& value() & { return std::get<T>(storage_); }
  T&& value() && { return std::get<T>(std::move(storage_)); }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  // Returns the error status; OK when a value is held.
  Status status() const {
    if (ok()) return Status::Ok();
    return std::get<Status>(storage_);
  }

 private:
  std::variant<Status, T> storage_;
};

// Propagates a non-OK status out of the current function.
#define INVARNETX_RETURN_IF_ERROR(expr)            \
  do {                                             \
    ::invarnetx::Status _st = (expr);              \
    if (!_st.ok()) return _st;                     \
  } while (0)

}  // namespace invarnetx

#endif  // INVARNETX_COMMON_STATUS_H_
