#pragma once
// Structured error propagation for logsim's untrusted boundaries.
//
// The library distinguishes three families of failure (DESIGN.md §8):
//   invalid input -- malformed files, out-of-range ids, uncalibrated ops:
//                    the caller's data is wrong, retrying cannot help;
//   transient     -- injected faults, io hiccups, allocation pressure, a
//                    busy server: the same call may succeed later, and
//                    the caller decides whether to try again (logsim
//                    itself never retries: a prediction is a pure
//                    function of its inputs);
//   internal      -- a broken invariant inside logsim itself: a bug.
// plus two runtime outcomes, timeout (deadline expired) and cancelled
// (cooperative cancellation observed).
//
// A Status is a code + message + context chain; Result<T> is the
// std::expected-style carrier used by every boundary API (io parsers,
// checked predictor entry points, the batch runtime).  Internal hot paths
// keep assert() for invariants the boundaries have already established.

#include <cassert>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace logsim {

enum class ErrorCode {
  kOk = 0,
  kInvalidInput,  ///< malformed/out-of-range untrusted input; not retryable
  kTransient,     ///< io hiccup / injected fault / resource blip / busy
                  ///< server; the caller may retry
  kTimeout,       ///< a configured deadline expired
  kCancelled,     ///< cooperative cancellation was observed
  kInternal,      ///< broken internal invariant: a logsim bug
};

/// Stable lowercase name of a code, e.g. "invalid-input".
[[nodiscard]] const char* error_code_name(ErrorCode code);

/// Inverse of error_code_name, for codes carried over a wire boundary;
/// unknown names map to kInternal (a peer speaking a newer protocol is a
/// bug on one side or the other, never silent success).
[[nodiscard]] ErrorCode error_code_from_name(std::string_view name);

class Status {
 public:
  /// Default-constructed Status is success.
  Status() = default;

  [[nodiscard]] static Status invalid_input(std::string message) {
    return Status{ErrorCode::kInvalidInput, std::move(message)};
  }
  [[nodiscard]] static Status transient(std::string message) {
    return Status{ErrorCode::kTransient, std::move(message)};
  }
  [[nodiscard]] static Status timeout(std::string message) {
    return Status{ErrorCode::kTimeout, std::move(message)};
  }
  [[nodiscard]] static Status cancelled(std::string message) {
    return Status{ErrorCode::kCancelled, std::move(message)};
  }
  [[nodiscard]] static Status internal(std::string message) {
    return Status{ErrorCode::kInternal, std::move(message)};
  }
  Status(ErrorCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  [[nodiscard]] bool ok() const { return code_ == ErrorCode::kOk; }
  [[nodiscard]] ErrorCode code() const { return code_; }
  [[nodiscard]] const std::string& message() const { return message_; }
  [[nodiscard]] const std::vector<std::string>& context() const {
    return context_;
  }

  /// Only a transient failure can succeed when the caller tries again.
  [[nodiscard]] bool is_transient() const {
    return code_ == ErrorCode::kTransient;
  }

  /// Appends an outer frame to the context chain ("while loading x", ...).
  /// Innermost frame first.  No-op on an ok status.
  Status& with_context(std::string frame) {
    if (!ok()) context_.push_back(std::move(frame));
    return *this;
  }

  /// Attaches a 1-based source line (parser diagnostics); 0 = none.
  Status& at_line(int line) {
    line_ = line;
    return *this;
  }
  [[nodiscard]] int line() const { return line_; }

  /// "invalid-input: message (while parsing x; while loading y)" --
  /// with ":<line>" after the code when a line is attached.
  [[nodiscard]] std::string to_string() const;

 private:
  ErrorCode code_ = ErrorCode::kOk;
  std::string message_;
  std::vector<std::string> context_;  // innermost first
  int line_ = 0;
};

/// A value or the Status explaining its absence.
template <typename T>
class Result {
 public:
  Result(T value) : value_(std::move(value)) {}  // NOLINT(*-explicit-*)
  Result(Status status) : status_(std::move(status)) {  // NOLINT(*-explicit-*)
    assert(!status_.ok() && "Result needs a failed Status or a value");
    if (status_.ok()) {
      status_ = Status::internal("Result constructed from an ok Status");
    }
  }

  [[nodiscard]] bool ok() const { return value_.has_value(); }
  [[nodiscard]] const Status& status() const { return status_; }

  /// Precondition: ok().  Throws std::logic_error instead of undefined
  /// behaviour when violated in a release build.
  [[nodiscard]] const T& value() const& {
    check();
    return *value_;
  }
  [[nodiscard]] T& value() & {
    check();
    return *value_;
  }
  [[nodiscard]] T&& value() && {
    check();
    return std::move(*value_);
  }

  [[nodiscard]] const T& operator*() const& { return value(); }
  [[nodiscard]] T& operator*() & { return value(); }
  [[nodiscard]] const T* operator->() const { return &value(); }
  [[nodiscard]] T* operator->() { return &value(); }

  [[nodiscard]] T value_or(T fallback) const& {
    return ok() ? *value_ : std::move(fallback);
  }

 private:
  void check() const {
    assert(ok() && "Result::value() on an error");
    if (!ok()) {
      throw std::logic_error("Result::value() on error: " +
                             status_.to_string());
    }
  }

  std::optional<T> value_;
  Status status_;
};

}  // namespace logsim
