#pragma once
// Cooperative cancellation token.
//
// A CancelToken is a cheap copyable handle onto a shared flag.  The
// default-constructed token is inert (never cancelled, cancel() is a
// no-op); CancelToken::create() makes an armed token whose copies all
// observe the same flag.  ProgramSimulator polls cancelled() between
// simulation steps; nothing is ever killed pre-emptively, so holders of
// borrowed pointers always unwind through their own code.  The batch
// runtime and the serving layer attach one token per job or request.

#include <atomic>
#include <memory>

namespace logsim::fault {

class CancelToken {
 public:
  /// Inert token: cancelled() is always false, cancel() does nothing.
  CancelToken() = default;

  /// An armed token sharing one flag with all its copies.
  [[nodiscard]] static CancelToken create() {
    CancelToken t;
    t.flag_ = std::make_shared<std::atomic<bool>>(false);
    return t;
  }

  /// Requests cancellation (idempotent, thread-safe).
  void cancel() const {
    if (flag_) flag_->store(true, std::memory_order_relaxed);
  }

  [[nodiscard]] bool cancelled() const {
    return flag_ && flag_->load(std::memory_order_relaxed);
  }

  /// True for tokens made by create() (i.e. cancellation is possible).
  [[nodiscard]] bool armed() const { return flag_ != nullptr; }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

}  // namespace logsim::fault
