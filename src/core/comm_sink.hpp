#pragma once
// Output sinks for the communication simulators.
//
// The simulators emit every committed operation into a sink.  Recording
// sinks keep the whole sequence (CommTrace -- what the paper's Figures 4
// and 5 plot); most callers, though, only consume per-processor finish
// times and op counts (the program simulator's step composition, the
// GE block-size sweeps, the optimizer search), for which materializing
// thousands of OpRecords per step is pure waste.  FinishOnlySink is the
// cheap alternative: O(P) state, no per-op storage, and finish times that
// are bit-identical to CommTrace::finish_times() on the same run (both
// fold the same cpu_end values with max() in the same order).

#include <cstddef>
#include <vector>

#include "core/trace.hpp"
#include "loggp/cost.hpp"
#include "util/types.hpp"

namespace logsim::core {

/// Anything a simulator can emit committed operations into.  The library
/// instantiates the simulators for exactly two models: CommTrace (full
/// recording) and FinishOnlySink (finish times + counts only).
template <typename S>
concept CommSink = requires(S& s, const OpRecord& op) { s.record(op); };

class FinishOnlySink {
 public:
  /// Clears and sizes for `procs` processors; call before every run.
  /// Capacity is reused, so steady-state resets do not allocate.
  void reset(int procs) {
    finish_.assign(static_cast<std::size_t>(procs), Time::zero());
    ops_ = 0;
    sends_ = 0;
  }

  void record(const OpRecord& op) {
    finish_[static_cast<std::size_t>(op.proc)] =
        max(finish_[static_cast<std::size_t>(op.proc)], op.cpu_end);
    ++ops_;
    if (op.kind == loggp::OpKind::kSend) ++sends_;
  }

  /// Completion time of one processor (zero if it performed no op).
  [[nodiscard]] Time finish_of(ProcId p) const {
    const auto i = static_cast<std::size_t>(p);
    return i < finish_.size() ? finish_[i] : Time::zero();
  }

  [[nodiscard]] const std::vector<Time>& finish_times() const {
    return finish_;
  }

  [[nodiscard]] Time makespan() const {
    Time t = Time::zero();
    for (const Time f : finish_) t = max(t, f);
    return t;
  }

  [[nodiscard]] std::size_t op_count() const { return ops_; }
  [[nodiscard]] std::size_t send_count() const { return sends_; }
  [[nodiscard]] std::size_t recv_count() const { return ops_ - sends_; }

 private:
  std::vector<Time> finish_;
  std::size_t ops_ = 0;
  std::size_t sends_ = 0;
};

static_assert(CommSink<FinishOnlySink>);
static_assert(CommSink<CommTrace>);

}  // namespace logsim::core
