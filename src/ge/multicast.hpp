#pragma once
// The comm-step helper the blocked and irregular GE generators share.

#include <cstdint>
#include <vector>

#include "ge/blocked_ge.hpp"
#include "pattern/comm_pattern.hpp"
#include "util/types.hpp"

namespace logsim::ge {

/// Collects the distinct destination processors of one produced block and
/// emits one message per destination (including a self-edge when a
/// consumer lives with the producer: a local copy in a real execution).
/// emit() resets it, so one instance serves a whole program build.
class Multicast {
 public:
  explicit Multicast(int procs)
      : seen_(static_cast<std::size_t>(procs), false) {}

  void add_consumer(ProcId dst) {
    if (!seen_[static_cast<std::size_t>(dst)]) {
      seen_[static_cast<std::size_t>(dst)] = true;
      dsts_.push_back(dst);
    }
  }

  /// src -> each consumer in first-added order, carrying block `tag`.
  void emit(ProcId src, std::int64_t tag, Bytes bytes,
            pattern::CommPattern& out, GeScheduleInfo& info) {
    for (ProcId dst : dsts_) {
      out.add(src, dst, bytes, tag);
      ++(dst == src ? info.self_messages : info.network_messages);
      seen_[static_cast<std::size_t>(dst)] = false;
    }
    dsts_.clear();
  }

 private:
  std::vector<bool> seen_;
  std::vector<ProcId> dsts_;
};

}  // namespace logsim::ge
