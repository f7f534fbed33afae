#pragma once
// Connected-component count of a communication pattern.
//
// Two processors belong to the same component when a chain of network
// messages links them (direction ignored).  Messages never cross
// components, so the count says how many causally independent pieces a
// communication step has -- a structural figure logbench's traced run
// reports as pattern.components.  No simulator uses it.
//
// All state is grow-only scratch: a warmed ComponentSplit re-analyzes
// patterns of similar size without allocating.

#include <cstddef>
#include <vector>

#include "pattern/comm_pattern.hpp"
#include "util/types.hpp"

namespace logsim::pattern {

class ComponentSplit {
 public:
  /// Analyzes `p`; returns the number of connected components among the
  /// participating processors (0 if the pattern has no network messages).
  /// Self-messages are ignored, as the LogGP simulators skip them.
  int analyze(const CommPattern& p);

  [[nodiscard]] int count() const { return count_; }

  /// True when every network message carries the same byte count (see
  /// pattern/canonical.hpp for why that matters), computed during the
  /// same walk.
  [[nodiscard]] bool uniform_bytes() const { return uniform_; }

  [[nodiscard]] std::size_t network_messages() const { return net_msgs_; }

 private:
  ProcId find_root(ProcId p);

  int count_ = 0;
  /// Union-find over original ids; kNoProc marks a processor no network
  /// message has touched yet.
  std::vector<ProcId> parent_;
  bool uniform_ = true;
  std::size_t net_msgs_ = 0;
};

}  // namespace logsim::pattern
