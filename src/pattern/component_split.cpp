#include "pattern/component_split.hpp"

namespace logsim::pattern {

ProcId ComponentSplit::find_root(ProcId p) {
  // Path halving: every probe links a node to its grandparent, so repeated
  // analyze() calls stay near-linear without a recursion or a second pass.
  while (parent_[static_cast<std::size_t>(p)] != p) {
    const ProcId gp =
        parent_[static_cast<std::size_t>(parent_[static_cast<std::size_t>(p)])];
    parent_[static_cast<std::size_t>(p)] = gp;
    p = gp;
  }
  return p;
}

int ComponentSplit::analyze(const CommPattern& p) {
  const auto n = static_cast<std::size_t>(p.procs());
  parent_.assign(n, kNoProc);

  // One pass: every newly seen endpoint opens a component of its own and
  // every union of two distinct roots merges two into one.
  uniform_ = true;
  net_msgs_ = 0;
  count_ = 0;
  Bytes first_bytes{0};
  for (const auto& m : p.messages()) {
    if (m.src == m.dst) continue;
    if (net_msgs_ == 0) {
      first_bytes = m.bytes;
    } else if (m.bytes != first_bytes) {
      uniform_ = false;
    }
    ++net_msgs_;
    for (const ProcId e : {m.src, m.dst}) {
      if (parent_[static_cast<std::size_t>(e)] == kNoProc) {
        parent_[static_cast<std::size_t>(e)] = e;
        ++count_;
      }
    }
    const ProcId a = find_root(m.src);
    const ProcId b = find_root(m.dst);
    if (a != b) {
      parent_[static_cast<std::size_t>(a)] = b;
      --count_;
    }
  }
  return count_;
}

}  // namespace logsim::pattern
