#pragma once
// Fenwick (binary-indexed) order-statistic trees over 0/1 weights, shared
// by both communication simulators.  Internal to core.
//
// The tree lives in a caller-owned, grow-only vector (CommSimScratch::
// fenwick) with 1-based nodes: node i covers the lowbit(i) elements ending
// at element i.  Each element is live (1) or dead (0); selecting the k-th
// live element and flipping one element are O(log t).
//
// The standard schedule (comm_sim.cpp) keeps one bit per member of the
// current equal-ctime tie group; the worst-case schedule (worst_case.cpp)
// keeps one bit per processor that still has sends, for its deadlock
// break.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace logsim::core::detail {

inline std::size_t lowbit(std::size_t i) { return i & (std::size_t{0} - i); }

// All-ones build: node i of a Fenwick tree over t ones covers lowbit(i)
// elements, so its value is simply lowbit(i).  O(t), no second pass.
inline void fenwick_build_ones(std::vector<std::uint32_t>& fw, std::size_t t) {
  if (fw.size() < t + 1) fw.resize(t + 1);
  for (std::size_t i = 1; i <= t; ++i) {
    fw[i] = static_cast<std::uint32_t>(lowbit(i));
  }
}

// Build over t elements whose 0-based element i is live iff live(i):
// seed every node with its own element, then add each node into its
// parent i + lowbit(i), which comes later in the same sweep.  O(t).
template <typename Live>
void fenwick_build(std::vector<std::uint32_t>& fw, std::size_t t, Live live) {
  if (fw.size() < t + 1) fw.resize(t + 1);
  for (std::size_t i = 1; i <= t; ++i) fw[i] = live(i - 1) ? 1u : 0u;
  for (std::size_t i = 1; i <= t; ++i) {
    const std::size_t parent = i + lowbit(i);
    if (parent <= t) fw[parent] += fw[i];
  }
}

// Adds d to the 1-based element i.
inline void fenwick_add(std::vector<std::uint32_t>& fw, std::size_t t,
                        std::size_t i, std::int32_t d) {
  for (; i <= t; i += lowbit(i)) {
    fw[i] = static_cast<std::uint32_t>(static_cast<std::int64_t>(fw[i]) + d);
  }
}

// 0-based index of the element with 1-based rank k among the live ones:
// the classic binary-lifting descent, O(log t).
inline std::size_t fenwick_select(const std::vector<std::uint32_t>& fw,
                                  std::size_t t, std::uint64_t k) {
  std::size_t pos = 0;
  for (std::size_t step = std::bit_floor(t); step != 0; step >>= 1) {
    const std::size_t next = pos + step;
    if (next <= t && fw[next] < k) {
      pos = next;
      k -= fw[next];
    }
  }
  return pos;
}

}  // namespace logsim::core::detail
