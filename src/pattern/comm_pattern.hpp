#pragma once
// A communication pattern: the input of the paper's simulation algorithm.
//
// "The communication pattern is described by a directed graph where the
//  nodes represent the processors involved in the communication step, the
//  edges represent messages being transmitted and the costs of these edges
//  represent the lengths of messages."  (paper, Section 4)
//
// The graph is a multigraph (two processors may exchange several messages
// in one step).  Per-source edge order is the program order in which the
// source wants to inject its sends.

#include <cstdint>
#include <string>
#include <vector>

#include "util/types.hpp"

namespace logsim::pattern {

struct Message {
  ProcId src = kNoProc;
  ProcId dst = kNoProc;
  Bytes bytes{0};
  /// Caller-defined label (e.g. which block of the matrix); carried through
  /// to the trace so consumers can attribute time to program objects.
  std::int64_t tag = 0;

  friend bool operator==(const Message&, const Message&) = default;
};

class CommPattern {
 public:
  /// Creates an empty pattern over `procs` processors (ids 0..procs-1).
  explicit CommPattern(int procs);

  /// Appends a message; order of calls per source fixes send order.
  /// Self-messages (src == dst) are representable: the LogGP simulators
  /// skip them (local memory copies), the Testbed machine charges them.
  void add(ProcId src, ProcId dst, Bytes bytes, std::int64_t tag = 0);

  [[nodiscard]] int procs() const { return procs_; }
  [[nodiscard]] const std::vector<Message>& messages() const { return messages_; }
  [[nodiscard]] std::size_t size() const { return messages_.size(); }
  [[nodiscard]] bool empty() const { return messages_.empty(); }

  /// Messages with src == dst (excluded from network simulation).
  [[nodiscard]] std::size_t self_message_count() const;

  /// Total payload crossing the network (self-messages excluded).
  [[nodiscard]] Bytes network_bytes() const;

  /// Per-processor send lists, in insertion order, network messages only.
  /// Element i of the outer vector lists indices into messages() whose
  /// source is processor i.
  [[nodiscard]] std::vector<std::vector<std::size_t>> send_lists() const;

  /// Number of network messages each processor must receive.
  [[nodiscard]] std::vector<int> receive_counts() const;

  /// Scratch variants: rebuild into caller-owned storage, reusing inner
  /// capacity, so repeated calls on warmed buffers allocate nothing.
  void send_lists(std::vector<std::vector<std::size_t>>& out) const;
  void receive_counts(std::vector<int>& out) const;

  /// Structural hash (util::Hasher): the companion to operator==.  Equal
  /// patterns always hash equal; the encoding covers the processor count
  /// and every message's (src, dst, bytes, tag) in order.
  [[nodiscard]] std::uint64_t hash() const;

  /// True if every endpoint is a valid processor id.
  [[nodiscard]] bool valid() const;

  /// True if the processor-level "waits-for" graph (an edge p->q for every
  /// network message p sends q) contains a directed cycle.  The worst-case
  /// (overestimation) algorithm deadlocks on such patterns and must break
  /// the cycle randomly (paper Section 4.2).
  [[nodiscard]] bool has_processor_cycle() const;

  /// Graphviz DOT rendering (for documentation / debugging).
  [[nodiscard]] std::string to_dot(const std::string& name = "pattern") const;

  /// Same processor count and identical message list (order-sensitive).
  friend bool operator==(const CommPattern&, const CommPattern&) = default;

 private:
  int procs_;
  std::vector<Message> messages_;
};

}  // namespace logsim::pattern
