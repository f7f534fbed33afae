#include "core/worst_case.hpp"

#include <algorithm>
#include <cassert>
#include <vector>

#include "core/comm_sink.hpp"
#include "core/fenwick.hpp"
#include "core/sim_scratch.hpp"
#include "loggp/cost.hpp"
#include "network/network_model.hpp"
#include "util/rng.hpp"

namespace logsim::core {

WorstCaseSimulator::WorstCaseSimulator(loggp::Params params,
                                       WorstCaseOptions opts)
    : params_(params), opts_(opts) {
  assert(params_.valid());
}

CommTrace WorstCaseSimulator::run(const pattern::CommPattern& pattern) const {
  return run(pattern, std::vector<Time>(static_cast<std::size_t>(pattern.procs()),
                                        Time::zero()));
}

CommTrace WorstCaseSimulator::run(const pattern::CommPattern& pattern,
                                  const std::vector<Time>& ready) const {
  thread_local CommSimScratch scratch;
  CommTrace trace{pattern.procs(), params_};
  trace.reserve(2 * pattern.size());
  run_into(pattern, ready, trace, scratch);
  return trace;
}

// Determinism contract: this produces the exact op sequence, times and rng
// stream of the original round loop, which scanned all P processors every
// round to collect the senders, to collect the deadlock-break candidates
// and to drain every inbox.  Five things stay the same: the rounds, the
// sender order (ascending), the per-destination push order, the drain
// order (ascending) and the rng stream (one rng.below(pending) per
// deadlock round).  The work lists only change HOW each set is found:
//   * every round ends with all inboxes empty, so a destination joins
//     `drains` exactly once, on the push that finds its inbox empty;
//   * `received` only grows by draining and a sender sends everything, so
//     the next round's senders are exactly the drained processors whose
//     receives are now complete and which still have sends;
//   * the Fenwick tree holds one bit per processor with pending sends, in
//     processor order, so its k-th live element is the k-th element of
//     the ascending candidate list the scan built.
// tests/worst_case_test.cpp keeps the round-scan loop as a differential
// oracle; tests/golden_trace_test.cpp pins hashes captured from it.
template <CommSink Sink>
void WorstCaseSimulator::run_into(const pattern::CommPattern& pattern,
                                  const std::vector<Time>& ready, Sink& sink,
                                  CommSimScratch& s) const {
  assert(pattern.valid());
  const auto n = static_cast<std::size_t>(pattern.procs());
  assert(ready.size() == n);

  s.prepare(pattern, ready);
  s.net_delay.clear();
  if (opts_.net != nullptr && !opts_.net->is_flat()) {
    opts_.net->step_delays(pattern, params_, /*worst_case=*/true,
                           s.net_delay);
  }
  const bool has_net_delay = !s.net_delay.empty();
  util::Rng rng{opts_.seed};
  const auto& msgs = pattern.messages();
  std::size_t unsent = s.network_messages();
  // Sequencing floor increments; see comm_sim.cpp for the derivation of
  // why one floor serves both next-op kinds.
  const Time after_recv = max(params_.o, params_.g);

  auto has_sends = [&](std::size_t p) {
    return s.send_off[p] + s.send_cursor[p] < s.send_off[p + 1];
  };

  // Deadlock-break candidates: processors with pending sends, counted in
  // `pending` and marked in an order-statistic tree over processor ids.
  // The first round's senders are the candidates with nothing to receive.
  std::size_t pending = 0;
  for (std::size_t p = 0; p < n; ++p) {
    if (!has_sends(p)) continue;
    ++pending;
    if (s.recv_count[p] == 0) {
      s.senders.push_back(static_cast<std::uint32_t>(p));
    }
  }
  detail::fenwick_build(s.fenwick, n, has_sends);

  auto send_one = [&](std::size_t p) {
    const std::uint32_t msg_index =
        s.send_flat[s.send_off[p] + s.send_cursor[p]++];
    const auto& msg = msgs[msg_index];
    const Time start = s.floor_next[p];
    OpRecord op;
    op.proc = static_cast<ProcId>(p);
    op.kind = loggp::OpKind::kSend;
    op.start = start;
    op.cpu_end = start + params_.o;
    op.port_end = start + loggp::send_occupancy(msg.bytes, params_);
    op.peer = msg.dst;
    op.bytes = msg.bytes;
    op.msg_index = msg_index;
    s.floor_next[p] = max(start + params_.g, op.port_end);
    s.ctime[p] = op.cpu_end;
    sink.record(op);
    Time arrival = loggp::arrival_time(start, msg.bytes, params_);
    if (has_net_delay) arrival += s.net_delay[msg_index];
    const auto dst = static_cast<std::size_t>(msg.dst);
    if (s.inbox_empty(dst)) {
      s.drains.push_back(static_cast<std::uint32_t>(dst));
    }
    s.inbox_push(dst, arrival, msg_index);
    --unsent;
    if (!has_sends(p)) {
      detail::fenwick_add(s.fenwick, n, p + 1, -1);
      --pending;
    }
  };

  auto drain_inbox = [&](std::size_t p) {
    while (!s.inbox_empty(p)) {
      const auto entry = s.inbox_pop(p);
      const auto& rm = msgs[entry.msg];
      const Time start = max(s.floor_next[p], entry.arrival);
      OpRecord op;
      op.proc = static_cast<ProcId>(p);
      op.kind = loggp::OpKind::kRecv;
      op.start = start;
      op.cpu_end = start + params_.o;
      op.port_end = op.cpu_end;
      op.peer = rm.src;
      op.bytes = rm.bytes;
      op.msg_index = entry.msg;
      s.floor_next[p] = start + after_recv;
      s.ctime[p] = op.cpu_end;
      sink.record(op);
      ++s.received[p];
    }
  };

  while (unsent > 0) {
    // Part 1: every processor that has completed all its receives sends
    // all of its messages.
    s.drains.clear();
    if (s.senders.empty()) {
      // Deadlock: a cycle of processors each waiting to receive first.
      // Break it by forcing a random processor with pending sends to
      // transmit one message (paper Section 4.2).
      assert(pending > 0);
      const std::uint64_t k = rng.below(static_cast<std::uint64_t>(pending));
      send_one(detail::fenwick_select(s.fenwick, n, k + 1));
    } else {
      for (const std::uint32_t p : s.senders) {
        while (has_sends(p)) send_one(p);
      }
    }
    // Part 2: destinations perform the receives of everything in flight,
    // in ascending processor order; those left complete with sends still
    // pending are the next round's senders.
    std::sort(s.drains.begin(), s.drains.end());
    s.senders.clear();
    for (const std::uint32_t p : s.drains) {
      drain_inbox(p);
      if (has_sends(p) && s.received[p] == s.recv_count[p]) {
        s.senders.push_back(p);
      }
    }
  }
}

template void WorstCaseSimulator::run_into<CommTrace>(
    const pattern::CommPattern&, const std::vector<Time>&, CommTrace&,
    CommSimScratch&) const;
template void WorstCaseSimulator::run_into<FinishOnlySink>(
    const pattern::CommPattern&, const std::vector<Time>&, FinishOnlySink&,
    CommSimScratch&) const;

}  // namespace logsim::core
