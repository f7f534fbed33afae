#include "core/comm_sim.hpp"

#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/comm_sink.hpp"
#include "core/fenwick.hpp"
#include "core/sim_scratch.hpp"
#include "loggp/cost.hpp"
#include "network/network_model.hpp"

namespace logsim::core {

namespace {

using MinEntry = CommSimScratch::MinEntry;

// Strict ordering of min-heap candidates: earlier ctime first, then lower
// processor id.  The proc tie-break makes equal-ctime entries pop in
// ascending processor order -- exactly the order the original O(P) scan
// appended them to `minima`, which the rng draw below depends on.
bool min_before(const MinEntry& a, const MinEntry& b) {
  if (a.ctime != b.ctime) return a.ctime < b.ctime;
  return a.proc < b.proc;
}

void heap_push(std::vector<MinEntry>& h, MinEntry e) {
  h.push_back(e);
  std::size_t i = h.size() - 1;
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!min_before(h[i], h[parent])) break;
    std::swap(h[i], h[parent]);
    i = parent;
  }
}

MinEntry heap_pop(std::vector<MinEntry>& h) {
  const MinEntry out = h.front();
  h.front() = h.back();
  h.pop_back();
  const std::size_t n = h.size();
  std::size_t i = 0;
  while (true) {
    const std::size_t l = 2 * i + 1;
    const std::size_t r = 2 * i + 2;
    std::size_t best = i;
    if (l < n && min_before(h[l], h[best])) best = l;
    if (r < n && min_before(h[r], h[best])) best = r;
    if (best == i) break;
    std::swap(h[i], h[best]);
    i = best;
  }
  return out;
}

// --- Fenwick order statistics over the current tie group -----------------
// The group is the `minima` array (procs tied at the minimum ctime, in
// ascending processor order); the Fenwick tree (core/fenwick.hpp) holds
// one live/dead bit per member.  Selecting and removing the k-th live
// member is O(log t), so a lockstep tie of t processors costs O(t log t)
// to drain instead of the O(t^2 log P) the reinsert-the-losers scheme paid
// (pop t, push back t-1, every round) -- the difference between
// milliseconds and hours at P = 1M.
using detail::fenwick_add;
using detail::fenwick_build_ones;
using detail::fenwick_select;

}  // namespace

CommSimulator::CommSimulator(loggp::Params params, CommSimOptions opts)
    : params_(params), opts_(std::move(opts)) {
  assert(params_.valid());
}

CommTrace CommSimulator::run(const pattern::CommPattern& pattern) const {
  return run(pattern, std::vector<Time>(static_cast<std::size_t>(pattern.procs()),
                                        Time::zero()));
}

CommTrace CommSimulator::run(const pattern::CommPattern& pattern,
                             const std::vector<Time>& ready) const {
  return run(pattern, ready, {});
}

CommTrace CommSimulator::run(const pattern::CommPattern& pattern,
                             const std::vector<Time>& ready,
                             const std::vector<Time>& msg_ready) const {
  // The recording wrapper: fresh trace per call (callers keep it), scratch
  // reused per thread so repeated runs stop allocating simulation state.
  thread_local CommSimScratch scratch;
  CommTrace trace{pattern.procs(), params_};
  trace.reserve(2 * pattern.size());
  run_into(pattern, ready, msg_ready, trace, scratch);
  return trace;
}

// Determinism contract: this produces the exact op sequence, times and rng
// stream of the original Figure-2 loop.  Each iteration gathers ALL
// processors tied at the minimum ctime in ascending processor order and
// draws rng.below(count) over the live members -- the same draw, on the
// same collection order, as the historical full scan (below(1) consumes no
// randomness, also as before).  The Fenwick tie group only changes HOW the
// k-th tied processor is found, never which one: the group can only
// shrink, and the one processor whose ctime moves rejoins it exactly when
// its new ctime still equals the group time -- the same test the heap
// performed by re-popping.  tests/golden_trace_test.cpp holds hashes
// pinned from the pre-rewrite implementation.
template <CommSink Sink>
void CommSimulator::run_into(const pattern::CommPattern& pattern,
                             const std::vector<Time>& ready,
                             const std::vector<Time>& msg_ready, Sink& sink,
                             CommSimScratch& s) const {
  assert(pattern.valid());
  assert(msg_ready.empty() || msg_ready.size() == pattern.size());
  const auto n = static_cast<std::size_t>(pattern.procs());
  assert(ready.size() == n);

  s.prepare(pattern, ready);
  // Topology delays are evaluated once per run; the flat path leaves the
  // vector empty so the per-send addition below never executes (bit-
  // identity with the pre-NetworkModel hot path).
  s.net_delay.clear();
  if (opts_.net != nullptr && !opts_.net->is_flat()) {
    opts_.net->step_delays(pattern, params_, /*worst_case=*/false,
                           s.net_delay);
  }
  const bool has_net_delay = !s.net_delay.empty();
  util::Rng rng{opts_.seed};
  const auto& msgs = pattern.messages();
  // Sequencing floor increments (Figure-1 gap rules + single-port
  // occupancy); identical for both possible next-op kinds, which is what
  // lets one flat floor_next[] array replace the per-processor timeline
  // objects.  After a receive: max(o, g).  After a send of k bytes:
  // max(g, o + (k-1)G) -- bytes-dependent, computed per commit.
  const Time after_recv = max(params_.o, params_.g);

  auto wants_to_send = [&](std::size_t p) {
    return s.send_off[p] + s.send_cursor[p] < s.send_off[p + 1];
  };

  // Commits the next operation of `proc` (Figure 2 inner step): choose
  // between its next program-order send and its earliest pending receive
  // by start time, emit the op, advance ctime and the sequencing floor.
  auto commit_one = [&](std::size_t proc) {
    // Candidate receive: the earliest-arriving in-flight message, if any.
    Time start_recv = Time::infinity();
    if (!s.inbox_empty(proc)) {
      start_recv = max(s.floor_next[proc], s.inbox_top(proc).arrival);
    }
    // Candidate send: the next message in program order, no earlier than
    // its own production time when per-message readiness is supplied.
    const std::uint32_t msg_index =
        s.send_flat[s.send_off[proc] + s.send_cursor[proc]];
    const auto& msg = msgs[msg_index];
    Time start_send = s.floor_next[proc];
    if (!msg_ready.empty()) start_send = max(start_send, msg_ready[msg_index]);

    const bool do_send = opts_.send_priority ? start_send <= start_recv
                                             : start_send < start_recv;
    OpRecord op;
    op.proc = static_cast<ProcId>(proc);
    if (do_send) {
      // SEND: with the default strict '<', receives win ties (Split-C
      // active-message semantics, the paper's assumption).
      op.kind = loggp::OpKind::kSend;
      op.start = start_send;
      op.cpu_end = start_send + params_.o;
      op.port_end = start_send + loggp::send_occupancy(msg.bytes, params_);
      op.peer = msg.dst;
      op.bytes = msg.bytes;
      op.msg_index = msg_index;
      ++s.send_cursor[proc];
      Time arrival = loggp::arrival_time(start_send, msg.bytes, params_);
      if (has_net_delay) arrival += s.net_delay[msg_index];
      if (opts_.extra_latency) arrival += opts_.extra_latency(msg_index);
      s.inbox_push(static_cast<std::size_t>(msg.dst), arrival, msg_index);
      s.floor_next[proc] = max(start_send + params_.g, op.port_end);
    } else {
      // RECEIVE the earliest pending message.
      const auto entry = s.inbox_pop(proc);
      const auto& rm = msgs[entry.msg];
      op.kind = loggp::OpKind::kRecv;
      op.start = start_recv;
      op.cpu_end = start_recv + params_.o;
      op.port_end = op.cpu_end;
      op.peer = rm.src;
      op.bytes = rm.bytes;
      op.msg_index = entry.msg;
      s.floor_next[proc] = start_recv + after_recv;
    }
    s.ctime[proc] = op.cpu_end;
    sink.record(op);
  };

  // Seed the candidate heap: one live entry per processor with sends.
  for (std::size_t p = 0; p < n; ++p) {
    if (wants_to_send(p)) {
      heap_push(s.heap, MinEntry{s.ctime[p], static_cast<std::uint32_t>(p)});
    }
  }

  // --- main loop: as printed in the paper's Figure 2 --------------------
  while (!s.heap.empty()) {
    // min_proc = processor with minimum ctime among those wanting to send;
    // several minima are resolved by a reproducible random choice.
    const Time group_time = s.heap.front().ctime;
    s.minima.clear();
    while (!s.heap.empty() && s.heap.front().ctime == group_time) {
      s.minima.push_back(heap_pop(s.heap).proc);
    }

    if (s.minima.size() == 1) {
      // Dense-vs-sparse heuristic, sparse side: a unique minimum skips the
      // group machinery entirely (below(1) would consume no randomness).
      const auto proc = static_cast<std::size_t>(s.minima[0]);
      commit_one(proc);
      if (wants_to_send(proc)) {
        heap_push(s.heap,
                  MinEntry{s.ctime[proc], static_cast<std::uint32_t>(proc)});
      }
      continue;
    }

    // Dense side: a tie group.  Members stay in `minima` (ascending proc
    // order); the Fenwick tree tracks who is still live.  Nobody can join
    // a group at its time from outside -- every heap entry is strictly
    // later -- so draining the group here is exactly the sequence of
    // rounds the original loop performed.
    const std::size_t t = s.minima.size();
    fenwick_build_ones(s.fenwick, t);
    std::size_t live = t;
    while (live > 0) {
      const std::uint64_t k = rng.below(static_cast<std::uint64_t>(live));
      const std::size_t idx = fenwick_select(s.fenwick, t, k + 1);
      const auto proc = static_cast<std::size_t>(s.minima[idx]);
      fenwick_add(s.fenwick, t, idx + 1, -1);
      --live;
      commit_one(proc);
      if (wants_to_send(proc)) {
        if (s.ctime[proc] == group_time) {
          // Zero-width op (o == 0 edge): the processor is tied again and
          // re-enters the draw, as it would by re-popping from the heap.
          fenwick_add(s.fenwick, t, idx + 1, +1);
          ++live;
        } else {
          heap_push(s.heap,
                    MinEntry{s.ctime[proc], static_cast<std::uint32_t>(proc)});
        }
      }
    }
  }

  // --- drain loop: all sends done; processors absorb remaining receives.
  for (std::size_t p = 0; p < n; ++p) {
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
    }
  }
}

// Dense ordered-ties mode.  Structure mirrors run_into exactly -- same
// candidate computation, same floor updates, same final drain -- but the
// processor with minimum ctime is found by scanning the flat array and
// ties commit in ascending processor order, round by round.  For
// uniform-byte patterns (the only ones callers may pass) the finish
// times, op count and send count this produces are provably identical to
// any rng tie-break outcome; GoldenTrace.DenseScan* pins that against the
// scalar hashes.
bool CommSimulator::run_dense_into(const pattern::CommPattern& pattern,
                                   const std::vector<Time>& ready,
                                   FinishOnlySink& sink,
                                   CommSimScratch& s) const {
  assert(pattern.valid());
  if (opts_.net != nullptr && !opts_.net->is_flat()) {
    return false;  // topology delays break the relabel-invariance argument
  }
  const auto n = static_cast<std::size_t>(pattern.procs());
  assert(ready.size() == n);

  s.prepare(pattern, ready);
  const auto& msgs = pattern.messages();
  const Time after_recv = max(params_.o, params_.g);
  const Time inf = Time::infinity();

  auto wants_to_send = [&](std::size_t p) {
    return s.send_off[p] + s.send_cursor[p] < s.send_off[p + 1];
  };

  // Same commit step as the scalar loop, minus the msg_ready /
  // extra_latency / send_priority hooks (structurally absent on this
  // path) and templated-sink indirection.
  auto commit_one = [&](std::size_t proc) {
    Time start_recv = inf;
    if (!s.inbox_empty(proc)) {
      start_recv = max(s.floor_next[proc], s.inbox_top(proc).arrival);
    }
    const std::uint32_t msg_index =
        s.send_flat[s.send_off[proc] + s.send_cursor[proc]];
    const auto& msg = msgs[msg_index];
    const Time start_send = s.floor_next[proc];

    OpRecord op;
    op.proc = static_cast<ProcId>(proc);
    if (start_send < start_recv) {
      op.kind = loggp::OpKind::kSend;
      op.start = start_send;
      op.cpu_end = start_send + params_.o;
      op.port_end = start_send + loggp::send_occupancy(msg.bytes, params_);
      op.peer = msg.dst;
      op.bytes = msg.bytes;
      op.msg_index = msg_index;
      ++s.send_cursor[proc];
      const Time arrival = loggp::arrival_time(start_send, msg.bytes, params_);
      s.inbox_push(static_cast<std::size_t>(msg.dst), arrival, msg_index);
      s.floor_next[proc] = max(start_send + params_.g, op.port_end);
    } else {
      const auto entry = s.inbox_pop(proc);
      const auto& rm = msgs[entry.msg];
      op.kind = loggp::OpKind::kRecv;
      op.start = start_recv;
      op.cpu_end = start_recv + params_.o;
      op.port_end = op.cpu_end;
      op.peer = rm.src;
      op.bytes = rm.bytes;
      op.msg_index = entry.msg;
      s.floor_next[proc] = start_recv + after_recv;
    }
    s.ctime[proc] = op.cpu_end;
    sink.record(op);
  };

  // Processors without pending sends leave the scan entirely (ctime
  // +inf): exactly the set the scalar loop keeps out of its heap.
  std::size_t senders_left = 0;
  for (std::size_t p = 0; p < n; ++p) {
    if (wants_to_send(p)) {
      ++senders_left;
    } else {
      s.ctime[p] = inf;
    }
  }

  // Density budget: every round costs O(P) in scans, so a pattern that
  // serializes (ops per distinct ctime ~ 1) must bail to the heap path
  // before the scans dominate.  16 ops of scan slack per processor keeps
  // genuine lockstep patterns (rings, halos, butterflies: tens of
  // rounds) far inside the budget.
  const std::size_t total_ops = 2 * s.network_messages();
  const std::size_t max_rounds = 64 + 16 * total_ops / (n == 0 ? 1 : n);
  std::size_t rounds = 0;

  while (senders_left > 0) {
    if (++rounds > max_rounds) return false;
    // Pass 1: the global minimum ctime (a branch-light sweep the compiler
    // vectorizes; every live value is finite, so `t` ends finite).
    Time t = inf;
    for (std::size_t p = 0; p < n; ++p) {
      if (s.ctime[p] < t) t = s.ctime[p];
    }
    // Pass 2: commit every processor tied at t, ascending.  A commit can
    // re-tie its own processor at t (zero-width ops when o == 0), which
    // the revisit sweep picks up -- the analogue of the Fenwick revive.
    bool again = true;
    while (again) {
      again = false;
      for (std::size_t p = 0; p < n; ++p) {
        if (s.ctime[p] != t) continue;
        commit_one(p);
        if (!wants_to_send(p)) {
          s.ctime[p] = inf;
          --senders_left;
        } else if (s.ctime[p] == t) {
          again = true;
        }
      }
    }
  }

  // Final drain, identical to the scalar path: all sends are committed,
  // every processor absorbs its remaining receives in arrival order.
  for (std::size_t p = 0; p < n; ++p) {
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
    }
  }
  return true;
}

template void CommSimulator::run_into<CommTrace>(
    const pattern::CommPattern&, const std::vector<Time>&,
    const std::vector<Time>&, CommTrace&, CommSimScratch&) const;
template void CommSimulator::run_into<FinishOnlySink>(
    const pattern::CommPattern&, const std::vector<Time>&,
    const std::vector<Time>&, FinishOnlySink&, CommSimScratch&) const;

}  // namespace logsim::core
