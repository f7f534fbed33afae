#pragma once
// Reusable simulation state for the communication-simulator hot path,
// laid out as structure-of-arrays.
//
// Every buffer the Figure-2 and Section-4.2 algorithms need per run lives
// here as a flat array indexed by dense processor id: ready times, current
// CPU times, the per-processor sequencing floor, CSR send lists, and the
// arrival-ordered inboxes -- flattened into one CSR slab of per-destination
// binary heaps instead of the former vector-of-EventQueue (which at P = 1M
// meant a million separately allocated heaps).  All state is sized
// grow-only: capacity reached once is never released, so a warmed-up
// scratch runs an entire simulation without a single heap allocation, and
// the per-run reset loops are branch-light flat fills the compiler can
// vectorize.
//
// Indices are 32-bit on purpose (ProcIndex / message slots): at mega-scale
// the selection and inbox structures are memory-bound, and halving the
// index width halves the traffic.  prepare() checks the bounds through
// checked_index32 -- a pattern too large for 32-bit indexing aborts rather
// than silently aliasing processors.
//
// A scratch is plain mutable state with no invariants between runs: the
// simulators call prepare() at the start of every run, which rebuilds all
// per-pattern data.  Not safe for concurrent use; use one per thread.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "pattern/comm_pattern.hpp"
#include "util/types.hpp"

namespace logsim::core {

struct CommSimScratch {
  // --- per-processor SoA state (shared by both algorithms) --------------
  /// Initial ready time of each processor (copy of the caller's vector).
  std::vector<Time> ready;
  /// The paper's "ctime": CPU free after the last committed operation.
  std::vector<Time> ctime;
  /// Sequencing floor of the NEXT operation.  The Figure-1 gap rules give
  /// the same floor for a following send and a following receive (after a
  /// send: max(g, o+(k-1)G); after a receive: max(o, g)), so one array
  /// serves both candidate evaluations, branch-free.
  std::vector<Time> floor_next;
  std::vector<std::uint32_t> send_cursor;

  /// CSR send lists: processor p's network sends are the message indices
  /// send_flat[send_off[p] .. send_off[p+1]), in program (insertion)
  /// order -- the allocation-free equivalent of pattern.send_lists().
  std::vector<std::uint32_t> send_flat;
  std::vector<std::uint32_t> send_off;
  /// Network messages each processor must receive (== receive_counts()).
  std::vector<std::uint32_t> recv_count;

  // --- flat inboxes ------------------------------------------------------
  /// One in-flight message queued at its destination.  src and bytes are
  /// re-read from the pattern's message list on pop; the entry carries
  /// only what the ordering needs.
  struct InboxEntry {
    Time arrival;
    std::uint32_t seq;  ///< per-destination push counter (tie-break)
    std::uint32_t msg;  ///< index into pattern.messages()
  };
  /// CSR inbox slab: destination p's pending messages occupy
  /// inbox_slot[inbox_off[p] .. inbox_off[p] + inbox_size[p]), maintained
  /// as a binary min-heap on (arrival, seq) -- the exact pop order of the
  /// former des::EventQueue, without a million separate allocations.
  /// Capacity per destination is its exact receive count.
  std::vector<InboxEntry> inbox_slot;
  std::vector<std::uint32_t> inbox_off;
  std::vector<std::uint32_t> inbox_size;
  std::vector<std::uint32_t> inbox_seq;

  [[nodiscard]] bool inbox_empty(std::size_t p) const {
    return inbox_size[p] == 0;
  }
  [[nodiscard]] const InboxEntry& inbox_top(std::size_t p) const {
    return inbox_slot[inbox_off[p]];
  }
  void inbox_push(std::size_t dst, Time arrival, std::uint32_t msg) {
    InboxEntry* seg = inbox_slot.data() + inbox_off[dst];
    std::uint32_t i = inbox_size[dst]++;
    seg[i] = InboxEntry{arrival, inbox_seq[dst]++, msg};
    while (i > 0) {
      const std::uint32_t parent = (i - 1) / 2;
      if (!inbox_before(seg[i], seg[parent])) break;
      std::swap(seg[i], seg[parent]);
      i = parent;
    }
  }
  InboxEntry inbox_pop(std::size_t p) {
    InboxEntry* seg = inbox_slot.data() + inbox_off[p];
    const InboxEntry out = seg[0];
    const std::uint32_t n = --inbox_size[p];
    seg[0] = seg[n];
    std::uint32_t i = 0;
    while (true) {
      const std::uint32_t l = 2 * i + 1;
      const std::uint32_t r = 2 * i + 2;
      std::uint32_t best = i;
      if (l < n && inbox_before(seg[l], seg[best])) best = l;
      if (r < n && inbox_before(seg[r], seg[best])) best = r;
      if (best == i) break;
      std::swap(seg[i], seg[best]);
      i = best;
    }
    return out;
  }

  // --- standard algorithm (Figure 2) ------------------------------------
  /// Candidate for the min-ctime selection: exactly one live entry per
  /// processor that still wants to send.  Heap-ordered by (ctime, proc)
  /// so equal-ctime entries pop in ascending processor order -- the same
  /// order the original O(P) scan collected them in.
  struct MinEntry {
    Time ctime;
    std::uint32_t proc;
  };
  std::vector<MinEntry> heap;
  std::vector<std::uint32_t> minima;
  /// Fenwick (binary-indexed) tree (core/fenwick.hpp).  The standard
  /// algorithm keeps it over the current tie group: select-kth and remove
  /// in O(log t) instead of re-heaping the whole group every draw.  The
  /// worst-case algorithm keeps it over all processors, one bit per
  /// processor with pending sends, for its deadlock-break draw.
  std::vector<std::uint32_t> fenwick;

  // --- topology ----------------------------------------------------------
  /// Per-message extra delays from a non-flat NetworkModel, filled once
  /// per run by step_delays(); empty on the flat path (no per-message
  /// addition happens at all, preserving bit-identity).
  std::vector<Time> net_delay;

  // --- worst-case algorithm (Section 4.2) -------------------------------
  /// Receives performed so far per processor.
  std::vector<std::uint32_t> received;
  /// This round's senders, ascending: processors whose receives are all
  /// done and which still have sends.
  std::vector<std::uint32_t> senders;
  /// Destinations this round pushed to, each listed once (by the push
  /// that found its inbox empty); sorted before part 2 drains them.
  std::vector<std::uint32_t> drains;

  /// Rebuilds all per-pattern state for a fresh run: SoA arrays at their
  /// ready times, CSR send lists, empty inbox segments sized to the exact
  /// expected receive counts, cleared selection buffers.
  void prepare(const pattern::CommPattern& pattern,
               const std::vector<Time>& ready_times);

  /// Total network messages of the prepared pattern.
  [[nodiscard]] std::size_t network_messages() const {
    return send_flat.size();
  }

 private:
  [[nodiscard]] static bool inbox_before(const InboxEntry& a,
                                         const InboxEntry& b) {
    if (a.arrival != b.arrival) return a.arrival < b.arrival;
    return a.seq < b.seq;
  }
};

}  // namespace logsim::core
