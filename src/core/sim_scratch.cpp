#include "core/sim_scratch.hpp"

#include <algorithm>
#include <cassert>

namespace logsim::core {

void CommSimScratch::prepare(const pattern::CommPattern& pattern,
                             const std::vector<Time>& ready_times) {
  // The flat arrays index processors and messages with 32 bits; refuse
  // (loudly, in every build type) any pattern that cannot.
  const std::int64_t procs64 = pattern.procs();
  if (procs64 > 0) {
    (void)checked_index32(procs64 - 1, kMaxSimProcs, "processor id");
  }
  const auto& msgs = pattern.messages();
  if (!msgs.empty()) {
    (void)checked_index32(static_cast<std::int64_t>(msgs.size()) - 1,
                          std::int64_t{1} << 32, "message index");
  }

  const auto n = static_cast<std::size_t>(pattern.procs());
  assert(ready_times.size() == n);

  // Grow-only sizing: capacity reached once is never released, so a
  // warmed-up scratch performs no allocation here.
  auto grow = [](auto& v, std::size_t m) {
    if (v.size() < m) v.resize(m);
  };
  grow(ready, n);
  grow(ctime, n);
  grow(floor_next, n);
  grow(send_cursor, n);
  grow(send_off, n + 1);
  grow(recv_count, n);
  grow(inbox_off, n + 1);
  grow(inbox_size, n);
  grow(inbox_seq, n);
  grow(received, n);

  // Per-run resets are straight flat fills over the SoA arrays -- no
  // per-processor object construction, trivially vectorizable.
  std::copy_n(ready_times.begin(), n, ready.begin());
  std::copy_n(ready_times.begin(), n, ctime.begin());
  std::copy_n(ready_times.begin(), n, floor_next.begin());
  std::fill_n(send_cursor.begin(), n, 0u);
  std::fill_n(send_off.begin(), n + 1, 0u);
  std::fill_n(recv_count.begin(), n, 0u);
  std::fill_n(inbox_size.begin(), n, 0u);
  std::fill_n(inbox_seq.begin(), n, 0u);
  std::fill_n(received.begin(), n, 0u);

  // CSR build, two passes: count per endpoint, prefix-sum into offsets,
  // then place message indices in insertion order (send_cursor doubles as
  // the per-source write cursor and is re-zeroed afterwards).
  std::size_t network = 0;
  for (const auto& m : msgs) {
    if (m.src == m.dst) continue;
    ++send_off[static_cast<std::size_t>(m.src)];
    ++recv_count[static_cast<std::size_t>(m.dst)];
    ++network;
  }
  std::uint32_t acc = 0;
  std::uint32_t inbox_acc = 0;
  for (std::size_t p = 0; p < n; ++p) {
    const std::uint32_t c = send_off[p];
    send_off[p] = acc;
    acc += c;
    inbox_off[p] = inbox_acc;
    inbox_acc += recv_count[p];
  }
  send_off[n] = acc;
  inbox_off[n] = inbox_acc;
  // Exact-size resize (network_messages() reads send_flat.size()); shrink
  // keeps capacity, so this never allocates once warmed up either.
  send_flat.resize(network);
  inbox_slot.resize(network);
  for (std::size_t i = 0; i < msgs.size(); ++i) {
    const auto& m = msgs[i];
    if (m.src == m.dst) continue;
    const auto s = static_cast<std::size_t>(m.src);
    send_flat[send_off[s] + send_cursor[s]++] = static_cast<std::uint32_t>(i);
  }
  std::fill_n(send_cursor.begin(), n, 0u);

  heap.clear();
  minima.clear();
  senders.clear();
  drains.clear();
}

}  // namespace logsim::core
