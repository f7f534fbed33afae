#include "pattern/comm_pattern.hpp"

#include <cassert>
#include <sstream>

#include "util/hash.hpp"

namespace logsim::pattern {

CommPattern::CommPattern(int procs) : procs_(procs) { assert(procs >= 1); }

void CommPattern::add(ProcId src, ProcId dst, Bytes bytes, std::int64_t tag) {
  messages_.push_back(Message{src, dst, bytes, tag});
}

std::size_t CommPattern::self_message_count() const {
  std::size_t n = 0;
  for (const auto& m : messages_) n += (m.src == m.dst) ? 1 : 0;
  return n;
}

Bytes CommPattern::network_bytes() const {
  Bytes total{0};
  for (const auto& m : messages_) {
    if (m.src != m.dst) total += m.bytes;
  }
  return total;
}

std::vector<std::vector<std::size_t>> CommPattern::send_lists() const {
  std::vector<std::vector<std::size_t>> lists;
  send_lists(lists);
  return lists;
}

std::vector<int> CommPattern::receive_counts() const {
  std::vector<int> counts;
  receive_counts(counts);
  return counts;
}

void CommPattern::send_lists(std::vector<std::vector<std::size_t>>& out) const {
  // Clear per-proc lists individually (resize + clear keeps every inner
  // vector's capacity; assign would discard them on shrink).
  if (out.size() > static_cast<std::size_t>(procs_)) {
    out.resize(static_cast<std::size_t>(procs_));
  }
  for (auto& list : out) list.clear();
  out.resize(static_cast<std::size_t>(procs_));
  for (std::size_t i = 0; i < messages_.size(); ++i) {
    const auto& m = messages_[i];
    if (m.src != m.dst) out[static_cast<std::size_t>(m.src)].push_back(i);
  }
}

void CommPattern::receive_counts(std::vector<int>& out) const {
  out.assign(static_cast<std::size_t>(procs_), 0);
  for (const auto& m : messages_) {
    if (m.src != m.dst) ++out[static_cast<std::size_t>(m.dst)];
  }
}

std::uint64_t CommPattern::hash() const {
  util::Hasher h;
  h.mix_i64(procs_);
  h.mix_u64(messages_.size());
  for (const auto& m : messages_) {
    h.mix_i64(m.src);
    h.mix_i64(m.dst);
    h.mix_u64(m.bytes.count());
    h.mix_i64(m.tag);
  }
  return h.digest();
}

bool CommPattern::valid() const {
  for (const auto& m : messages_) {
    if (m.src < 0 || m.src >= procs_ || m.dst < 0 || m.dst >= procs_) {
      return false;
    }
  }
  return true;
}

bool CommPattern::has_processor_cycle() const {
  // Kahn's algorithm on the deduplicated processor graph: a cycle exists
  // iff topological elimination leaves nodes behind.
  const auto n = static_cast<std::size_t>(procs_);
  std::vector<std::vector<bool>> adj(n, std::vector<bool>(n, false));
  std::vector<int> indeg(n, 0);
  for (const auto& m : messages_) {
    if (m.src == m.dst) continue;
    auto s = static_cast<std::size_t>(m.src);
    auto d = static_cast<std::size_t>(m.dst);
    if (!adj[s][d]) {
      adj[s][d] = true;
      ++indeg[d];
    }
  }
  std::vector<std::size_t> stack;
  for (std::size_t v = 0; v < n; ++v) {
    if (indeg[v] == 0) stack.push_back(v);
  }
  std::size_t removed = 0;
  while (!stack.empty()) {
    const std::size_t v = stack.back();
    stack.pop_back();
    ++removed;
    for (std::size_t w = 0; w < n; ++w) {
      if (adj[v][w] && --indeg[w] == 0) stack.push_back(w);
    }
  }
  return removed < n;
}

std::string CommPattern::to_dot(const std::string& name) const {
  std::ostringstream os;
  os << "digraph " << name << " {\n";
  for (int p = 0; p < procs_; ++p) {
    os << "  P" << p << ";\n";
  }
  for (const auto& m : messages_) {
    os << "  P" << m.src << " -> P" << m.dst << " [label=\"" << m.bytes.count()
       << "B\"];\n";
  }
  os << "}\n";
  return os.str();
}

}  // namespace logsim::pattern
