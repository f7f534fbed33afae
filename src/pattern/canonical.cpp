#include "pattern/canonical.hpp"

#include <algorithm>

#include "util/hash.hpp"

namespace logsim::pattern {

int Canonicalizer::analyze(const CommPattern& p) {
  // Clear only the ids the last analysis set: once the map is sized, a
  // call costs O(messages), not O(procs).
  for (const ProcId q : from_canonical_) {
    to_canonical_[static_cast<std::size_t>(q)] = kNoProc;
  }
  to_canonical_.resize(static_cast<std::size_t>(p.procs()), kNoProc);
  from_canonical_.clear();
  net_msgs_ = 0;
  uniform_ = true;

  // Pass 1: assign dense canonical ids in first-appearance order (sender
  // before receiver, message-list order) and detect mixed byte sizes.
  Bytes first_bytes{0};
  for (const auto& m : p.messages()) {
    if (m.src == m.dst) continue;
    if (net_msgs_ == 0) {
      first_bytes = m.bytes;
    } else if (m.bytes != first_bytes) {
      uniform_ = false;
    }
    ++net_msgs_;
    for (const ProcId endpoint : {m.src, m.dst}) {
      auto& id = to_canonical_[static_cast<std::size_t>(endpoint)];
      if (id == kNoProc) {
        id = static_cast<ProcId>(from_canonical_.size());
        from_canonical_.push_back(endpoint);
      }
    }
  }

  // Pass 2: hash the canonical form in exactly CommPattern::hash()'s
  // encoding (procs, size, then per-message src/dst/bytes/tag with tags
  // zeroed), so hash() == materialize(p).form.hash() by construction.
  util::Hasher h;
  h.mix_i64(static_cast<std::int64_t>(from_canonical_.size()));
  h.mix_u64(net_msgs_);
  for (const auto& m : p.messages()) {
    if (m.src == m.dst) continue;
    h.mix_i64(to_canonical_[static_cast<std::size_t>(m.src)]);
    h.mix_i64(to_canonical_[static_cast<std::size_t>(m.dst)]);
    h.mix_u64(m.bytes.count());
    h.mix_i64(0);  // tag, zeroed in the canonical form
  }
  hash_ = h.digest();
  return participants();
}

CanonicalPattern Canonicalizer::materialize(const CommPattern& p) const {
  CommPattern form{std::max(1, participants())};
  for (const auto& m : p.messages()) {
    if (m.src == m.dst) continue;
    form.add(to_canonical_[static_cast<std::size_t>(m.src)],
             to_canonical_[static_cast<std::size_t>(m.dst)], m.bytes,
             /*tag=*/0);
  }
  return CanonicalPattern{std::move(form), hash_, uniform_};
}

bool canonical_equals(const CommPattern& p,
                      const std::vector<ProcId>& to_canonical,
                      const CommPattern& form) {
  const auto& canon_msgs = form.messages();
  std::size_t k = 0;
  for (const auto& m : p.messages()) {
    if (m.src == m.dst) continue;
    if (k >= canon_msgs.size()) return false;
    const auto& cm = canon_msgs[k];
    if (to_canonical[static_cast<std::size_t>(m.src)] != cm.src ||
        to_canonical[static_cast<std::size_t>(m.dst)] != cm.dst ||
        m.bytes != cm.bytes) {
      return false;
    }
    ++k;
  }
  return k == canon_msgs.size();
}

std::shared_ptr<const CanonicalPattern> PatternInterner::intern(
    const CommPattern& p) {
  std::lock_guard lock{mu_};
  if (canon_.analyze(p) == 0) return nullptr;
  return intern_locked(p, canon_);
}

std::shared_ptr<const CanonicalPattern> PatternInterner::intern(
    const CommPattern& p, const Canonicalizer& pre) {
  if (pre.participants() == 0) return nullptr;
  std::lock_guard lock{mu_};
  return intern_locked(p, pre);
}

std::shared_ptr<const CanonicalPattern> PatternInterner::intern_locked(
    const CommPattern& p, const Canonicalizer& pre) {
  auto& bucket = by_hash_[pre.hash()];
  for (const auto& candidate : bucket) {
    if (candidate->form.procs() == pre.participants() &&
        canonical_equals(p, pre.to_canonical(), candidate->form)) {
      return candidate;
    }
  }
  bucket.push_back(
      std::make_shared<const CanonicalPattern>(pre.materialize(p)));
  return bucket.back();
}

std::size_t PatternInterner::size() const {
  std::lock_guard lock{mu_};
  std::size_t n = 0;
  for (const auto& [hash, bucket] : by_hash_) n += bucket.size();
  return n;
}

PatternInterner& PatternInterner::global() {
  static PatternInterner pool;
  return pool;
}

}  // namespace logsim::pattern
