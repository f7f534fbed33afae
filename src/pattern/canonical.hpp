#pragma once
// Relabel-invariant canonical form of a communication pattern.
//
// The machine model is homogeneous: LogGP charges every processor the same
// o/g/G, so the simulated finish times of a communication step depend only
// on the *shape* of the pattern and the participants' ready times, not on
// which physical processor ids carry the messages.  Blocked GE exploits
// none of that today -- its per-iteration pivot broadcast is the same
// pattern rotated by one processor, re-simulated from scratch every time.
//
// Canonicalization assigns participants dense ids in order of first
// appearance in the network-message list (senders before receivers, list
// order).  Two patterns that are processor relabelings of each other --
// with messages emitted in the same structural order, which is how every
// generator in this repo produces shifted copies -- map to the identical
// canonical form, and the permutation that maps canonical ids back to the
// original processors is recorded so cached results can be translated.
//
// Tags are dropped (the LogGP simulators ignore them) and self-messages
// are dropped (the simulators skip them).  The canonical form's processor
// count is the number of participants.
//
// IMPORTANT -- the uniform-bytes gate.  The standard (Fig-2) simulator's
// committed times are relabel-equivariant and seed-independent iff every
// network message in the step carries the SAME byte count.  With mixed
// sizes, a relabeling can reorder the (ctime, proc) tie groups so that a
// small message's arrival undercuts a larger send's gap floor on a tied
// processor, changing send-vs-receive choices and therefore times (we
// verified this empirically: 0 violations over ~1500 uniform random
// patterns, dozens over mixed ones).  CanonicalPattern::uniform_bytes
// records which regime a pattern is in; callers must restrict
// relabel-sharing (and seed-dropping) to uniform patterns under the
// standard simulator, and fall back to exact keys otherwise.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "pattern/comm_pattern.hpp"
#include "util/types.hpp"

namespace logsim::pattern {

/// A materialized canonical form, shared between all pattern instances
/// that are relabelings of one another (see PatternInterner).
struct CanonicalPattern {
  CanonicalPattern() : form(1) {}
  CanonicalPattern(CommPattern f, std::uint64_t h, bool uniform)
      : form(std::move(f)), hash(h), uniform_bytes(uniform) {}

  /// Network messages only, endpoints relabeled to first-appearance order,
  /// tags zeroed; procs() == number of participants.
  CommPattern form;
  /// Equals form.hash() -- precomputed so interner and cache lookups never
  /// re-walk the messages.
  std::uint64_t hash = 0;
  /// Every network message carries the same byte count (see file comment).
  bool uniform_bytes = true;
};

/// Streaming canonicalizer with reusable scratch: analyze() computes the
/// relabeling, canonical hash and uniformity flag of a pattern without
/// materializing anything, so a warmed instance performs zero allocations
/// and O(messages) work per call -- fit for the simulator hot path.
class Canonicalizer {
 public:
  /// Analyzes `p`; returns the number of participating processors
  /// (0 if the pattern has no network messages).
  int analyze(const CommPattern& p);

  /// Hash of the canonical form (== materialize(p).form.hash()).
  [[nodiscard]] std::uint64_t hash() const { return hash_; }
  [[nodiscard]] bool uniform_bytes() const { return uniform_; }
  [[nodiscard]] int participants() const {
    return static_cast<int>(from_canonical_.size());
  }
  [[nodiscard]] std::size_t network_messages() const { return net_msgs_; }

  /// Original proc -> canonical id (kNoProc for non-participants).
  /// Valid until the next analyze(); sized to the analyzed procs().
  [[nodiscard]] const std::vector<ProcId>& to_canonical() const {
    return to_canonical_;
  }
  /// Canonical id -> original proc; sized to participants().
  [[nodiscard]] const std::vector<ProcId>& from_canonical() const {
    return from_canonical_;
  }

  /// Materializes the canonical form of the last analyzed pattern
  /// (allocates; `p` must be the pattern passed to the last analyze()).
  [[nodiscard]] CanonicalPattern materialize(const CommPattern& p) const;

 private:
  std::vector<ProcId> to_canonical_;
  std::vector<ProcId> from_canonical_;
  std::uint64_t hash_ = 0;
  bool uniform_ = true;
  std::size_t net_msgs_ = 0;
};

/// True iff `p`'s canonical form (under the relabeling `to_canonical`,
/// as produced by Canonicalizer::analyze(p)) equals `form` -- a streaming
/// comparison that materializes nothing.  This is the collision-verify
/// primitive of the comm-step cache.
[[nodiscard]] bool canonical_equals(const CommPattern& p,
                                    const std::vector<ProcId>& to_canonical,
                                    const CommPattern& form);

/// Thread-safe intern pool of canonical forms.  Generators that emit many
/// shifted copies of one pattern (blocked GE's rotating pivot broadcast,
/// ring collectives, stencil halos) funnel them through intern() and every
/// copy ends up pointing at a single shared CanonicalPattern instance --
/// so the comm-step cache can key and verify entries without copying
/// pattern storage per entry.
class PatternInterner {
 public:
  /// Returns the shared canonical form of `p` (creating it on first sight).
  /// Returns nullptr for patterns with no network messages.
  [[nodiscard]] std::shared_ptr<const CanonicalPattern> intern(
      const CommPattern& p);

  /// Same, but reuses a caller-side analysis of `p` (`pre` must be the
  /// Canonicalizer that last analyzed `p`), so callers that also want the
  /// relabeling maps analyze exactly once.
  [[nodiscard]] std::shared_ptr<const CanonicalPattern> intern(
      const CommPattern& p, const Canonicalizer& pre);

  /// Number of distinct canonical forms interned so far.
  [[nodiscard]] std::size_t size() const;

  /// Process-wide default pool, shared by the program generators.
  [[nodiscard]] static PatternInterner& global();

 private:
  [[nodiscard]] std::shared_ptr<const CanonicalPattern> intern_locked(
      const CommPattern& p, const Canonicalizer& pre);

  mutable std::mutex mu_;
  std::unordered_map<std::uint64_t,
                     std::vector<std::shared_ptr<const CanonicalPattern>>>
      by_hash_;
  Canonicalizer canon_;  // guarded by mu_
};

}  // namespace logsim::pattern
