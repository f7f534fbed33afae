#pragma once
// The restricted program class the paper targets (Section 2): oblivious
// algorithms whose communication and computation steps alternate and never
// overlap, working on equal-sized basic blocks via a finite set of basic
// operations.  A StepProgram is the simulator-facing encoding of one such
// program: an ordered list of ComputeStep / CommStep entries.  A compute
// step stores its work items' touched block ids end to end in one array,
// so a work item is three ints and a step holds three heap blocks however
// many items it has.

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>
#include <utility>
#include <variant>
#include <vector>

#include "core/cost_table.hpp"
#include "pattern/comm_pattern.hpp"
#include "util/types.hpp"

namespace logsim::pattern {
struct CanonicalPattern;
class PatternInterner;
}  // namespace logsim::pattern

namespace logsim::core {

/// One basic-operation invocation on one processor.  The blocks it touches
/// live in its ComputeStep (ComputeStep::touched).
struct WorkItem {
  ProcId proc = kNoProc;
  OpId op = 0;
  int block_size = 1;

  friend bool operator==(const WorkItem&, const WorkItem&) = default;
};

struct ComputeStep {
  std::vector<WorkItem> items;
  /// ids[ends[i - 1], ends[i]) are the blocks item i touches, in access
  /// order (from 0 for item 0).  Ignored by the plain LogGP predictor;
  /// consumed by the cache model extension, the Testbed machine and the
  /// dependence analyses.  Filled only by add(), so equal steps have equal
  /// arrays; compile() refuses a step whose ends do not cover ids exactly
  /// (so also one past 2^32 ids, whose ends wrap).
  std::vector<std::uint32_t> ends;
  std::vector<std::int64_t> ids;

  void add(const WorkItem& item, std::span<const std::int64_t> touched) {
    items.push_back(item);
    ids.insert(ids.end(), touched.begin(), touched.end());
    ends.push_back(static_cast<std::uint32_t>(ids.size()));
  }
  void add(const WorkItem& item,
           std::initializer_list<std::int64_t> touched = {}) {
    add(item, std::span{touched.begin(), touched.size()});
  }
  [[nodiscard]] std::span<const std::int64_t> touched(std::size_t i) const {
    return {ids.data() + (i == 0 ? 0 : ends[i - 1]), ids.data() + ends[i]};
  }

  friend bool operator==(const ComputeStep&, const ComputeStep&) = default;
};

struct CommStep {
  pattern::CommPattern pattern;
  /// Shared canonical form, populated by StepProgram::intern_patterns().
  /// Pure acceleration state (lets the comm-step cache share one canonical
  /// instance across shifted copies of the pattern); carries no semantic
  /// content, so it is excluded from equality.
  std::shared_ptr<const pattern::CanonicalPattern> canon;
  /// Canonical id -> original proc, recorded at intern time (empty when
  /// canon is null).  Steps are immutable once added to a StepProgram, so
  /// the simulator can trust it and `canon` instead of re-canonicalizing
  /// the pattern on every run.  Sized to the participants, never to
  /// procs(), so an interned step stays O(its messages).
  std::vector<ProcId> from_canonical;

  friend bool operator==(const CommStep& a, const CommStep& b) {
    return a.pattern == b.pattern;
  }
};

/// Copying a StepProgram is O(1): copies share one immutable step list,
/// and a mutation clones it first when it is shared (copy-on-write).  So a
/// cache entry holds the caller's program, never a deep copy.
class StepProgram {
 public:
  using Step = std::variant<ComputeStep, CommStep>;

  explicit StepProgram(int procs) : procs_(procs), steps_(empty_steps()) {}
  StepProgram(const StepProgram&) = default;
  StepProgram& operator=(const StepProgram&) = default;
  /// A moved-from program is a valid empty one (size() == 0).
  StepProgram(StepProgram&& other) noexcept
      : procs_(other.procs_), steps_(std::exchange(other.steps_, empty_steps())) {}
  StepProgram& operator=(StepProgram&& other) noexcept {
    procs_ = other.procs_;
    steps_ = std::exchange(other.steps_, empty_steps());
    return *this;
  }

  void add_compute(ComputeStep step) {
    mutable_steps().emplace_back(std::move(step));
  }
  void add_comm(CommStep step) { mutable_steps().emplace_back(std::move(step)); }
  void add_comm(pattern::CommPattern pattern) {
    add_comm(CommStep{std::move(pattern), nullptr, {}});
  }

  [[nodiscard]] int procs() const { return procs_; }
  [[nodiscard]] std::size_t size() const { return steps_->size(); }
  [[nodiscard]] const Step& step(std::size_t i) const { return (*steps_)[i]; }

  [[nodiscard]] std::size_t compute_step_count() const;
  [[nodiscard]] std::size_t comm_step_count() const;
  /// Total basic-operation invocations across all compute steps.
  [[nodiscard]] std::size_t work_item_count() const;
  /// Total messages (network + self) across all comm steps.
  [[nodiscard]] std::size_t message_count() const;
  /// Total bytes crossing the network across all comm steps.
  [[nodiscard]] Bytes network_bytes() const;

  /// Attaches a shared canonical form to every comm step that carries
  /// network messages (see pattern::PatternInterner): shifted copies of
  /// one pattern -- within this program or across programs interned in the
  /// same pool -- end up sharing a single CanonicalPattern instance, which
  /// the comm-step cache then reuses instead of copying pattern storage.
  /// Idempotent (clones shared steps only when one needs interning);
  /// called by the program generators at build time.
  void intern_patterns(pattern::PatternInterner& interner);

  /// Structural equality: same processor count and step-for-step identical
  /// contents, touched ids included (O(1) when both share one step list;
  /// a compute step compares three flat arrays).
  /// The prediction cache relies on this to tell true hits from 64-bit
  /// hash collisions and from programs its key does not tell apart
  /// (core::program_hash skips touched ids).
  friend bool operator==(const StepProgram& a, const StepProgram& b) {
    return a.procs_ == b.procs_ &&
           (a.steps_ == b.steps_ || *a.steps_ == *b.steps_);
  }

 private:
  static std::shared_ptr<std::vector<Step>> empty_steps();
  /// The step list, cloned first if another program shares it.
  std::vector<Step>& mutable_steps();

  int procs_;
  std::shared_ptr<std::vector<Step>> steps_;  // never null
};

}  // namespace logsim::core
