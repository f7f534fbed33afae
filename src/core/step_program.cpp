#include "core/step_program.hpp"

#include <atomic>

#include "pattern/canonical.hpp"

namespace logsim::core {

std::shared_ptr<std::vector<StepProgram::Step>> StepProgram::empty_steps() {
  // Shared by every empty program, so it is never the sole owner's list and
  // mutable_steps() always clones it before a first add.
  static const auto empty = std::make_shared<std::vector<Step>>();
  return empty;
}

std::vector<StepProgram::Step>& StepProgram::mutable_steps() {
  if (steps_.use_count() == 1) {
    // Pairs with the release in a former co-owner's shared_ptr decrement,
    // so its reads of the list happen before our writes.
    std::atomic_thread_fence(std::memory_order_acquire);
  } else {
    steps_ = std::make_shared<std::vector<Step>>(*steps_);
  }
  return *steps_;
}

std::size_t StepProgram::compute_step_count() const {
  std::size_t n = 0;
  for (const auto& s : *steps_) n += std::holds_alternative<ComputeStep>(s) ? 1 : 0;
  return n;
}

std::size_t StepProgram::comm_step_count() const {
  return size() - compute_step_count();
}

std::size_t StepProgram::work_item_count() const {
  std::size_t n = 0;
  for (const auto& s : *steps_) {
    if (const auto* c = std::get_if<ComputeStep>(&s)) n += c->items.size();
  }
  return n;
}

std::size_t StepProgram::message_count() const {
  std::size_t n = 0;
  for (const auto& s : *steps_) {
    if (const auto* c = std::get_if<CommStep>(&s)) n += c->pattern.size();
  }
  return n;
}

Bytes StepProgram::network_bytes() const {
  Bytes total{0};
  for (const auto& s : *steps_) {
    if (const auto* c = std::get_if<CommStep>(&s)) {
      total += c->pattern.network_bytes();
    }
  }
  return total;
}

void StepProgram::intern_patterns(pattern::PatternInterner& interner) {
  pattern::Canonicalizer canon;
  for (std::size_t i = 0; i < size(); ++i) {
    const auto* c = std::get_if<CommStep>(&step(i));
    if (c == nullptr || c->canon != nullptr) continue;
    if (canon.analyze(c->pattern) == 0) continue;
    auto shared = interner.intern(c->pattern, canon);
    if (shared == nullptr) continue;
    auto& out = std::get<CommStep>(mutable_steps()[i]);
    out.canon = std::move(shared);
    out.from_canonical = canon.from_canonical();
  }
}

}  // namespace logsim::core
