#include "serve/registry.hpp"

#include <utility>

#include "core/program_sim.hpp"
#include "pattern/canonical.hpp"
#include "runtime/prediction_cache.hpp"

namespace logsim::serve {

std::size_t RegisteredProgram::MemoKeyHash::operator()(
    const MemoKey& key) const {
  // The prediction key with the program half fixed: one params encoding.
  return static_cast<std::size_t>(
      runtime::prediction_key_hash(0, key.params, key.seed));
}

std::optional<core::Prediction> RegisteredProgram::memo_lookup(
    const loggp::Params& params, std::uint64_t seed) const {
  const MemoKey key{params, seed};
  std::lock_guard lock{memo_mu_};
  if (const auto it = memo_.find(key); it != memo_.end()) return it->second;
  return std::nullopt;
}

void RegisteredProgram::memo_insert(const loggp::Params& params,
                                    std::uint64_t seed,
                                    const core::Prediction& prediction) const {
  const MemoKey key{params, seed};
  std::lock_guard lock{memo_mu_};
  if (memo_.size() >= memo_capacity_ && !memo_.contains(key)) {
    memo_.clear();
    ++memo_clears_;
  }
  memo_.insert_or_assign(key, prediction);
}

std::size_t RegisteredProgram::memo_size() const {
  std::lock_guard lock{memo_mu_};
  return memo_.size();
}

std::uint64_t RegisteredProgram::memo_clears() const {
  std::lock_guard lock{memo_mu_};
  return memo_clears_;
}

Result<std::shared_ptr<const RegisteredProgram>> ProgramRegistry::intern(
    const std::string& text, const network::TopologySpec& topology) {
  // Parse, hash and canonicalize OUTSIDE the lock: registration cost must
  // not stall the handle-resolution hot path sharing the mutex.
  Result<io::ProgramBundle> bundle = io::parse_program(text, config_.parse);
  if (!bundle.ok()) {
    return Status{bundle.status()}.with_context(
        "while parsing the program to register");
  }
  if (Status st = topology.validate(bundle->program.procs()); !st.ok()) {
    return st.with_context("while validating the topology to register");
  }
  // Content identity includes the topology: the same program registered
  // under two shapes must yield two handles (each entry's memo assumes a
  // fixed topology).
  const std::uint64_t content_key =
      core::program_hash(bundle->program, bundle->costs) ^
      topology.hash();

  std::unique_lock lock{mu_};
  ++registrations_;
  // Runs twice at most: only a program the registry will take is
  // canonicalized, and the checks are repeated after it because a
  // concurrent REGISTER may have added it or filled the registry meanwhile.
  for (bool canonicalized = false;; canonicalized = true) {
    if (const auto it = by_content_.find(content_key);
        it != by_content_.end()) {
      for (const std::uint64_t handle : it->second) {
        const auto& entry = by_handle_.at(handle);
        if (entry->program() == bundle->program &&
            entry->costs() == bundle->costs &&
            entry->topology() == topology) {
          ++dedup_hits_;
          return entry;
        }
      }
    }
    if (by_handle_.size() >= config_.max_programs) {
      return Status::transient(
          "program registry is full (" + std::to_string(config_.max_programs) +
          " programs); send the program inline or restart the daemon");
    }
    if (canonicalized) break;
    lock.unlock();
    // The one canonicalization handles promise, into a pool of this
    // program's own: its steps own the forms, which go with the program
    // instead of staying pinned in a process-wide pool.
    pattern::PatternInterner pool;
    bundle->program.intern_patterns(pool);
    lock.lock();
  }
  const std::uint64_t handle = next_handle_++;
  auto entry = std::make_shared<const RegisteredProgram>(
      handle, std::move(bundle).value(), config_.memo_entries_per_program,
      topology);
  by_handle_.emplace(handle, entry);
  by_content_[content_key].push_back(handle);
  return entry;
}

std::shared_ptr<const RegisteredProgram> ProgramRegistry::find(
    std::uint64_t handle) const {
  std::shared_lock lock{mu_};
  const auto it = by_handle_.find(handle);
  return it == by_handle_.end() ? nullptr : it->second;
}

ProgramRegistry::Stats ProgramRegistry::stats() const {
  std::shared_lock lock{mu_};
  Stats stats;
  stats.programs = by_handle_.size();
  stats.registrations = registrations_;
  stats.dedup_hits = dedup_hits_;
  return stats;
}

}  // namespace logsim::serve
