#pragma once
// Sharded cross-job comm-step cache: the runtime implementation of
// core::StepCache, mirroring PredictionCache's design (hash-keyed
// shards, per-shard mutex + LRU list, byte-budget eviction, full-key
// verification on every candidate so a 64-bit collision is a miss, never
// a wrong answer).
//
// Shared by all BatchPredictor workers: a GE block-size sweep simulates
// each distinct canonical broadcast shape once across ALL jobs, and every
// other occurrence -- the same step later in the same program, the rotated
// copy in the next iteration, the identical step in a neighbouring sweep
// configuration -- replays the stored finish times.  Hits that arrive
// through a different processor labeling than the entry was inserted with
// are additionally counted as relabel_hits.
//
// Escape hatches: the benches, sweep drivers and CLI consult
// step_cache_env_enabled() (LOGSIM_STEP_CACHE=0 disables) and offer a
// --no-step-cache flag; core::ProgramSimOptions::step_cache == nullptr
// always bypasses the machinery entirely.

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/step_cache.hpp"
#include "loggp/params.hpp"
#include "pattern/canonical.hpp"
#include "util/types.hpp"

namespace logsim::runtime {

/// False iff the LOGSIM_STEP_CACHE environment variable is set to "0" --
/// the process-wide escape hatch honoured by benches, sweeps and the CLI.
[[nodiscard]] bool step_cache_env_enabled();

class SharedStepCache final : public core::StepCache {
 public:
  struct Config {
    /// Number of independently locked shards (clamped to at least 1).
    std::size_t shards = 16;
    /// Total byte budget across shards.  Step entries are small (a few
    /// Time vectors plus a shared canonical form), so 64 MiB holds the
    /// working set of sweeps far larger than the paper's.
    std::size_t byte_budget = 64ull << 20;
  };

  /// Config from the environment: LOGSIM_STEP_CACHE_SHARDS overrides the
  /// shard count, LOGSIM_STEP_CACHE_MB the byte budget in MiB.  Unset,
  /// empty or unparseable values keep the defaults above; zero is clamped
  /// to the minimum (1 shard / 1 MiB).  See core/step_cache.hpp for the
  /// full knob inventory.
  [[nodiscard]] static Config config_from_env();

  struct Stats {
    std::uint64_t hits = 0;
    /// Subset of hits served through a different processor labeling than
    /// the entry was inserted with (canonical sharing at work).
    std::uint64_t relabel_hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
    std::uint64_t entries = 0;
    std::uint64_t bytes = 0;
    /// Hits and insertions by step kind (DESIGN.md §10.2): standard steps
    /// shared across seeds and relabelings, exact-keyed standard steps
    /// (mixed byte sizes) and worst-case steps.
    struct Kind {
      std::uint64_t hits = 0;
      std::uint64_t insertions = 0;
    };
    Kind std_shared, std_exact, worst_case;

    [[nodiscard]] double hit_rate() const {
      const auto total = hits + misses;
      return total == 0 ? 0.0 : static_cast<double>(hits) /
                                    static_cast<double>(total);
    }
  };

  SharedStepCache() : SharedStepCache(Config{}) {}
  explicit SharedStepCache(Config config);

  [[nodiscard]] bool lookup(const core::CommStepQuery& query,
                            std::vector<Time>& finish,
                            std::size_t& ops) override;
  void insert(const core::CommStepQuery& query,
              const std::vector<Time>& finish) override;

  [[nodiscard]] Stats stats() const;
  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  /// Shard a key hash routes to (exposed so tests can force collisions).
  [[nodiscard]] std::size_t shard_of(std::uint64_t hash) const {
    return hash % shards_.size();
  }

  /// Drops all entries; counters are kept (they are cumulative).
  void clear();

 private:
  struct Entry {
    std::uint64_t hash = 0;
    std::shared_ptr<const pattern::CanonicalPattern> canon;
    std::vector<Time> ready;          // canonical order, bitwise key
    loggp::Params params;
    std::uint64_t seed = 0;           // key component iff exact
    std::vector<ProcId> origin_perm;  // from_canonical at insert time:
                                      // key component iff exact, relabel
                                      // detection otherwise
    bool worst_case = false;
    bool exact = false;
    std::vector<Time> finish;         // canonical order, absolute times
    std::size_t ops = 0;
    std::size_t bytes = 0;
  };

  struct Shard {
    mutable std::mutex mu;
    std::list<Entry> lru;  // front = most recently used
    std::unordered_map<std::uint64_t, std::vector<std::list<Entry>::iterator>>
        index;
    std::size_t bytes = 0;
    std::uint64_t hits = 0;
    std::uint64_t relabel_hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
    Stats::Kind std_shared, std_exact, worst_case;

    [[nodiscard]] Stats::Kind& kind(bool worst, bool exact) {
      return worst ? worst_case : exact ? std_exact : std_shared;
    }
  };

  [[nodiscard]] static bool matches(const Entry& entry,
                                    const core::CommStepQuery& query);
  void evict_to_budget_locked(Shard& shard);
  static void unindex(Shard& shard, std::list<Entry>::iterator it);

  std::size_t per_shard_budget_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace logsim::runtime
