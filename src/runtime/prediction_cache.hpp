#pragma once
// Sharded memoization cache for predictions.
//
// Key: a 64-bit hash (util::Hasher) of the LogGP parameters, the seed
// (worst-case tie-breaking) and core::program_hash: the program's structure
// without touched ids, which the LogGP predictor never reads (DESIGN.md
// §7), and its cost table -- part of the answer, since two calibrations of
// one structure predict different times and the serving layer takes a
// table with every request.  The hash selects a shard; each shard holds an
// LRU list of entries guarded by its own mutex, so concurrent pool workers
// only contend when they land on the same shard.  Because 64 bits can
// collide, and programs differing only in touched ids share a key, every
// entry keeps its (program, costs, params) key and lookups verify with
// operator==, touched ids included -- either case is a miss, never a wrong
// answer.  The entry's program shares the caller's step list (StepProgram
// copies are O(1)), so an insert copies nothing program-sized.
//
// Eviction is by approximate byte footprint: each entry is charged for its
// whole program (steps, each compute step's item, end and id arrays,
// messages; counted in O(steps)), since it may end up as the step list's
// last owner, and its Prediction vectors; when the configured byte budget
// is exceeded the least-recently-used entries are dropped, oldest first.

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/predictor.hpp"
#include "core/step_program.hpp"
#include "loggp/params.hpp"

namespace logsim::runtime {

/// Hash of a whole prediction-cache key, the one BatchPredictor gives a
/// job.  Identical (program, costs, params, seed) tuples always hash equal;
/// logically equal inputs built by different code paths agree.
[[nodiscard]] std::uint64_t prediction_key_hash(const core::StepProgram& program,
                                                const core::CostTable& costs,
                                                const loggp::Params& params,
                                                std::uint64_t seed);
/// The same key from core::program_hash (a keyed compile's hash()).
[[nodiscard]] std::uint64_t prediction_key_hash(std::uint64_t program_hash,
                                                const loggp::Params& params,
                                                std::uint64_t seed);

class PredictionCache {
 public:
  struct Config {
    /// Number of independently locked shards (clamped to at least 1).
    std::size_t shards = 16;
    /// Total byte budget across shards; each shard gets an equal slice.
    /// Entries larger than a slice are not retained (counted in
    /// Stats::oversized).  The default (16 MiB per shard at 16 shards)
    /// holds every program of the paper's Fig-7 sweep (N = 960), the
    /// b = 10 one included: it is charged 12.7 MiB.
    std::size_t byte_budget = 256ull << 20;
  };

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
    std::uint64_t entries = 0;
    std::uint64_t bytes = 0;
    /// Inserts dropped because the entry alone exceeds a shard's budget.
    std::uint64_t oversized = 0;

    [[nodiscard]] double hit_rate() const {
      const auto total = hits + misses;
      return total == 0 ? 0.0 : static_cast<double>(hits) /
                                    static_cast<double>(total);
    }
  };

  PredictionCache() : PredictionCache(Config{}) {}
  explicit PredictionCache(Config config);

  /// Returns the cached prediction for an exactly-equal key, promoting the
  /// entry to most-recently-used; counts a hit or a miss.
  [[nodiscard]] std::optional<core::Prediction> lookup(
      const core::StepProgram& program, const core::CostTable& costs,
      const loggp::Params& params, std::uint64_t seed);

  /// Stores a prediction, keeping the key for collision verification.
  /// Re-inserting an existing key refreshes its LRU position; insertion may
  /// evict LRU entries to respect the byte budget.
  void insert(const core::StepProgram& program, const core::CostTable& costs,
              const loggp::Params& params, std::uint64_t seed,
              const core::Prediction& prediction);

  /// Hashed-key variants: hashing walks the whole program, so callers that
  /// look up and then insert on a miss should hash once (the hash MUST be
  /// prediction_key_hash of the same key; a stale hash corrupts nothing but
  /// wastes the entry).
  [[nodiscard]] std::optional<core::Prediction> lookup(
      std::uint64_t hash, const core::StepProgram& program,
      const core::CostTable& costs, const loggp::Params& params,
      std::uint64_t seed);
  void insert(std::uint64_t hash, const core::StepProgram& program,
              const core::CostTable& costs, const loggp::Params& params,
              std::uint64_t seed, const core::Prediction& prediction);

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
    core::StepProgram program;  // shares the caller's steps; verifies hits
    core::CostTable costs;      // ditto: calibration is part of the answer
    loggp::Params params;
    std::uint64_t seed = 0;
    core::Prediction prediction;
    std::size_t bytes = 0;
  };

  struct Shard {
    std::mutex mu;
    std::list<Entry> lru;  // front = most recently used
    // hash -> entries with that hash (usually one; collisions append).
    std::unordered_map<std::uint64_t, std::vector<std::list<Entry>::iterator>>
        index;
    std::size_t bytes = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
    std::uint64_t oversized = 0;
  };

  void evict_to_budget_locked(Shard& shard);
  static void unindex(Shard& shard, std::list<Entry>::iterator it);

  std::size_t per_shard_budget_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

/// Approximate heap footprint of one cached entry, used for the budget.
[[nodiscard]] std::size_t prediction_entry_bytes(
    const core::StepProgram& program, const core::Prediction& prediction);

}  // namespace logsim::runtime
