#include "runtime/prediction_cache.hpp"

#include "fault/failpoint.hpp"
#include "util/hash.hpp"

namespace logsim::runtime {

std::uint64_t prediction_key_hash(const core::StepProgram& program,
                                  const core::CostTable& costs,
                                  const loggp::Params& params,
                                  std::uint64_t seed) {
  return prediction_key_hash(core::program_hash(program, costs), params, seed);
}

std::uint64_t prediction_key_hash(std::uint64_t program_hash,
                                  const loggp::Params& params,
                                  std::uint64_t seed) {
  util::Hasher h;
  h.mix_double(params.L.us());
  h.mix_double(params.o.us());
  h.mix_double(params.g.us());
  h.mix_double(params.G);
  h.mix_i64(params.P);
  h.mix_u64(seed);
  h.mix_u64(program_hash);
  return h.digest();
}

std::size_t prediction_entry_bytes(const core::StepProgram& program,
                                   const core::Prediction& prediction) {
  std::size_t bytes = sizeof(core::StepProgram) + sizeof(core::Prediction);
  for (std::size_t i = 0; i < program.size(); ++i) {
    const auto& step = program.step(i);
    bytes += sizeof(step);
    if (const auto* comp = std::get_if<core::ComputeStep>(&step)) {
      bytes += comp->items.size() * sizeof(core::WorkItem) +
               comp->ends.size() * sizeof(std::uint32_t) +
               comp->ids.size() * sizeof(std::int64_t);
    } else {
      bytes += std::get<core::CommStep>(step).pattern.size() *
               sizeof(pattern::Message);
    }
  }
  for (const auto* result : {&prediction.standard, &prediction.worst_case}) {
    bytes += (result->proc_end.size() + result->comp.size() +
              result->comm.size()) *
             sizeof(Time);
  }
  return bytes;
}

PredictionCache::PredictionCache(Config config) {
  const std::size_t shard_count = config.shards == 0 ? 1 : config.shards;
  per_shard_budget_ = config.byte_budget / shard_count;
  shards_.reserve(shard_count);
  for (std::size_t i = 0; i < shard_count; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

std::optional<core::Prediction> PredictionCache::lookup(
    const core::StepProgram& program, const core::CostTable& costs,
    const loggp::Params& params, std::uint64_t seed) {
  return lookup(prediction_key_hash(program, costs, params, seed), program,
                costs, params, seed);
}

std::optional<core::Prediction> PredictionCache::lookup(
    std::uint64_t hash, const core::StepProgram& program,
    const core::CostTable& costs, const loggp::Params& params,
    std::uint64_t seed) {
  // An injected lookup failure degrades to a miss: the cache is an
  // optimization, so a flaky backing store must never fail a prediction.
  if (Status st = fault::failpoint("cache.lookup"); !st.ok()) {
    Shard& shard = *shards_[shard_of(hash)];
    std::lock_guard lock{shard.mu};
    ++shard.misses;
    return std::nullopt;
  }
  Shard& shard = *shards_[shard_of(hash)];
  std::lock_guard lock{shard.mu};
  if (auto it = shard.index.find(hash); it != shard.index.end()) {
    for (auto entry_it : it->second) {
      if (entry_it->seed == seed && entry_it->params == params &&
          entry_it->program == program && entry_it->costs == costs) {
        shard.lru.splice(shard.lru.begin(), shard.lru, entry_it);
        ++shard.hits;
        return entry_it->prediction;
      }
    }
  }
  ++shard.misses;
  return std::nullopt;
}

void PredictionCache::insert(const core::StepProgram& program,
                             const core::CostTable& costs,
                             const loggp::Params& params, std::uint64_t seed,
                             const core::Prediction& prediction) {
  insert(prediction_key_hash(program, costs, params, seed), program, costs,
         params, seed, prediction);
}

void PredictionCache::insert(std::uint64_t hash,
                             const core::StepProgram& program,
                             const core::CostTable& costs,
                             const loggp::Params& params, std::uint64_t seed,
                             const core::Prediction& prediction) {
  // An injected insert failure skips the store; correctness is unaffected,
  // the entry is simply recomputed next time.
  if (Status st = fault::failpoint("cache.insert"); !st.ok()) return;
  // O(program): charged before taking the shard lock.
  const std::size_t bytes = prediction_entry_bytes(program, prediction);
  Shard& shard = *shards_[shard_of(hash)];
  std::lock_guard lock{shard.mu};
  if (bytes > per_shard_budget_) {  // would evict everything
    ++shard.oversized;
    return;
  }
  if (auto it = shard.index.find(hash); it != shard.index.end()) {
    for (auto entry_it : it->second) {
      if (entry_it->seed == seed && entry_it->params == params &&
          entry_it->program == program && entry_it->costs == costs) {
        // Already cached (a racing worker got here first): refresh recency.
        shard.lru.splice(shard.lru.begin(), shard.lru, entry_it);
        return;
      }
    }
  }
  shard.lru.push_front(
      Entry{hash, program, costs, params, seed, prediction, bytes});
  shard.index[hash].push_back(shard.lru.begin());
  shard.bytes += bytes;
  ++shard.insertions;
  evict_to_budget_locked(shard);
}

void PredictionCache::evict_to_budget_locked(Shard& shard) {
  while (shard.bytes > per_shard_budget_ && !shard.lru.empty()) {
    auto victim = std::prev(shard.lru.end());
    shard.bytes -= victim->bytes;
    unindex(shard, victim);
    shard.lru.erase(victim);
    ++shard.evictions;
  }
}

void PredictionCache::unindex(Shard& shard, std::list<Entry>::iterator it) {
  auto bucket = shard.index.find(it->hash);
  auto& vec = bucket->second;
  std::erase(vec, it);
  if (vec.empty()) shard.index.erase(bucket);
}

PredictionCache::Stats PredictionCache::stats() const {
  Stats total;
  for (const auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::lock_guard lock{shard.mu};
    total.hits += shard.hits;
    total.misses += shard.misses;
    total.insertions += shard.insertions;
    total.evictions += shard.evictions;
    total.oversized += shard.oversized;
    total.entries += shard.lru.size();
    total.bytes += shard.bytes;
  }
  return total;
}

void PredictionCache::clear() {
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::lock_guard lock{shard.mu};
    shard.lru.clear();
    shard.index.clear();
    shard.bytes = 0;
  }
}

}  // namespace logsim::runtime
