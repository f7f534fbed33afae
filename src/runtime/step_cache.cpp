#include "runtime/step_cache.hpp"

#include <cstdlib>
#include <string_view>
#include <utility>

#include "fault/failpoint.hpp"
#include "obs/trace.hpp"

namespace logsim::runtime {

bool step_cache_env_enabled() {
  const char* v = std::getenv("LOGSIM_STEP_CACHE");
  return v == nullptr || std::string_view{v} != "0";
}

SharedStepCache::Config SharedStepCache::config_from_env() {
  Config config;
  // strtoull accepts the whole numeric prefix; a stray suffix or a fully
  // non-numeric value parses to 0 and falls back to the default -- env
  // knobs should degrade, not crash the process.
  if (const char* v = std::getenv("LOGSIM_STEP_CACHE_SHARDS")) {
    if (const auto n = std::strtoull(v, nullptr, 10); n > 0) {
      config.shards = static_cast<std::size_t>(n);
    }
  }
  if (const char* v = std::getenv("LOGSIM_STEP_CACHE_MB")) {
    if (const auto mb = std::strtoull(v, nullptr, 10); mb > 0) {
      config.byte_budget = static_cast<std::size_t>(mb) << 20;
    }
  }
  return config;
}

namespace {

std::size_t entry_bytes(const pattern::CanonicalPattern& canon,
                        std::size_t participants) {
  // Approximate footprint: the entry's own vectors plus the canonical
  // form's messages.  The form is shared between entries (that is the
  // interner's point), so charging it per entry overcounts -- the safe
  // direction for a budget.
  return 256 + participants * (2 * sizeof(Time) + sizeof(ProcId)) +
         canon.form.size() * sizeof(pattern::Message);
}

}  // namespace

SharedStepCache::SharedStepCache(Config config) {
  const std::size_t shard_count = config.shards == 0 ? 1 : config.shards;
  per_shard_budget_ = config.byte_budget / shard_count;
  shards_.reserve(shard_count);
  for (std::size_t i = 0; i < shard_count; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

bool SharedStepCache::matches(const Entry& entry,
                              const core::CommStepQuery& query) {
  if (entry.worst_case != query.worst_case || entry.exact != query.exact) {
    return false;
  }
  if (!(entry.params == *query.params)) return false;
  if (entry.ready != *query.ready) return false;
  if (entry.exact && (entry.seed != query.seed ||
                      entry.origin_perm != *query.from_canonical)) {
    return false;
  }
  // Same interned object on both sides proves pattern equivalence without
  // walking the messages: the interner only hands out a CanonicalPattern
  // after verifying canonical_equals against the pattern it was asked to
  // intern, so entry and query patterns are both relabelings of this form.
  if (query.canon != nullptr && entry.canon.get() == query.canon.get()) {
    return true;
  }
  if (query.to_canonical == nullptr) {
    return query.canon->form == entry.canon->form;  // another pool's form
  }
  return entry.canon->form.procs() ==
             static_cast<int>(query.from_canonical->size()) &&
         pattern::canonical_equals(*query.pattern, *query.to_canonical,
                                   entry.canon->form);
}

bool SharedStepCache::lookup(const core::CommStepQuery& query,
                             std::vector<Time>& finish, std::size_t& ops) {
  // An injected lookup failure degrades to a miss: the cache is an
  // optimization, so a flaky backing store must never fail a simulation.
  obs::TraceSession& tracer = obs::TraceSession::global();
  if (Status st = fault::failpoint("step_cache.lookup"); !st.ok()) {
    Shard& shard = *shards_[shard_of(query.key_hash)];
    std::lock_guard lock{shard.mu};
    ++shard.misses;
    if (tracer.enabled()) tracer.instant("step_cache.miss", "cache");
    return false;
  }
  Shard& shard = *shards_[shard_of(query.key_hash)];
  std::lock_guard lock{shard.mu};
  if (auto it = shard.index.find(query.key_hash); it != shard.index.end()) {
    for (auto entry_it : it->second) {
      if (!matches(*entry_it, query)) continue;
      shard.lru.splice(shard.lru.begin(), shard.lru, entry_it);
      ++shard.hits;
      ++shard.kind(entry_it->worst_case, entry_it->exact).hits;
      const bool relabel =
          !entry_it->exact && entry_it->origin_perm != *query.from_canonical;
      if (relabel) ++shard.relabel_hits;
      if (tracer.enabled()) {
        tracer.instant(relabel ? "step_cache.relabel_hit" : "step_cache.hit",
                       "cache");
      }
      finish.assign(entry_it->finish.begin(), entry_it->finish.end());
      ops = entry_it->ops;
      return true;
    }
  }
  ++shard.misses;
  if (tracer.enabled()) tracer.instant("step_cache.miss", "cache");
  return false;
}

void SharedStepCache::insert(const core::CommStepQuery& query,
                             const std::vector<Time>& finish) {
  // An injected insert failure skips the store; correctness is unaffected,
  // the step is simply re-simulated next time.
  if (Status st = fault::failpoint("step_cache.insert"); !st.ok()) return;

  Entry entry;
  entry.hash = query.key_hash;
  entry.canon = query.canon;
  if (entry.canon == nullptr) {
    // Uninterned pattern: materialize a private canonical form (the miss
    // path just paid for a full simulation, so this is noise).
    pattern::Canonicalizer canonicalizer;
    if (canonicalizer.analyze(*query.pattern) == 0) return;
    entry.canon = std::make_shared<const pattern::CanonicalPattern>(
        canonicalizer.materialize(*query.pattern));
  }
  entry.ready = *query.ready;
  entry.params = *query.params;
  entry.seed = query.exact ? query.seed : 0;
  entry.origin_perm = *query.from_canonical;
  entry.worst_case = query.worst_case;
  entry.exact = query.exact;
  entry.finish = finish;
  entry.ops = query.ops;
  entry.bytes = entry_bytes(*entry.canon, entry.origin_perm.size());
  if (entry.bytes > per_shard_budget_) return;  // would evict everything

  Shard& shard = *shards_[shard_of(query.key_hash)];
  std::lock_guard lock{shard.mu};
  if (auto it = shard.index.find(query.key_hash); it != shard.index.end()) {
    for (auto entry_it : it->second) {
      if (matches(*entry_it, query)) {
        // Already cached (a racing worker got here first): refresh recency.
        shard.lru.splice(shard.lru.begin(), shard.lru, entry_it);
        return;
      }
    }
  }
  shard.lru.push_front(std::move(entry));
  shard.index[query.key_hash].push_back(shard.lru.begin());
  shard.bytes += shard.lru.front().bytes;
  ++shard.insertions;
  ++shard.kind(query.worst_case, query.exact).insertions;
  if (obs::TraceSession& tracer = obs::TraceSession::global();
      tracer.enabled()) {
    tracer.instant("step_cache.insert", "cache");
  }
  evict_to_budget_locked(shard);
}

void SharedStepCache::evict_to_budget_locked(Shard& shard) {
  obs::TraceSession& tracer = obs::TraceSession::global();
  while (shard.bytes > per_shard_budget_ && !shard.lru.empty()) {
    auto victim = std::prev(shard.lru.end());
    shard.bytes -= victim->bytes;
    unindex(shard, victim);
    shard.lru.erase(victim);
    ++shard.evictions;
    if (tracer.enabled()) tracer.instant("step_cache.evict", "cache");
  }
}

void SharedStepCache::unindex(Shard& shard, std::list<Entry>::iterator it) {
  auto bucket = shard.index.find(it->hash);
  auto& vec = bucket->second;
  std::erase(vec, it);
  if (vec.empty()) shard.index.erase(bucket);
}

SharedStepCache::Stats SharedStepCache::stats() const {
  Stats total;
  for (const auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::lock_guard lock{shard.mu};
    total.hits += shard.hits;
    total.relabel_hits += shard.relabel_hits;
    total.misses += shard.misses;
    total.insertions += shard.insertions;
    total.evictions += shard.evictions;
    total.entries += shard.lru.size();
    total.bytes += shard.bytes;
    const auto add = [](Stats::Kind& sum, const Stats::Kind& kind) {
      sum.hits += kind.hits;
      sum.insertions += kind.insertions;
    };
    add(total.std_shared, shard.std_shared);
    add(total.std_exact, shard.std_exact);
    add(total.worst_case, shard.worst_case);
  }
  return total;
}

void SharedStepCache::clear() {
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::lock_guard lock{shard.mu};
    shard.lru.clear();
    shard.index.clear();
    shard.bytes = 0;
  }
}

}  // namespace logsim::runtime
