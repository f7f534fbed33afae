// Tests for the structure-aware comm-step memoization stack: pattern
// canonicalization and interning (src/pattern/canonical.*), the
// simulator-side cache hook (core::StepCache in ProgramSimulator),
// and the cross-job SharedStepCache (src/runtime/step_cache.*).
//
// The load-bearing property throughout is BIT-IDENTITY: a prediction made
// through the cache must equal the uncached prediction in every field, on
// every processor, to the last bit -- the cache may only change how fast
// results arrive, never what they are.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include "core/predictor.hpp"
#include "core/program_sim.hpp"
#include "core/step_program.hpp"
#include "ge/blocked_ge.hpp"
#include "layout/layout.hpp"
#include "loggp/params.hpp"
#include "ops/analytic_model.hpp"
#include "ops/ge_ops.hpp"
#include "pattern/builders.hpp"
#include "pattern/canonical.hpp"
#include "runtime/batch_predictor.hpp"
#include "runtime/metrics.hpp"
#include "runtime/step_cache.hpp"
#include "util/rng.hpp"

namespace logsim {
namespace {

using core::CommStep;
using core::StepProgram;
using pattern::CommPattern;

/// Applies a processor permutation to a pattern, preserving message order
/// (which is how every generator in the repo emits shifted copies).
CommPattern relabel(const CommPattern& p, const std::vector<ProcId>& perm) {
  CommPattern out{p.procs()};
  for (const auto& m : p.messages()) {
    out.add(perm[static_cast<std::size_t>(m.src)],
            perm[static_cast<std::size_t>(m.dst)], m.bytes, m.tag);
  }
  return out;
}

std::vector<Time> standard_finish(const CommPattern& p) {
  const auto params = loggp::presets::meiko_cs2(p.procs());
  core::CommSimScratch scratch;
  core::FinishOnlySink sink;
  sink.reset(p.procs());
  core::CommSimulator{params}.run_into(
      p, std::vector<Time>(static_cast<std::size_t>(p.procs()), Time::zero()),
      {}, sink, scratch);
  return sink.finish_times();
}

StepProgram one_step_program(CommPattern p, pattern::PatternInterner& pool) {
  StepProgram program{p.procs()};
  program.add_comm(std::move(p));
  program.intern_patterns(pool);
  return program;
}

// ---------------------------------------------------------------------------
// Hashing

TEST(CommPatternHash, EqualPatternsEqualHashes) {
  CommPattern a{4};
  a.add(0, 1, Bytes{100}, 7);
  a.add(2, 3, Bytes{50});
  CommPattern b{4};
  b.add(0, 1, Bytes{100}, 7);
  b.add(2, 3, Bytes{50});
  EXPECT_EQ(a.hash(), b.hash());
}

TEST(CommPatternHash, SensitiveToEveryField) {
  CommPattern base{4};
  base.add(0, 1, Bytes{100}, 7);
  const std::uint64_t h = base.hash();

  CommPattern bytes_differ{4};
  bytes_differ.add(0, 1, Bytes{101}, 7);
  EXPECT_NE(h, bytes_differ.hash());

  CommPattern endpoint_differs{4};
  endpoint_differs.add(0, 2, Bytes{100}, 7);
  EXPECT_NE(h, endpoint_differs.hash());

  CommPattern tag_differs{4};
  tag_differs.add(0, 1, Bytes{100}, 8);
  EXPECT_NE(h, tag_differs.hash());
}

TEST(Canonicalizer, HashMatchesMaterializedForm) {
  util::Rng rng{99};
  for (int trial = 0; trial < 20; ++trial) {
    const auto p =
        pattern::random_pattern(rng, 8, 24, Bytes{16}, Bytes{4096});
    pattern::Canonicalizer canon;
    if (canon.analyze(p) == 0) continue;
    const pattern::CanonicalPattern form = canon.materialize(p);
    EXPECT_EQ(canon.hash(), form.form.hash());
    EXPECT_EQ(canon.hash(), form.hash);
    EXPECT_TRUE(pattern::canonical_equals(p, canon.to_canonical(), form.form));
  }
}

TEST(Canonicalizer, ReusedInstanceMatchesAFreshOne) {
  // analyze() clears only the ids its last call set, so a reused instance
  // must still agree with a fresh one as procs shrinks and grows.
  util::Rng rng{7};
  pattern::Canonicalizer reused;
  for (const int procs : {12, 5, 16, 3, 16, 9}) {
    const auto p =
        pattern::random_pattern(rng, procs, 10, Bytes{16}, Bytes{64});
    pattern::Canonicalizer fresh;
    EXPECT_EQ(reused.analyze(p), fresh.analyze(p));
    EXPECT_EQ(reused.to_canonical(), fresh.to_canonical());
    EXPECT_EQ(reused.from_canonical(), fresh.from_canonical());
    EXPECT_EQ(reused.hash(), fresh.hash());
  }
}

TEST(StructuralHash, ConsistentWithEquality) {
  const layout::DiagonalMap map{4};
  const auto a = ge::build_ge_program(ge::GeConfig{.n = 96, .block = 16}, map);
  const auto b = ge::build_ge_program(ge::GeConfig{.n = 96, .block = 16}, map);
  const auto c = ge::build_ge_program(ge::GeConfig{.n = 96, .block = 24}, map);
  EXPECT_EQ(a, b);
  EXPECT_EQ(core::program_hash(a, {}), core::program_hash(b, {}));
  EXPECT_NE(core::program_hash(a, {}), core::program_hash(c, {}));
}

// ---------------------------------------------------------------------------
// Canonicalization + interning

TEST(Canonicalizer, RelabelingsShareACanonicalForm) {
  const auto base = pattern::flat_broadcast(8, Bytes{256}, /*root=*/0);
  std::vector<ProcId> perm(8);
  std::iota(perm.begin(), perm.end(), 0);
  std::rotate(perm.begin(), perm.begin() + 3, perm.end());
  const auto shifted = relabel(base, perm);

  pattern::Canonicalizer ca;
  pattern::Canonicalizer cb;
  ASSERT_GT(ca.analyze(base), 0);
  ASSERT_GT(cb.analyze(shifted), 0);
  EXPECT_EQ(ca.hash(), cb.hash());
  EXPECT_TRUE(ca.uniform_bytes());

  pattern::PatternInterner pool;
  const auto canon_a = pool.intern(base);
  const auto canon_b = pool.intern(shifted);
  ASSERT_NE(canon_a, nullptr);
  EXPECT_EQ(canon_a.get(), canon_b.get()) << "relabelings must intern to one "
                                             "shared CanonicalPattern";
  EXPECT_EQ(pool.size(), 1u);
}

TEST(Canonicalizer, MixedBytesDetected) {
  CommPattern p{4};
  p.add(0, 1, Bytes{100});
  p.add(1, 2, Bytes{200});
  pattern::Canonicalizer canon;
  ASSERT_GT(canon.analyze(p), 0);
  EXPECT_FALSE(canon.uniform_bytes());
}

TEST(Interner, GeProgramSharesRotatedBroadcasts) {
  pattern::PatternInterner pool;
  const layout::DiagonalMap map{8};
  auto program = ge::build_ge_program(ge::GeConfig{.n = 480, .block = 32}, map);
  program.intern_patterns(pool);  // idempotent on top of the builder's pass

  std::size_t comm_steps = 0;
  std::size_t interned = 0;
  for (std::size_t i = 0; i < program.size(); ++i) {
    const auto* c = std::get_if<CommStep>(&program.step(i));
    if (c == nullptr) continue;
    ++comm_steps;
    if (c->canon != nullptr) {
      ++interned;
      // The recorded relabeling must be the pattern's, and map it onto
      // the form.
      pattern::Canonicalizer fresh;
      ASSERT_GT(fresh.analyze(c->pattern), 0);
      EXPECT_EQ(c->from_canonical, fresh.from_canonical());
      EXPECT_TRUE(pattern::canonical_equals(c->pattern, fresh.to_canonical(),
                                            c->canon->form));
      EXPECT_EQ(c->from_canonical.size(),
                static_cast<std::size_t>(c->canon->form.procs()));
    }
  }
  ASSERT_GT(comm_steps, 0u);
  EXPECT_EQ(interned, comm_steps);
  EXPECT_LT(pool.size(), comm_steps)
      << "GE's rotated pivot broadcasts should collapse to shared forms";
}

// ---------------------------------------------------------------------------
// The relabeling-equivalence property the cache is built on

TEST(RelabelEquivalence, UniformByteFinishTimesPermuteExactly) {
  util::Rng rng{4242};
  for (int trial = 0; trial < 40; ++trial) {
    const int procs = 4 + static_cast<int>(rng.next() % 9);  // 4..12
    const std::size_t edges = 4 + rng.next() % 24;
    const Bytes bytes{64 + (rng.next() % 32) * 8};  // uniform per trial
    const auto base =
        pattern::random_dag_pattern(rng, procs, edges, bytes, bytes);

    std::vector<ProcId> perm(static_cast<std::size_t>(procs));
    std::iota(perm.begin(), perm.end(), 0);
    for (std::size_t i = perm.size(); i > 1; --i) {
      std::swap(perm[i - 1], perm[rng.next() % i]);
    }
    const auto shifted = relabel(base, perm);

    const auto f_base = standard_finish(base);
    const auto f_shifted = standard_finish(shifted);
    for (int p = 0; p < procs; ++p) {
      EXPECT_EQ(f_base[static_cast<std::size_t>(p)].us(),
                f_shifted[static_cast<std::size_t>(perm[static_cast<std::size_t>(
                    p)])].us())
          << "trial " << trial << " proc " << p;
    }
  }
}

// ---------------------------------------------------------------------------
// Cache semantics through the ProgramSimulator

TEST(SharedStepCache, RelabeledStepHitsAndCounts) {
  pattern::PatternInterner pool;
  std::vector<ProcId> perm{1, 2, 3, 4, 5, 6, 7, 0};
  const auto base = pattern::flat_broadcast(8, Bytes{512}, /*root=*/0);
  const auto a = one_step_program(base, pool);
  const auto b = one_step_program(relabel(base, perm), pool);

  const auto params = loggp::presets::meiko_cs2(8);
  const core::CostTable costs;  // comm-only programs never consult it
  runtime::SharedStepCache cache;
  core::ProgramSimOptions opts;
  opts.step_cache = &cache;
  const core::ProgramSimulator sim{params, opts};

  const auto ra = sim.run(a, costs);
  const auto st_after_a = cache.stats();
  EXPECT_EQ(st_after_a.hits, 0u);
  EXPECT_EQ(st_after_a.misses, 1u);
  EXPECT_EQ(st_after_a.entries, 1u);

  const auto rb = sim.run(b, costs);
  const auto st = cache.stats();
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.relabel_hits, 1u)
      << "a hit through a different relabeling must count as relabel_hit";
  EXPECT_EQ(st.entries, 1u);

  // The cached result must translate exactly through the permutation.
  for (std::size_t p = 0; p < 8; ++p) {
    EXPECT_EQ(ra.proc_end[p].us(),
              rb.proc_end[static_cast<std::size_t>(perm[p])].us());
  }

  // A hit through the entry's own relabeling (program a created the entry)
  // is a plain hit, not a relabel hit.
  (void)sim.run(a, costs);
  EXPECT_EQ(cache.stats().relabel_hits, 1u);
  EXPECT_EQ(cache.stats().hits, 2u);
}

TEST(SharedStepCache, StepsInternedInSeparatePoolsMatchByForm) {
  // Two pools hand out two form objects for one pattern shape; the cache
  // then verifies an interned step by comparing forms, so the relabeled
  // copy still hits and translates exactly.
  pattern::PatternInterner pool_a;
  pattern::PatternInterner pool_b;
  std::vector<ProcId> perm{3, 4, 5, 6, 7, 0, 1, 2};
  const auto base = pattern::flat_broadcast(8, Bytes{512}, /*root=*/0);
  const auto a = one_step_program(base, pool_a);
  const auto b = one_step_program(relabel(base, perm), pool_b);
  ASSERT_NE(std::get<CommStep>(a.step(0)).canon,
            std::get<CommStep>(b.step(0)).canon);

  const auto params = loggp::presets::meiko_cs2(8);
  const core::CostTable costs;
  runtime::SharedStepCache cache;
  core::ProgramSimOptions opts;
  opts.step_cache = &cache;
  const core::ProgramSimulator sim{params, opts};
  (void)sim.run(a, costs);
  const auto rb = sim.run(b, costs);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().relabel_hits, 1u);
  EXPECT_EQ(cache.stats().entries, 1u);

  const auto uncached = core::ProgramSimulator{params}.run(b, costs);
  for (std::size_t p = 0; p < 8; ++p) {
    EXPECT_EQ(rb.proc_end[p].us(), uncached.proc_end[p].us());
  }
}

TEST(SharedStepCache, WorstCaseKeysIncludeSeed) {
  pattern::PatternInterner pool;
  const auto program =
      one_step_program(pattern::flat_broadcast(8, Bytes{512}), pool);
  const auto params = loggp::presets::meiko_cs2(8);
  const core::CostTable costs;
  runtime::SharedStepCache cache;

  core::ProgramSimOptions opts;
  opts.step_cache = &cache;
  opts.worst_case = true;
  opts.seed = 1;
  (void)core::ProgramSimulator{params, opts}.run(program, costs);
  opts.seed = 2;
  (void)core::ProgramSimulator{params, opts}.run(program, costs);

  const auto st = cache.stats();
  EXPECT_EQ(st.hits, 0u) << "different worst-case seeds must not share";
  EXPECT_EQ(st.entries, 2u);

  opts.seed = 1;
  (void)core::ProgramSimulator{params, opts}.run(program, costs);
  EXPECT_EQ(cache.stats().hits, 1u) << "same seed must hit its own entry";
}

TEST(SharedStepCache, HitsAndInsertionsCountedByKind) {
  // One GE program through both schedules, re-run at the same seed and
  // then at another.  Worst-case entries are keyed on the seed, so they
  // hit only on the same-seed re-run; seed-shared standard entries hit on
  // both.  GE steps carry uniform bytes, so no step is standard-exact.
  const auto costs = ops::analytic_cost_table();
  const auto params = loggp::presets::meiko_cs2(8);
  const auto program = ge::build_ge_program(ge::GeConfig{.n = 96, .block = 16},
                                            layout::DiagonalMap{8});
  runtime::SharedStepCache cache;
  runtime::metrics::Registry metrics;
  runtime::BatchPredictor batch{
      {.threads = 1, .sim = {}, .step_cache = &cache, .metrics = &metrics}};
  const auto run = [&](std::uint64_t seed) {
    runtime::PredictJob job{&program, params, &costs};
    job.seed = seed;
    EXPECT_TRUE(batch.predict_one(job).ok());
    return cache.stats();
  };
  const auto first = run(1);
  EXPECT_GT(first.std_shared.insertions, 0u);
  EXPECT_GT(first.worst_case.insertions, 0u);
  EXPECT_EQ(first.worst_case.hits, 0u);
  const auto same_seed = run(1);
  EXPECT_GT(same_seed.worst_case.hits, 0u);
  EXPECT_GT(same_seed.std_shared.hits, first.std_shared.hits);
  const auto new_seed = run(2);
  EXPECT_EQ(new_seed.worst_case.hits, same_seed.worst_case.hits);
  EXPECT_GT(new_seed.std_shared.hits, same_seed.std_shared.hits);
  EXPECT_EQ(new_seed.std_exact.hits + new_seed.std_exact.insertions, 0u);

  // The kinds partition the totals, and each is published as a gauge.
  EXPECT_EQ(new_seed.std_shared.hits + new_seed.worst_case.hits,
            new_seed.hits);
  EXPECT_EQ(new_seed.std_shared.insertions + new_seed.worst_case.insertions,
            new_seed.insertions);
  std::map<std::string, std::string> gauges;
  for (const auto& sample : metrics.samples()) {
    if (sample.kind == "gauge") gauges[sample.name] = sample.value;
  }
  EXPECT_EQ(gauges["step_cache.worst_case_hits"],
            std::to_string(new_seed.worst_case.hits));
  EXPECT_EQ(gauges["step_cache.std_shared_insertions"],
            std::to_string(new_seed.std_shared.insertions));
  EXPECT_EQ(gauges["step_cache.std_exact_hits"], "0");
}

TEST(SharedStepCache, MixedByteStepsDoNotShareAcrossRelabelings) {
  pattern::PatternInterner pool;
  CommPattern mixed{4};
  mixed.add(0, 1, Bytes{1524});
  mixed.add(1, 2, Bytes{4});
  mixed.add(2, 3, Bytes{1524});
  const std::vector<ProcId> perm{1, 2, 3, 0};
  const auto a = one_step_program(mixed, pool);
  const auto b = one_step_program(relabel(mixed, perm), pool);

  const auto params = loggp::presets::meiko_cs2(4);
  const core::CostTable costs;
  runtime::SharedStepCache cache;
  core::ProgramSimOptions opts;
  opts.step_cache = &cache;
  const core::ProgramSimulator sim{params, opts};

  (void)sim.run(a, costs);
  (void)sim.run(b, costs);
  EXPECT_EQ(cache.stats().hits, 0u)
      << "mixed-byte steps must key on the exact permutation";
  (void)sim.run(a, costs);
  EXPECT_EQ(cache.stats().hits, 1u) << "the exact same step still memoizes";
}

TEST(SharedStepCache, LruEvictionHonorsByteBudget) {
  pattern::PatternInterner pool;
  const auto params = loggp::presets::meiko_cs2(8);
  const core::CostTable costs;
  runtime::SharedStepCache cache{{.shards = 1, .byte_budget = 2048}};
  core::ProgramSimOptions opts;
  opts.step_cache = &cache;
  const core::ProgramSimulator sim{params, opts};

  // Distinct canonical forms (different fan-out counts) -> distinct entries.
  for (int k = 2; k <= 8; ++k) {
    CommPattern p{8};
    for (int d = 1; d < k; ++d) p.add(0, d, Bytes{256});
    (void)sim.run(one_step_program(std::move(p), pool), costs);
  }
  const auto st = cache.stats();
  EXPECT_GT(st.evictions, 0u);
  EXPECT_LE(st.bytes, 2048u);
  EXPECT_GE(st.entries, 1u);
}

TEST(StepCacheEnv, EnvVariableDisables) {
  ASSERT_EQ(setenv("LOGSIM_STEP_CACHE", "0", 1), 0);
  EXPECT_FALSE(runtime::step_cache_env_enabled());
  ASSERT_EQ(setenv("LOGSIM_STEP_CACHE", "1", 1), 0);
  EXPECT_TRUE(runtime::step_cache_env_enabled());
  ASSERT_EQ(unsetenv("LOGSIM_STEP_CACHE"), 0);
  EXPECT_TRUE(runtime::step_cache_env_enabled());
}

// ---------------------------------------------------------------------------
// End-to-end bit-identity over the paper's Figure-7 configurations

TEST(StepCacheBitIdentity, Fig7GeSweepMatchesUncached) {
  const auto costs = ops::analytic_cost_table();
  const auto params = loggp::presets::meiko_cs2(8);
  const layout::DiagonalMap diag{8};
  const layout::RowCyclic row{8};
  // One shared cache across the whole sweep: later configurations hit
  // entries inserted by earlier ones exactly as in a batch run.
  runtime::SharedStepCache cache;
  core::ProgramSimOptions cached_opts;
  cached_opts.step_cache = &cache;
  const core::Predictor cached{params, cached_opts};
  const core::Predictor uncached{params};

  for (const layout::Layout* map :
       {static_cast<const layout::Layout*>(&diag),
        static_cast<const layout::Layout*>(&row)}) {
    for (int block : {8, 16, 32, 64, 96, 120}) {
      const auto program = ge::build_ge_program(
          ge::GeConfig{.n = 960, .block = block}, *map);
      const core::Prediction a = cached.predict_or_die(program, costs);
      const core::Prediction b = uncached.predict_or_die(program, costs);
      const auto expect_bit_identical = [&](const core::ProgramResult& with,
                                            const core::ProgramResult& sans) {
        EXPECT_EQ(with.total.us(), sans.total.us())
            << map->name() << " block " << block;
        EXPECT_EQ(with.comm_ops, sans.comm_ops);
        ASSERT_EQ(with.proc_end.size(), sans.proc_end.size());
        for (std::size_t p = 0; p < sans.proc_end.size(); ++p) {
          EXPECT_EQ(with.proc_end[p].us(), sans.proc_end[p].us());
          EXPECT_EQ(with.comp[p].us(), sans.comp[p].us());
          EXPECT_EQ(with.comm[p].us(), sans.comm[p].us());
        }
      };
      expect_bit_identical(a.standard, b.standard);
      expect_bit_identical(a.worst_case, b.worst_case);
    }
  }
  const auto st = cache.stats();
  EXPECT_GT(st.hits, 0u) << "the sweep is expected to exercise the cache";
}

}  // namespace
}  // namespace logsim
