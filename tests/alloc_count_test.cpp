// Allocation-count regression tests for the zero-allocation hot path.
//
// This translation unit replaces the global operator new/delete pair with
// counting versions backed by malloc/free, so every C++ heap allocation in
// the process increments atomic counters of calls and bytes.  The tests
// warm up the scratch-and-sink simulation path, then assert the
// steady-state cost:
//
//   - run_into() with a reused CommSimScratch + FinishOnlySink performs
//     ZERO heap allocations once capacities have been reached, for both
//     the standard algorithm and the worst-case algorithm;
//   - the legacy trace-returning run() stays within a small constant
//     (the CommTrace it returns), far below the pre-rewrite cost;
//   - a PredictionCache insert shares the program instead of copying it,
//     so its allocation count does not grow with the program;
//   - REGISTER of a wide program allocates one procs-sized scratch, not
//     one per comm step;
//   - building a GE program allocates by steps, not by work items (a
//     compute step keeps its items' touched ids in one array), and a
//     compute step copies as its three arrays.
//
// Seed baselines, measured before the scratch rewrite on the same
// workload (P=32 random pattern, 2000 messages => 4000 ops):
//   standard  CommSimulator::run : 4472 allocations per call
//   worst-case            ::run  :  404 allocations per call
// The ISSUE acceptance bar is a >=5x reduction per comm step; the scratch
// path achieves zero, and the legacy wrappers are asserted under the
// baselines divided by five.

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <functional>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/comm_sim.hpp"
#include "core/predictor.hpp"
#include "core/program_sim.hpp"
#include "core/worst_case.hpp"
#include "ge/blocked_ge.hpp"
#include "layout/layout.hpp"
#include "loggp/params.hpp"
#include "ops/analytic_model.hpp"
#include "ops/ge_ops.hpp"
#include "pattern/builders.hpp"
#include "runtime/prediction_cache.hpp"
#include "runtime/step_cache.hpp"
#include "serve/registry.hpp"
#include "util/rng.hpp"

namespace {

std::atomic<std::size_t> g_allocs{0};
std::atomic<std::size_t> g_bytes{0};

void* counted_alloc(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc{};
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t al) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(size, std::memory_order_relaxed);
  const auto alignment = static_cast<std::size_t>(al);
  void* p = nullptr;
  if (posix_memalign(&p, alignment < sizeof(void*) ? sizeof(void*) : alignment,
                     size == 0 ? alignment : size) != 0) {
    throw std::bad_alloc{};
  }
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(size, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(size, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new(std::size_t size, std::align_val_t al) {
  return counted_aligned_alloc(size, al);
}
void* operator new[](std::size_t size, std::align_val_t al) {
  return counted_aligned_alloc(size, al);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace logsim;

constexpr int kProcs = 32;
constexpr int kMessages = 2000;

// Seed-implementation costs for the workload above (see file comment).
constexpr std::size_t kSeedStandardAllocs = 4472;
constexpr std::size_t kSeedWorstCaseAllocs = 404;

pattern::CommPattern make_workload() {
  util::Rng rng{99};
  return pattern::random_pattern(rng, kProcs, kMessages, Bytes{16},
                                 Bytes{4096});
}

std::size_t count_allocs(const std::function<void()>& fn) {
  const std::size_t before = g_allocs.load(std::memory_order_relaxed);
  fn();
  return g_allocs.load(std::memory_order_relaxed) - before;
}

TEST(AllocCount, InstrumentationIsLive) {
  const std::size_t n = count_allocs([] {
    std::vector<int> v(100);
    ASSERT_EQ(v.size(), 100u);
  });
  EXPECT_GE(n, 1u);
}

TEST(AllocCount, StandardScratchPathIsAllocationFreeAfterWarmUp) {
  const auto pat = make_workload();
  const auto params = loggp::presets::meiko_cs2(kProcs);
  const std::vector<Time> ready(kProcs, Time::zero());
  const std::vector<Time> no_msg_ready;
  const core::CommSimulator sim{params};

  core::CommSimScratch scratch;
  core::FinishOnlySink sink;
  // Two warm-up runs: the first grows every buffer, the second proves the
  // capacities stick (and catches any shrink-on-clear regression early).
  for (int i = 0; i < 2; ++i) {
    sink.reset(kProcs);
    sim.run_into(pat, ready, no_msg_ready, sink, scratch);
  }
  const Time warm = sink.makespan();

  const std::size_t n = count_allocs([&] {
    sink.reset(kProcs);
    sim.run_into(pat, ready, no_msg_ready, sink, scratch);
  });
  EXPECT_EQ(n, 0u) << "standard hot path allocated after warm-up";
  EXPECT_EQ(sink.makespan(), warm);
  EXPECT_EQ(sink.op_count(), 2u * kMessages);
}

TEST(AllocCount, WorstCaseScratchPathIsAllocationFreeAfterWarmUp) {
  // The random workload mixes wide rounds with deadlock breaks.  The ring
  // deadlocks at once and then runs a 511-round chain of single sends, so
  // the deadlock-break tree and the per-round sender and drain lists are
  // exercised at a P the first input never grew the scratch to.
  const pattern::CommPattern inputs[] = {make_workload(),
                                         pattern::ring(512, Bytes{96})};
  core::CommSimScratch scratch;
  core::FinishOnlySink sink;
  for (const auto& pat : inputs) {
    const int procs = pat.procs();
    const auto params = loggp::presets::meiko_cs2(procs);
    const std::vector<Time> ready(static_cast<std::size_t>(procs),
                                  Time::zero());
    const core::WorstCaseSimulator sim{params};
    for (int i = 0; i < 2; ++i) {
      sink.reset(procs);
      sim.run_into(pat, ready, sink, scratch);
    }
    const Time warm = sink.makespan();

    const std::size_t n = count_allocs([&] {
      sink.reset(procs);
      sim.run_into(pat, ready, sink, scratch);
    });
    EXPECT_EQ(n, 0u) << "worst-case hot path allocated after warm-up at P="
                     << procs;
    EXPECT_EQ(sink.makespan(), warm);
    EXPECT_EQ(sink.op_count(), 2u * pat.size());
  }
}

TEST(AllocCount, LegacyRunBeatsSeedBaselineFivefold) {
  const auto pat = make_workload();
  const auto params = loggp::presets::meiko_cs2(kProcs);

  // Warm the thread_local scratch inside the legacy wrappers.
  const Time want_standard = core::CommSimulator{params}.run(pat).makespan();
  const Time want_worst = core::WorstCaseSimulator{params}.run(pat).makespan();

  Time got_standard = Time::zero();
  Time got_worst = Time::zero();
  const std::size_t standard = count_allocs([&] {
    got_standard = core::CommSimulator{params}.run(pat).makespan();
  });
  const std::size_t worst = count_allocs([&] {
    got_worst = core::WorstCaseSimulator{params}.run(pat).makespan();
  });
  EXPECT_EQ(got_standard, want_standard);
  EXPECT_EQ(got_worst, want_worst);

  // The returned CommTrace still owns its storage (ops + finish times),
  // so a handful of allocations remain -- but nothing proportional to the
  // simulation itself.
  EXPECT_LE(standard, kSeedStandardAllocs / 5)
      << "legacy standard run() regressed past the 5x bar";
  EXPECT_LE(worst, kSeedWorstCaseAllocs / 5)
      << "legacy worst-case run() regressed past the 5x bar";
  EXPECT_LE(standard, 8u) << "expected only the CommTrace's own buffers";
  EXPECT_LE(worst, 8u) << "expected only the CommTrace's own buffers";
}

TEST(AllocCount, CachedProgramSimHitPathStaysConstant) {
  // A warmed comm-step cache turns every comm step of a repeat run into a
  // lookup: no simulator scratch growth, no sink, no canonicalization walk
  // (interned steps carry their relabeling).  The remaining allocations
  // are the returned ProgramResult's own vectors plus the run's two
  // canonical-order scratch buffers -- a small constant independent of the
  // program's size.
  const auto costs = ops::analytic_cost_table();
  const auto params = loggp::presets::meiko_cs2(4);
  const layout::DiagonalMap map{4};
  const auto program =
      ge::build_ge_program(ge::GeConfig{.n = 192, .block = 16}, map);

  runtime::SharedStepCache cache;
  core::ProgramSimOptions opts;
  opts.step_cache = &cache;
  const core::ProgramSimulator sim{params, opts};

  (void)sim.run(program, costs);  // fill the cache
  const Time want = sim.run(program, costs).total;
  const auto warm_stats = cache.stats();
  EXPECT_EQ(warm_stats.misses, warm_stats.entries)
      << "second run expected to be all hits";

  Time got = Time::zero();
  const std::size_t n = count_allocs([&] { got = sim.run(program, costs).total; });
  EXPECT_EQ(got, want);
  EXPECT_LE(n, 16u) << "warmed cached run must allocate O(1), got " << n;
}

TEST(AllocCount, PredictionCacheInsertSharesTheProgram) {
  // A cache entry shares the caller's step list, so an insert allocates
  // the same handful of blocks (list node, index slot, the cost table and
  // Prediction copies) whatever the program's size.
  const auto costs = ops::analytic_cost_table();
  const auto params = loggp::presets::meiko_cs2(4);
  const layout::DiagonalMap map{4};
  const auto insert_allocs = [&](int n) {
    const auto program =
        ge::build_ge_program(ge::GeConfig{.n = n, .block = 16}, map);
    const auto prediction =
        core::Predictor{params}.predict_or_die(program, costs);
    const auto key = runtime::prediction_key_hash(program, costs, params, 1);
    runtime::PredictionCache cache;
    const std::size_t n_allocs = count_allocs(
        [&] { cache.insert(key, program, costs, params, 1, prediction); });
    EXPECT_EQ(cache.stats().entries, 1u);
    return n_allocs;
  };
  (void)insert_allocs(192);  // the first insert creates the failpoint registry
  const std::size_t small = insert_allocs(192);
  const std::size_t large = insert_allocs(384);
  EXPECT_EQ(small, large) << "insert cost grew with the program";
}

TEST(AllocCount, RegisterOfAWideProgramAllocatesByPayloadNotSteps) {
  // REGISTER canonicalizes every comm step.  For procs 2^20 that needs one
  // procs-sized scratch map (4 MiB) per registration, never one per step:
  // 32 one-message steps must stay far below 32 such maps.
  std::string text = "procs 1048576\n";
  for (int s = 0; s < 32; ++s) {
    text += "comm\nmsg " + std::to_string(s) + " " +
            std::to_string(1000 + s) + " 8\n";
  }
  serve::ProgramRegistry registry;
  const std::size_t before = g_bytes.load(std::memory_order_relaxed);
  const auto entry = registry.intern(text);
  const std::size_t bytes = g_bytes.load(std::memory_order_relaxed) - before;
  ASSERT_TRUE(entry.ok()) << entry.status().to_string();
  EXPECT_EQ((*entry)->program().comm_step_count(), 32u);
  EXPECT_LT(bytes, std::size_t{8} << 20) << "REGISTER allocated " << bytes;
}

TEST(AllocCount, RepeatedScratchRunsStayFlatAcrossPatterns) {
  // Reusing one scratch across *different* patterns of non-increasing
  // size must also be free: prepare() only grows capacity.
  const auto params = loggp::presets::meiko_cs2(kProcs);
  util::Rng rng{7};
  const auto big = pattern::random_pattern(rng, kProcs, kMessages, Bytes{16},
                                           Bytes{4096});
  const auto small = pattern::random_pattern(rng, kProcs, kMessages / 4,
                                             Bytes{16}, Bytes{4096});
  const std::vector<Time> ready(kProcs, Time::zero());
  const std::vector<Time> no_msg_ready;
  const core::CommSimulator sim{params};

  core::CommSimScratch scratch;
  core::FinishOnlySink sink;
  sink.reset(kProcs);
  sim.run_into(big, ready, no_msg_ready, sink, scratch);

  const std::size_t n = count_allocs([&] {
    for (int i = 0; i < 3; ++i) {
      sink.reset(kProcs);
      sim.run_into(small, ready, no_msg_ready, sink, scratch);
      sink.reset(kProcs);
      sim.run_into(big, ready, no_msg_ready, sink, scratch);
    }
  });
  EXPECT_EQ(n, 0u) << "alternating pattern sizes must not reallocate";
}

TEST(AllocCount, GeBuildAllocatesPerStepNotPerItem) {
  // The b = 10 diagonal Fig-7 program: 299,536 work items in 476 steps.
  // Each compute step grows three arrays and each comm step its pattern,
  // so the count is bounded per step (a vector's doublings included),
  // where one id vector per item would cost 299,536 blocks on its own.
  const layout::DiagonalMap map{8};
  const ge::GeConfig cfg{.n = 960, .block = 10};
  (void)ge::build_ge_program(cfg, map);  // interns the comm patterns
  std::size_t items = 0;
  std::size_t steps = 0;
  const std::size_t n = count_allocs([&] {
    const auto program = ge::build_ge_program(cfg, map);
    items = program.work_item_count();
    steps = program.size();
  });
  EXPECT_EQ(items, 299536u);
  EXPECT_EQ(steps, 476u);
  EXPECT_LT(n, 32 * steps) << n << " allocations for " << items << " items";
}

TEST(AllocCount, ComputeStepCopiesOnlyItsArrays) {
  core::ComputeStep step;
  for (int i = 0; i < 1000; ++i) step.add({i % 4, 0, 16}, {i, i + 1, i + 2});
  core::ComputeStep copy;
  const std::size_t n = count_allocs([&] { copy = step; });
  EXPECT_EQ(n, 3u) << "items, ends and ids";
  EXPECT_EQ(copy, step);
}

}  // namespace
