// Allocation-count regression tests for the zero-allocation hot path.
//
// This translation unit replaces the global operator new/delete pair with
// counting versions backed by malloc/free, so every C++ heap allocation in
// the process increments an atomic counter.  The tests warm up the
// scratch-and-sink simulation path, then assert the steady-state cost:
//
//   - run_into() with a reused CommSimScratch + FinishOnlySink performs
//     ZERO heap allocations once capacities have been reached, for both
//     the standard algorithm and the worst-case algorithm;
//   - the legacy trace-returning run() stays within a small constant
//     (the CommTrace it returns), far below the pre-rewrite cost.
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
#include <vector>

#include <gtest/gtest.h>

#include "core/comm_sim.hpp"
#include "core/program_sim.hpp"
#include "core/worst_case.hpp"
#include "ge/blocked_ge.hpp"
#include "layout/layout.hpp"
#include "loggp/params.hpp"
#include "ops/analytic_model.hpp"
#include "ops/ge_ops.hpp"
#include "pattern/builders.hpp"
#include "runtime/step_cache.hpp"
#include "util/rng.hpp"

namespace {

std::atomic<std::size_t> g_allocs{0};

void* counted_alloc(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc{};
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t al) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
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
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
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

}  // namespace
