// Tests for the logsim::runtime batch-prediction engine: thread pool
// semantics, bit-identical parallel-vs-serial determinism over a
// randomized job mix, memoization-cache LRU / collision / counter
// behaviour, per-job error propagation on every exit path, metrics
// rendering, and the batch exhaustive-search overload.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <new>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/predictor.hpp"
#include "fault/cancel.hpp"
#include "ge/blocked_ge.hpp"
#include "layout/layout.hpp"
#include "loggp/params.hpp"
#include "network/network_model.hpp"
#include "network/topology_spec.hpp"
#include "obs/sim_trace.hpp"
#include "ops/analytic_model.hpp"
#include "pattern/canonical.hpp"
#include "runtime/batch_predictor.hpp"
#include "runtime/metrics.hpp"
#include "runtime/prediction_cache.hpp"
#include "runtime/thread_pool.hpp"
#include "search/optimizer.hpp"
#include "util/rng.hpp"

namespace logsim {
namespace {

// ---------------------------------------------------------------- helpers

struct RandomCase {
  core::StepProgram program;
  core::CostTable costs;
  loggp::Params params;
};

/// Arbitrary alternating program + matching cost table + LogGP parameters,
/// fully determined by `seed` (mirrors tests/random_program_test.cpp).
RandomCase make_random_case(std::uint64_t seed) {
  util::Rng rng{seed};
  const int procs = static_cast<int>(2 + rng.below(7));
  RandomCase out{core::StepProgram{procs}, core::CostTable{},
                 loggp::presets::meiko_cs2(procs)};
  out.params.L = Time{rng.uniform(1.0, 20.0)};
  out.params.o = Time{rng.uniform(0.5, 5.0)};
  out.params.g = Time{rng.uniform(5.0, 20.0)};
  out.params.G = rng.uniform(0.005, 0.1);

  const int op_count = static_cast<int>(1 + rng.below(4));
  for (int op = 0; op < op_count; ++op) {
    out.costs.register_op("op" + std::to_string(op));
    for (int b : {4, 16, 64}) {
      out.costs.set_cost(op, b, Time{rng.uniform(5.0, 500.0)});
    }
  }

  const int steps = static_cast<int>(2 + rng.below(8));
  for (int s = 0; s < steps; ++s) {
    if (rng.chance(0.55)) {
      core::ComputeStep cs;
      const auto items = 1 + rng.below(10);
      std::vector<std::int64_t> ids;
      for (std::uint64_t i = 0; i < items; ++i) {
        core::WorkItem item;
        item.proc =
            static_cast<ProcId>(rng.below(static_cast<std::uint64_t>(procs)));
        item.op = static_cast<core::OpId>(
            rng.below(static_cast<std::uint64_t>(op_count)));
        item.block_size = std::array{4, 16, 64}[rng.below(3)];
        const auto touched = rng.below(4);
        ids.clear();
        for (std::uint64_t t = 0; t < touched; ++t) {
          ids.push_back(static_cast<std::int64_t>(rng.below(40)));
        }
        cs.add(item, ids);
      }
      out.program.add_compute(std::move(cs));
    } else {
      pattern::CommPattern pat{procs};
      const auto msgs = 1 + rng.below(12);
      for (std::uint64_t m = 0; m < msgs; ++m) {
        const auto src =
            static_cast<ProcId>(rng.below(static_cast<std::uint64_t>(procs)));
        const auto dst =
            static_cast<ProcId>(rng.below(static_cast<std::uint64_t>(procs)));
        pat.add(src, dst, Bytes{8 + rng.below(4096)});
      }
      out.program.add_comm(std::move(pat));
    }
  }
  return out;
}

/// Bit-identical comparison of two ProgramResults (exact double equality:
/// determinism means the same bits, not "close").
void expect_identical(const core::ProgramResult& a,
                      const core::ProgramResult& b) {
  EXPECT_EQ(a.total.us(), b.total.us());
  EXPECT_EQ(a.comm_ops, b.comm_ops);
  ASSERT_EQ(a.proc_end.size(), b.proc_end.size());
  for (std::size_t p = 0; p < a.proc_end.size(); ++p) {
    EXPECT_EQ(a.proc_end[p].us(), b.proc_end[p].us());
    EXPECT_EQ(a.comp[p].us(), b.comp[p].us());
    EXPECT_EQ(a.comm[p].us(), b.comm[p].us());
  }
}

void expect_identical(const core::Prediction& a, const core::Prediction& b) {
  expect_identical(a.standard, b.standard);
  expect_identical(a.worst_case, b.worst_case);
}

/// A tiny two-proc program whose work items carry `block` (distinct
/// `block` => distinct program, identical memory footprint).
core::StepProgram tiny_program(int block) {
  core::StepProgram program{2};
  core::ComputeStep cs;
  cs.add({0, 0, block});
  cs.add({1, 0, block});
  program.add_compute(std::move(cs));
  pattern::CommPattern pat{2};
  pat.add(0, 1, Bytes{64});
  program.add_comm(std::move(pat));
  return program;
}

core::CostTable tiny_costs() {
  core::CostTable costs;
  costs.register_op("op0");
  costs.set_cost(0, 4, Time{10.0});
  costs.set_cost(0, 64, Time{100.0});
  return costs;
}

// ------------------------------------------------------------- ThreadPool

TEST(ThreadPool, RunsEveryTaskAndWaitsIdle) {
  runtime::ThreadPool pool{4};
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&ran](std::chrono::steady_clock::duration) { ++ran; });
  }
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 100);
  EXPECT_EQ(pool.submitted(), 100u);
}

TEST(ThreadPool, ZeroThreadRequestClampsToOne) {
  runtime::ThreadPool pool{0};
  EXPECT_EQ(pool.size(), 1u);
  std::atomic<bool> ran{false};
  pool.submit([&ran](std::chrono::steady_clock::duration) { ran = true; });
  pool.wait_idle();
  EXPECT_TRUE(ran.load());
}

TEST(ThreadPool, DestructorDrainsPendingTasks) {
  std::atomic<int> ran{0};
  {
    runtime::ThreadPool pool{2};
    for (int i = 0; i < 50; ++i) {
      pool.submit([&ran](std::chrono::steady_clock::duration) { ++ran; });
    }
  }  // ~ThreadPool joins after draining
  EXPECT_EQ(ran.load(), 50);
}

// -------------------------------------------------- equality (satellites)

TEST(Equality, LoggpParams) {
  const auto a = loggp::presets::meiko_cs2(8);
  auto b = a;
  EXPECT_EQ(a, b);
  b.g = Time{b.g.us() + 1.0};
  EXPECT_NE(a, b);
}

TEST(Equality, StepProgramStructural) {
  const auto a = tiny_program(4);
  const auto b = tiny_program(4);
  const auto c = tiny_program(64);
  EXPECT_EQ(a, b);  // built independently, structurally identical
  EXPECT_NE(a, c);  // differs in one work item's block size

  // Copy-on-write: a copy shares the step storage...
  const std::uint64_t hash_a = core::program_hash(a, {});
  auto copy = a;
  EXPECT_EQ(&copy.step(0), &a.step(0));
  EXPECT_EQ(copy, a);
  // ...and mutating it leaves the original as it was.
  core::ComputeStep extra;
  extra.add({0, 0, 4});
  copy.add_compute(extra);
  copy.add_comm(pattern::CommPattern{2});
  EXPECT_EQ(copy.size(), 4u);
  EXPECT_NE(copy, a);
  auto with_step = a;
  pattern::CommPattern pat{2};
  pat.add(1, 0, Bytes{8});
  with_step.add_comm(core::CommStep{std::move(pat), nullptr, {}});
  EXPECT_EQ(with_step.size(), 3u);
  pattern::PatternInterner pool;
  auto interned = a;
  interned.intern_patterns(pool);
  EXPECT_NE(std::get<core::CommStep>(interned.step(1)).canon, nullptr);
  EXPECT_EQ(std::get<core::CommStep>(a.step(1)).canon, nullptr);
  EXPECT_EQ(interned, a);  // canon is acceleration state, not content
  EXPECT_EQ(a.size(), 2u);
  EXPECT_EQ(core::program_hash(a, {}), hash_a);
  EXPECT_EQ(a, b);
  // Nothing left to intern: the copy keeps sharing.
  auto again = interned;
  again.intern_patterns(pool);
  EXPECT_EQ(&again.step(0), &interned.step(0));

  // A moved-from program is a valid empty one.
  auto moved = std::move(copy);
  EXPECT_EQ(moved.size(), 4u);
  EXPECT_EQ(copy.size(), 0u);  // NOLINT(bugprone-use-after-move)
  copy.add_compute(core::ComputeStep{});
  EXPECT_EQ(copy.size(), 1u);
  EXPECT_EQ(moved.size(), 4u);
}

// ---------------------------------------------------------- determinism

TEST(BatchPredictor, FourThreadBatchBitIdenticalToSerial) {
  // Randomized job mix (reused seeds included so programs repeat).
  std::vector<RandomCase> cases;
  cases.reserve(24);
  for (std::uint64_t seed : {11u, 22u, 33u, 44u, 55u, 66u, 77u, 88u}) {
    cases.push_back(make_random_case(seed));
    cases.push_back(make_random_case(seed + 1000));
    cases.push_back(make_random_case(seed));  // duplicate of the first
  }
  std::vector<runtime::PredictJob> jobs;
  jobs.reserve(cases.size());
  for (const auto& c : cases) {
    jobs.push_back(runtime::PredictJob{&c.program, c.params, &c.costs});
  }

  core::ProgramSimOptions sim;
  sim.seed = 7;
  std::vector<core::Prediction> serial;
  serial.reserve(jobs.size());
  for (const auto& job : jobs) {
    serial.push_back(
        core::Predictor{job.params, sim}.predict_or_die(*job.program, *job.costs));
  }

  // Without cache.
  runtime::metrics::Registry metrics;
  runtime::BatchPredictor batch{{.threads = 4, .sim = sim,
                                 .metrics = &metrics}};
  const auto results = batch.predict_all(jobs);
  ASSERT_EQ(results.size(), jobs.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << results[i].error();
    expect_identical(results[i].value(), serial[i]);
  }

  // With cache (duplicates hit; hits must still be bit-identical).
  runtime::PredictionCache cache;
  runtime::BatchPredictor cached{{.threads = 4, .sim = sim, .cache = &cache,
                                  .metrics = &metrics}};
  const auto cold = cached.predict_all(jobs);
  const auto warm = cached.predict_all(jobs);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    ASSERT_TRUE(cold[i].ok()) << cold[i].error();
    ASSERT_TRUE(warm[i].ok()) << warm[i].error();
    expect_identical(cold[i].value(), serial[i]);
    expect_identical(warm[i].value(), serial[i]);
  }
  // The warm pass is answered entirely from the cache.
  EXPECT_GE(cache.stats().hits, jobs.size());

  // Jobs that borrow one program object at different seeds: the workers
  // hash it, compare it and share its steps into cache entries at once.
  std::vector<runtime::PredictJob> borrowed;
  std::vector<core::Prediction> borrowed_serial;
  for (std::size_t c = 0; c < 3; ++c) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      runtime::PredictJob job;
      job.program = &cases[c].program;
      job.params = cases[c].params;
      job.costs = &cases[c].costs;
      job.seed = seed;
      borrowed.push_back(job);
      core::ProgramSimOptions seeded = sim;
      seeded.seed = seed;
      borrowed_serial.push_back(core::Predictor{job.params, seeded}
                                    .predict_or_die(*job.program, *job.costs));
    }
  }
  for (int pass = 0; pass < 2; ++pass) {
    const auto got = cached.predict_all(borrowed);
    ASSERT_EQ(got.size(), borrowed.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_TRUE(got[i].ok()) << got[i].error();
      expect_identical(got[i].value(), borrowed_serial[i]);
    }
  }
}

TEST(BatchPredictor, ErrorsPropagatePerJobWithoutKillingBatch) {
  const auto good_case = make_random_case(5);
  runtime::PredictJob good{&good_case.program, good_case.params,
                           &good_case.costs};
  runtime::PredictJob null_program{nullptr, good_case.params,
                                   &good_case.costs};
  runtime::PredictJob null_costs{&good_case.program, good_case.params,
                                 nullptr};

  runtime::metrics::Registry metrics;
  runtime::BatchPredictor batch{{.threads = 2, .metrics = &metrics}};
  const auto results =
      batch.predict_all({good, null_program, good, null_costs});
  ASSERT_EQ(results.size(), 4u);
  EXPECT_TRUE(results[0].ok());
  EXPECT_FALSE(results[1].ok());
  EXPECT_FALSE(results[1].error().empty());
  EXPECT_EQ(results[1].status.code(), ErrorCode::kInvalidInput);
  EXPECT_TRUE(results[2].ok());
  EXPECT_FALSE(results[3].ok());
  EXPECT_EQ(metrics.counter("batch.job_errors").value(), 2u);
  EXPECT_EQ(metrics.counter("batch.jobs_run").value(), 2u);
}

TEST(BatchPredictor, EveryJobExitPathCompletesTheBatch) {
  // predict_all waits for every job to report back; a job that ended
  // without reporting would hang this call.  The closure, keyed off the
  // work item's block size, throws three ways; two more jobs stop on
  // their own deadline and cancel token; the rest run to completion.
  core::ProgramSimOptions sim;
  sim.compute_overhead = [](const core::WorkItem& item,
                            std::span<const std::int64_t>) {
    if (item.block_size == 5) throw std::runtime_error("closure failed");
    if (item.block_size == 6) throw std::bad_alloc{};
    if (item.block_size == 7) throw 42;  // not a std::exception
    return Time::zero();
  };
  const core::CostTable costs = tiny_costs();
  const loggp::Params params = loggp::presets::meiko_cs2(2);
  std::vector<core::StepProgram> programs;
  for (int block = 4; block <= 11; ++block) {
    programs.push_back(tiny_program(block));
  }
  std::vector<runtime::PredictJob> jobs;
  for (const auto& program : programs) {
    jobs.push_back(runtime::PredictJob{&program, params, &costs});
  }
  jobs[4].deadline = std::chrono::nanoseconds{1};
  jobs[5].cancel = fault::CancelToken::create();
  jobs[5].cancel.cancel();

  runtime::metrics::Registry metrics;
  runtime::BatchPredictor batch{
      {.threads = 4, .sim = sim, .metrics = &metrics}};
  const auto results = batch.predict_all(jobs);
  ASSERT_EQ(results.size(), jobs.size());

  const std::array<ErrorCode, 5> failed{
      ErrorCode::kInternal, ErrorCode::kTransient, ErrorCode::kInternal,
      ErrorCode::kTimeout, ErrorCode::kCancelled};
  for (std::size_t k = 0; k < failed.size(); ++k) {
    const runtime::JobResult& r = results[k + 1];
    ASSERT_FALSE(r.ok()) << "job " << k + 1;
    EXPECT_EQ(r.status.code(), failed[k]) << "job " << k + 1 << ": "
                                          << r.error();
  }
  for (const std::size_t i : {0u, 6u, 7u}) {
    ASSERT_TRUE(results[i].ok()) << results[i].error();
    expect_identical(
        results[i].value(),
        core::Predictor{params, sim}.predict_or_die(programs[i], costs));
  }
  EXPECT_EQ(metrics.counter("batch.jobs_run").value(), 3u);
  EXPECT_EQ(metrics.counter("batch.job_errors").value(), 5u);
  EXPECT_EQ(metrics.counter("batch.timeouts").value(), 1u);
  EXPECT_EQ(metrics.counter("batch.cancelled").value(), 1u);
}

// ------------------------------------------------------------------ cache

TEST(PredictionCache, HitAndMissCountersAndExactKeying) {
  const auto costs = tiny_costs();
  const auto params = loggp::presets::meiko_cs2(2);
  const core::Predictor predictor{params};
  const auto prog_a = tiny_program(4);
  const auto pred_a = predictor.predict_or_die(prog_a, costs);

  runtime::PredictionCache cache;
  EXPECT_FALSE(cache.lookup(prog_a, costs, params, 1).has_value());  // miss
  cache.insert(prog_a, costs, params, 1, pred_a);
  const auto hit = cache.lookup(prog_a, costs, params, 1);
  ASSERT_TRUE(hit.has_value());
  expect_identical(*hit, pred_a);

  // Different params / seed are different keys.
  auto other = params;
  other.L = Time{other.L.us() + 1.0};
  EXPECT_FALSE(cache.lookup(prog_a, costs, other, 1).has_value());
  EXPECT_FALSE(cache.lookup(prog_a, costs, params, 2).has_value());

  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.25);
}

TEST(PredictionCache, DistinctProgramsForcedIntoOneShardStayDistinct) {
  // A single-shard cache forces every key into the same shard; operator==
  // verification must still route each lookup to its own entry even though
  // the shard (and possibly the hash bucket) is shared.
  const auto costs = tiny_costs();
  const auto params = loggp::presets::meiko_cs2(2);
  const core::Predictor predictor{params};
  const auto prog_a = tiny_program(4);
  const auto prog_b = tiny_program(64);
  ASSERT_NE(prog_a, prog_b);  // distinct programs (satellite operator==)

  runtime::PredictionCache cache{{.shards = 1}};
  const auto hash_a = runtime::prediction_key_hash(prog_a, costs, params, 1);
  const auto hash_b = runtime::prediction_key_hash(prog_b, costs, params, 1);
  EXPECT_EQ(cache.shard_of(hash_a), cache.shard_of(hash_b));  // same shard

  const auto pred_a = predictor.predict_or_die(prog_a, costs);
  const auto pred_b = predictor.predict_or_die(prog_b, costs);
  cache.insert(prog_a, costs, params, 1, pred_a);
  cache.insert(prog_b, costs, params, 1, pred_b);

  const auto hit_a = cache.lookup(prog_a, costs, params, 1);
  const auto hit_b = cache.lookup(prog_b, costs, params, 1);
  ASSERT_TRUE(hit_a.has_value());
  ASSERT_TRUE(hit_b.has_value());
  expect_identical(*hit_a, pred_a);
  expect_identical(*hit_b, pred_b);
  // The two predictions genuinely differ, so a collision mix-up would show.
  EXPECT_NE(hit_a->standard.total.us(), hit_b->standard.total.us());
}

TEST(PredictionCache, LruEvictionUnderByteBudget) {
  const auto costs = tiny_costs();
  const auto params = loggp::presets::meiko_cs2(2);
  const core::Predictor predictor{params};

  // Three structurally identical-footprint programs.
  const auto prog_a = tiny_program(4);
  const auto prog_b = tiny_program(8);
  const auto prog_c = tiny_program(16);
  const auto pred_a = predictor.predict_or_die(prog_a, costs);
  const auto pred_b = predictor.predict_or_die(prog_b, costs);
  const auto pred_c = predictor.predict_or_die(prog_c, costs);
  const auto entry_bytes = runtime::prediction_entry_bytes(prog_a, pred_a);
  ASSERT_EQ(entry_bytes, runtime::prediction_entry_bytes(prog_b, pred_b));

  // Budget fits exactly two entries.
  runtime::PredictionCache cache{
      {.shards = 1, .byte_budget = 2 * entry_bytes + entry_bytes / 2}};
  cache.insert(prog_a, costs, params, 1, pred_a);
  cache.insert(prog_b, costs, params, 1, pred_b);
  EXPECT_EQ(cache.stats().entries, 2u);

  // Touch A so B becomes least-recently-used, then insert C: B is evicted.
  EXPECT_TRUE(cache.lookup(prog_a, costs, params, 1).has_value());
  cache.insert(prog_c, costs, params, 1, pred_c);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_LE(stats.bytes, 2 * entry_bytes + entry_bytes / 2);
  EXPECT_TRUE(cache.lookup(prog_a, costs, params, 1).has_value());
  EXPECT_TRUE(cache.lookup(prog_c, costs, params, 1).has_value());
  EXPECT_FALSE(cache.lookup(prog_b, costs, params, 1).has_value());
}

TEST(PredictionCache, EntryChargeCountsComputeStepsByTheirArrays) {
  // A work item is three ints and owns nothing; a compute step is charged
  // its three arrays' sizes, so the charge costs O(steps), and each touched
  // id adds 8 bytes.
  static_assert(sizeof(core::WorkItem) == 3 * sizeof(int));
  const auto costs = tiny_costs();
  const auto params = loggp::presets::meiko_cs2(2);
  const auto program_with = [](bool ids) {
    core::StepProgram prog{2};
    core::ComputeStep cs;
    cs.add({0, 0, 4}, ids ? std::vector<std::int64_t>{1, 2}
                          : std::vector<std::int64_t>{});
    cs.add({1, 0, 4}, ids ? std::vector<std::int64_t>{3}
                          : std::vector<std::int64_t>{});
    cs.add({1, 0, 64});
    prog.add_compute(cs);
    pattern::CommPattern pat{2};
    pat.add(0, 1, Bytes{64});
    prog.add_comm(pat);
    return prog;
  };
  const auto with_ids = program_with(true);
  const auto pred = core::Predictor{params}.predict_or_die(with_ids, costs);
  const std::size_t charge = runtime::prediction_entry_bytes(with_ids, pred);
  EXPECT_EQ(charge,
            sizeof(core::StepProgram) + sizeof(core::Prediction) +
                2 * sizeof(core::StepProgram::Step) +
                3 * (sizeof(core::WorkItem) + sizeof(std::uint32_t)) +
                3 * sizeof(std::int64_t) + sizeof(pattern::Message) +
                2 * 3 * 2 * sizeof(Time));  // 2 schedules x 3 vectors x P
  EXPECT_EQ(charge - runtime::prediction_entry_bytes(program_with(false), pred),
            3 * sizeof(std::int64_t));
}

TEST(PredictionCache, OversizedEntryIsNotRetained) {
  const auto costs = tiny_costs();
  const auto params = loggp::presets::meiko_cs2(2);
  const auto prog = tiny_program(4);
  const auto pred = core::Predictor{params}.predict_or_die(prog, costs);
  runtime::PredictionCache cache{{.shards = 1, .byte_budget = 16}};
  cache.insert(prog, costs, params, 1, pred);
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().insertions, 0u);
  EXPECT_EQ(cache.stats().oversized, 1u);  // the drop is counted
  EXPECT_FALSE(cache.lookup(prog, costs, params, 1).has_value());
}

TEST(PredictionCache, HighTagBitsSpreadAcrossShards) {
  // The shard index reads a key's low bits, so those must depend on every
  // input bit: 256 programs that differ only in bits 40-47 of one
  // message's tag must not pile into a few shards.
  const auto costs = tiny_costs();
  const auto params = loggp::presets::meiko_cs2(2);
  const runtime::PredictionCache cache;
  ASSERT_EQ(cache.shard_count(), 16u);
  std::set<std::size_t> shards;
  for (std::int64_t k = 0; k < 256; ++k) {
    core::StepProgram program{2};
    pattern::CommPattern pat{2};
    pat.add(0, 1, Bytes{64}, k << 40);
    program.add_comm(std::move(pat));
    shards.insert(cache.shard_of(
        runtime::prediction_key_hash(program, costs, params, 1)));
  }
  EXPECT_GE(shards.size(), 12u);
}

TEST(PredictionCache, CanonicalHashIsStructural) {
  // Two independently built but structurally equal programs hash equal.
  const auto costs = tiny_costs();
  const auto params = loggp::presets::meiko_cs2(2);
  EXPECT_EQ(runtime::prediction_key_hash(tiny_program(4), costs, params, 1),
            runtime::prediction_key_hash(tiny_program(4), costs, params, 1));
  EXPECT_NE(runtime::prediction_key_hash(tiny_program(4), costs, params, 1),
            runtime::prediction_key_hash(tiny_program(64), costs, params, 1));
}

TEST(PredictionCache, TouchedIdsShareAKeyButNeverAHit) {
  // The key skips touched ids, which the LogGP predictor never reads;
  // verification compares them, so the two programs collide on the key
  // and still miss each other.
  const auto costs = tiny_costs();
  const auto params = loggp::presets::meiko_cs2(2);
  core::StepProgram a{2};
  core::StepProgram b{2};
  core::ComputeStep two_ids;
  two_ids.add({0, 0, 4}, {1, 2});
  core::ComputeStep one_id;
  one_id.add({0, 0, 4}, {3});
  a.add_compute(two_ids);
  b.add_compute(one_id);
  ASSERT_NE(a, b);
  EXPECT_EQ(runtime::prediction_key_hash(a, costs, params, 1),
            runtime::prediction_key_hash(b, costs, params, 1));

  runtime::PredictionCache cache;
  cache.insert(a, costs, params, 1,
               core::Predictor{params}.predict_or_die(a, costs));
  EXPECT_FALSE(cache.lookup(b, costs, params, 1).has_value());
  EXPECT_TRUE(cache.lookup(a, costs, params, 1).has_value());
}

TEST(BatchPredictor, PublicKeyHashFindsWhatTheEngineInserted) {
  // prediction_key_hash is the key the engine gives a job, so a hashed
  // lookup with it hits the entry predict_all inserted.
  const auto c = make_random_case(9);
  runtime::PredictionCache cache;
  runtime::metrics::Registry metrics;
  runtime::BatchPredictor batch{
      {.threads = 2, .sim = {}, .cache = &cache, .metrics = &metrics}};
  runtime::PredictJob job{&c.program, c.params, &c.costs};
  job.seed = 5;
  const auto results = batch.predict_all({job});
  ASSERT_TRUE(results[0].ok()) << results[0].error();
  ASSERT_EQ(cache.stats().insertions, 1u);

  const auto hit = cache.lookup(
      runtime::prediction_key_hash(c.program, c.costs, c.params, 5),
      c.program, c.costs, c.params, 5);
  ASSERT_TRUE(hit.has_value());
  expect_identical(*hit, results[0].value());
}

TEST(BatchPredictor, UnkeyedJobsNeverReachTheCache) {
  // A bypass, non-flat, traced or compute_overhead job is compiled without
  // a key: it neither probes nor fills the cache, and still predicts what
  // the serial Predictor does.
  const auto c = make_random_case(21);
  const auto torus =
      network::NetworkModel::create(network::TopologySpec::torus(4, 2));
  ASSERT_FALSE(torus->is_flat());
  obs::SimTraceRecorder recorder;
  runtime::PredictJob bypass{&c.program, c.params, &c.costs};
  bypass.bypass_cache = true;
  runtime::PredictJob shaped{&c.program, c.params, &c.costs};
  shaped.net = torus.get();
  runtime::PredictJob traced{&c.program, c.params, &c.costs};
  traced.sim_trace = &recorder;

  runtime::PredictionCache cache;
  runtime::metrics::Registry metrics;
  runtime::BatchPredictor batch{
      {.threads = 2, .sim = {}, .cache = &cache, .metrics = &metrics}};
  for (const auto& job : {bypass, shaped, traced}) {
    const auto result = batch.predict_one(job);
    ASSERT_TRUE(result.ok()) << result.error();
    core::ProgramSimOptions sim;
    sim.net = job.net;
    expect_identical(result.value(), core::Predictor{c.params, sim}
                                         .predict_or_die(c.program, c.costs));
  }
  EXPECT_FALSE(recorder.empty());

  core::ProgramSimOptions overhead;
  overhead.compute_overhead = [](const core::WorkItem&,
                                 std::span<const std::int64_t>) {
    return Time{1.0};
  };
  runtime::BatchPredictor with_overhead{
      {.threads = 2, .sim = overhead, .cache = &cache, .metrics = &metrics}};
  const auto result =
      with_overhead.predict_one({&c.program, c.params, &c.costs});
  ASSERT_TRUE(result.ok()) << result.error();
  expect_identical(result.value(), core::Predictor{c.params, overhead}
                                       .predict_or_die(c.program, c.costs));

  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, 0u) << "an unkeyed job probed the cache";
  EXPECT_EQ(stats.insertions, 0u) << "an unkeyed job filled the cache";
}

// ---------------------------------------------------------------- metrics

TEST(Metrics, CountersHistogramsAndRendering) {
  runtime::metrics::Registry registry;
  registry.counter("test.events").add(3);
  registry.counter("test.events").add();
  EXPECT_EQ(registry.counter("test.events").value(), 4u);

  auto& h = registry.histogram("test.latency", "us");
  h.record(2.0);
  h.record(6.0);
  h.record(4.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.mean(), 4.0);
  EXPECT_DOUBLE_EQ(h.min(), 2.0);
  EXPECT_DOUBLE_EQ(h.max(), 6.0);

  registry.set_gauge("test.mode", "warm");
  const std::string rendered = registry.to_string();
  EXPECT_NE(rendered.find("test.events"), std::string::npos);
  EXPECT_NE(rendered.find("test.latency (us)"), std::string::npos);
  EXPECT_NE(rendered.find("warm"), std::string::npos);

  registry.reset();
  EXPECT_EQ(registry.counter("test.events").value(), 0u);
  EXPECT_EQ(h.count(), 0u);
}

// ----------------------------------------------------------------- search

TEST(BatchSearch, ExhaustiveBatchMatchesSerialOverload) {
  const auto costs = ops::analytic_cost_table();
  const auto params = loggp::presets::meiko_cs2(8);
  const layout::DiagonalMap diag{8};
  const layout::RowCyclic row{8};
  const std::vector<int> blocks{8, 16, 32};
  const search::ProgramFactory factory = [](int b, const layout::Layout& l) {
    return ge::build_ge_program(ge::GeConfig{.n = 192, .block = b}, l);
  };

  const core::Predictor serial_predictor{params};
  const search::Evaluator eval = [&](int b, const layout::Layout& l) {
    return serial_predictor.predict_standard(factory(b, l), costs).total;
  };
  const auto serial = search::exhaustive_search(blocks, {&diag, &row}, eval);

  runtime::metrics::Registry metrics;
  runtime::PredictionCache cache;
  runtime::BatchPredictor batch{{.threads = 4, .cache = &cache,
                                 .metrics = &metrics}};
  const auto parallel = search::exhaustive_search(blocks, {&diag, &row},
                                                  factory, batch, params,
                                                  costs);

  EXPECT_EQ(parallel.best.block, serial.best.block);
  EXPECT_EQ(parallel.best.layout, serial.best.layout);
  EXPECT_EQ(parallel.best.predicted.us(), serial.best.predicted.us());
  ASSERT_EQ(parallel.evaluated.size(), serial.evaluated.size());
  for (std::size_t i = 0; i < serial.evaluated.size(); ++i) {
    EXPECT_EQ(parallel.evaluated[i].block, serial.evaluated[i].block);
    EXPECT_EQ(parallel.evaluated[i].layout, serial.evaluated[i].layout);
    EXPECT_EQ(parallel.evaluated[i].predicted.us(),
              serial.evaluated[i].predicted.us());
  }
  EXPECT_EQ(parallel.evaluations, serial.evaluations);
}

}  // namespace
}  // namespace logsim
