// Failpoint-driven matrix tests for the hardened batch runtime: per-job
// deadlines, cooperative mid-batch cancellation through per-job tokens, a
// thread pool that survives throwing tasks, and graceful degradation of
// the prediction cache under injected faults.  Everything here drives the
// GLOBAL failpoint registry -- each test scopes its configuration with
// ScopedFailpoints so the next test starts disarmed.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <new>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/predictor.hpp"
#include "fault/cancel.hpp"
#include "fault/failpoint.hpp"
#include "loggp/params.hpp"
#include "runtime/batch_predictor.hpp"
#include "runtime/metrics.hpp"
#include "runtime/prediction_cache.hpp"
#include "runtime/thread_pool.hpp"

namespace logsim {
namespace {

using std::chrono::nanoseconds;

/// Arms the global registry for one test; disarms on scope exit.
struct ScopedFailpoints {
  explicit ScopedFailpoints(const std::string& spec, std::uint64_t seed = 1) {
    const Status st = fault::FailpointRegistry::global().configure(spec, seed);
    EXPECT_TRUE(st.ok()) << st.to_string();
  }
  ~ScopedFailpoints() { fault::FailpointRegistry::global().clear(); }
};

/// Distinct two-proc programs keyed by `block`.
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

struct Fixture {
  std::vector<core::StepProgram> programs;
  core::CostTable costs = tiny_costs();
  loggp::Params params = loggp::presets::meiko_cs2(2);
  std::vector<runtime::PredictJob> jobs;
  std::vector<core::Prediction> serial;

  explicit Fixture(int n) {
    programs.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) programs.push_back(tiny_program(4 + i));
    for (const auto& p : programs) {
      jobs.push_back(runtime::PredictJob{&p, params, &costs});
      serial.push_back(core::Predictor{params}.predict_or_die(p, costs));
    }
  }
};

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

// ---------------------------------------------------------- deadlines

TEST(HardenedRuntime, ExpiredJobDeadlineReturnsTimeout) {
  Fixture fx{2};
  for (auto& job : fx.jobs) job.deadline = nanoseconds{1};
  runtime::metrics::Registry metrics;
  runtime::BatchPredictor batch{{.threads = 2, .metrics = &metrics}};
  const auto results = batch.predict_all(fx.jobs);
  for (const auto& r : results) {
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status.code(), ErrorCode::kTimeout);
  }
  EXPECT_EQ(metrics.counter("batch.timeouts").value(), 2u);
}

TEST(HardenedRuntime, ThreadPoolSurvivesThrowingTasks) {
  runtime::ThreadPool pool{2};
  std::atomic<int> ran{0};
  for (int i = 0; i < 16; ++i) {
    pool.submit([&ran, i](std::chrono::steady_clock::duration) {
      if (i == 1) throw std::runtime_error("task failed");
      if (i == 6) throw std::bad_alloc{};
      if (i == 11) throw 42;  // not a std::exception
      ++ran;
    });
  }
  pool.wait_idle();  // must not deadlock on the three throwing tasks
  EXPECT_EQ(pool.task_exceptions(), 3u);
  EXPECT_EQ(ran.load(), 13);
}

TEST(HardenedRuntime, DelayFailpointSlowsButDoesNotFail) {
  const Fixture fx{2};
  const ScopedFailpoints fp{"batch.job:delay@1ms"};
  runtime::metrics::Registry metrics;
  runtime::BatchPredictor batch{{.threads = 2, .metrics = &metrics}};
  const auto results = batch.predict_all(fx.jobs);
  for (std::size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << results[i].error();
    expect_identical(results[i].value(), fx.serial[i]);
  }
  EXPECT_EQ(fault::FailpointRegistry::global().fires("batch.job"), 2u);
}

// ----------------------------------------------------------- cancellation

TEST(HardenedRuntime, PreCancelledBatchShortCircuitsEveryJob) {
  Fixture fx{3};
  const fault::CancelToken cancel = fault::CancelToken::create();
  cancel.cancel();
  for (auto& job : fx.jobs) job.cancel = cancel;

  runtime::metrics::Registry metrics;
  runtime::BatchPredictor batch{{.threads = 2, .metrics = &metrics}};
  const auto results = batch.predict_all(fx.jobs);
  for (const auto& r : results) {
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status.code(), ErrorCode::kCancelled);
  }
  EXPECT_EQ(metrics.counter("batch.cancelled").value(), 3u);
  EXPECT_EQ(metrics.counter("batch.jobs_run").value(), 0u);
}

TEST(HardenedRuntime, MidBatchCancellationStopsInFlightAndQueuedJobs) {
  Fixture fx{4};
  const fault::CancelToken cancel = fault::CancelToken::create();
  for (auto& job : fx.jobs) job.cancel = cancel;

  // The first simulated work item pulls the plug; the in-flight job must
  // observe it at its next step boundary, queued jobs before their first.
  auto fired = std::make_shared<std::atomic<bool>>(false);
  core::ProgramSimOptions sim;
  sim.compute_overhead = [fired, cancel](const core::WorkItem&,
                                         std::span<const std::int64_t>) {
    if (!fired->exchange(true)) cancel.cancel();
    return Time::zero();
  };

  runtime::metrics::Registry metrics;
  runtime::BatchPredictor batch{
      {.threads = 1, .sim = sim, .metrics = &metrics}};
  const auto results = batch.predict_all(fx.jobs);
  for (const auto& r : results) {
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status.code(), ErrorCode::kCancelled);
  }
  EXPECT_EQ(metrics.counter("batch.cancelled").value(), 4u);
}

// ------------------------------------------------------------------ cache

TEST(HardenedRuntime, CacheFailpointsDegradeToMissesNotFailures) {
  const Fixture fx{4};
  runtime::PredictionCache cache;
  runtime::metrics::Registry metrics;
  runtime::BatchPredictor batch{
      {.threads = 2, .cache = &cache, .metrics = &metrics}};

  const auto warmup = batch.predict_all(fx.jobs);
  for (const auto& r : warmup) ASSERT_TRUE(r.ok()) << r.error();
  ASSERT_EQ(cache.stats().entries, fx.jobs.size());

  // With lookups failing, the warm cache looks cold: every job recomputes
  // (bit-identically) instead of erroring out.
  const ScopedFailpoints fp{"cache.lookup:err"};
  const auto degraded = batch.predict_all(fx.jobs);
  for (std::size_t i = 0; i < degraded.size(); ++i) {
    ASSERT_TRUE(degraded[i].ok()) << degraded[i].error();
    EXPECT_FALSE(degraded[i].from_cache);
    expect_identical(degraded[i].value(), fx.serial[i]);
  }
}

TEST(HardenedRuntime, CacheInsertFailpointDropsEntriesSilently) {
  const Fixture fx{3};
  const ScopedFailpoints fp{"cache.insert:err"};
  runtime::PredictionCache cache;
  runtime::metrics::Registry metrics;
  runtime::BatchPredictor batch{
      {.threads = 2, .cache = &cache, .metrics = &metrics}};
  const auto results = batch.predict_all(fx.jobs);
  for (std::size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << results[i].error();
    expect_identical(results[i].value(), fx.serial[i]);
  }
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(HardenedRuntime, ArmedRegistryPublishesFireGauge) {
  const Fixture fx{1};
  const ScopedFailpoints fp{"cache.lookup:err#1"};
  runtime::PredictionCache cache;
  runtime::metrics::Registry metrics;
  runtime::BatchPredictor batch{
      {.threads = 1, .cache = &cache, .metrics = &metrics}};
  const auto results = batch.predict_all(fx.jobs);
  ASSERT_TRUE(results[0].ok()) << results[0].error();
  EXPECT_EQ(fault::FailpointRegistry::global().fires("cache.lookup"), 1u);
  EXPECT_NE(metrics.to_string().find("fault.failpoint_fires"),
            std::string::npos);
}

}  // namespace
}  // namespace logsim
