#pragma once
// Parallel batch evaluation of the predictor.
//
// A BatchPredictor owns a ThreadPool and fans a vector of independent
// PredictJobs out across it.  Results come back in input order, each as a
// JobResult that either holds the Prediction or the Status explaining its
// absence -- one bad job never takes down the batch.  Determinism: every
// job runs a self-contained core::Predictor with the configured seed, so
// an N-thread batch returns bit-identical Predictions to running the
// serial Predictor over the same jobs in a loop.  A prediction is a pure
// function of its inputs, so each job runs exactly once: a failure is
// returned to the caller, never retried (DESIGN.md §8).
//
// Stop controls are per job: PredictJob::deadline and PredictJob::cancel
// are polled cooperatively between simulation steps, so an expired job
// returns kTimeout and a cancelled one kCancelled -- neither ever hangs.
//
// An optional PredictionCache memoizes (program, params, seed) triples
// across batches; hits skip the simulation entirely.  All of the above
// feed the metrics Registry (jobs run, errors, timeouts, cancellations,
// wall/queue times).

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/predictor.hpp"
#include "fault/cancel.hpp"
#include "fault/status.hpp"
#include "loggp/params.hpp"
#include "obs/sim_trace.hpp"
#include "runtime/metrics.hpp"
#include "runtime/prediction_cache.hpp"
#include "runtime/step_cache.hpp"
#include "runtime/thread_pool.hpp"

namespace logsim::runtime {

/// One prediction request.  The program and cost table are borrowed, not
/// copied: both must outlive the predict_all() call that evaluates the job.
struct PredictJob {
  const core::StepProgram* program = nullptr;
  loggp::Params params;
  const core::CostTable* costs = nullptr;
  /// Optional simulated-machine timeline capture for THIS job (borrowed,
  /// not thread-safe -- set it on at most one job per batch).  A traced
  /// job bypasses the prediction cache: a hit would skip the simulation
  /// and leave the recorder empty.  The recorder ends up holding the
  /// standard-schedule run (see core::Predictor).
  obs::SimTraceRecorder* sim_trace = nullptr;
  /// Optional stop controls for THIS job, polled between simulation steps
  /// (the serving layer sets both per request).  Neither affects the
  /// prediction value, so cached results still apply.
  fault::CancelToken cancel;
  /// Wall-clock budget for this job, counted from when a worker starts
  /// it; zero disables.
  std::chrono::steady_clock::duration deadline{};
  /// Optional per-job simulation-seed override (worst-case tie-breaking);
  /// nullopt uses Config::sim.seed.  The effective seed is part of the
  /// cache key, so jobs with different seeds never share an entry.  The
  /// serving layer maps the wire request's seed here.
  std::optional<std::uint64_t> seed = std::nullopt;
  /// Skips the PredictionCache for this job: for callers that memoize at
  /// a higher level (the registry's per-handle memo), so the prediction is
  /// not stored twice.  The comm-step cache still applies.
  bool bypass_cache = false;
  /// Optional topology backend override for THIS job (borrowed; must
  /// outlive the predict call).  nullptr inherits Config::sim.net.  A
  /// non-flat model implies bypass_cache: prediction keys do not carry the
  /// topology, and the comm-step cache is disabled inside the simulator
  /// for the same reason (see core::ProgramSimOptions::net).
  const network::NetworkModel* net = nullptr;
};

/// Per-job outcome: a Prediction, or the Status explaining its absence.
struct JobResult {
  std::optional<core::Prediction> prediction;
  Status status;            ///< ok() iff prediction.has_value()
  bool from_cache = false;  ///< served by the PredictionCache

  [[nodiscard]] bool ok() const { return prediction.has_value(); }
  /// Precondition: ok().
  [[nodiscard]] const core::Prediction& value() const { return *prediction; }
  /// Rendered status for diagnostics; empty when ok().
  [[nodiscard]] std::string error() const {
    return ok() ? std::string{} : status.to_string();
  }
};

class BatchPredictor {
 public:
  struct Config {
    /// Worker threads; 0 means std::thread::hardware_concurrency().
    std::size_t threads = 0;
    /// Simulation options shared by every job (seed, worst-case toggle).
    /// A compute_overhead callback, if set, must be thread-safe; jobs using
    /// one bypass the cache (a closure has no canonical hash).  The
    /// cancel/deadline fields are overwritten per job.
    core::ProgramSimOptions sim;
    /// Optional memoization cache; borrowed, may be shared across
    /// BatchPredictors.  nullptr disables memoization.
    PredictionCache* cache = nullptr;
    /// Optional comm-step cache shared by every worker (and across
    /// BatchPredictors); distinct canonical comm steps are simulated once
    /// per (params, readies) key across the whole batch.  Unlike the
    /// whole-program cache, it also serves jobs with a compute_overhead
    /// closure -- the closure only perturbs compute steps, never the comm
    /// steps this cache keys on.  nullptr disables.
    SharedStepCache* step_cache = nullptr;
    /// Metrics sink; nullptr means metrics::Registry::global().
    metrics::Registry* metrics = nullptr;
  };

  BatchPredictor() : BatchPredictor(Config{}) {}
  explicit BatchPredictor(Config config);

  /// Evaluates all jobs concurrently; result i corresponds to job i.
  /// Blocks until every job has finished; a job stopped by its own
  /// deadline or cancel token finishes as kTimeout/kCancelled.
  /// Thread-safe: concurrent predict_all() calls share the pool (FIFO).
  [[nodiscard]] std::vector<JobResult> predict_all(
      const std::vector<PredictJob>& jobs);

  /// Convenience: evaluates one job on the calling thread through the
  /// same cache + metrics path.  High-rate callers (the serving layer)
  /// pass publish_gauges = false so a warm cache hit stays at memory
  /// speed, and publish on their own cadence instead.
  [[nodiscard]] JobResult predict_one(const PredictJob& job,
                                      bool publish_gauges = true);

  [[nodiscard]] std::size_t threads() const { return pool_.size(); }
  [[nodiscard]] PredictionCache* cache() const { return cache_; }
  [[nodiscard]] SharedStepCache* step_cache() const { return step_cache_; }
  [[nodiscard]] metrics::Registry& metrics() const { return *metrics_; }
  [[nodiscard]] const Config& config() const { return config_; }

  /// Publishes current cache hit-rate / entry / failpoint gauges into the
  /// registry (called automatically at the end of every predict_all).
  void publish_cache_gauges();

 private:
  /// True when the job reads and fills the prediction cache, so its
  /// compile pass also computes its key.
  [[nodiscard]] bool keyed(const PredictJob& job) const;
  JobResult run_job(const PredictJob& job, std::uint64_t trace_id);
  Status run_attempt(const PredictJob& job,
                     std::chrono::steady_clock::time_point deadline,
                     JobResult* result);

  Config config_;
  core::ProgramSimOptions sim_;
  PredictionCache* cache_;
  SharedStepCache* step_cache_;
  metrics::Registry* metrics_;
  metrics::Counter& jobs_run_;
  metrics::Counter& job_errors_;
  metrics::Counter& timeouts_;
  metrics::Counter& cancelled_;
  metrics::Histogram& job_wall_us_;
  metrics::Histogram& queue_wait_us_;
  ThreadPool pool_;  // last: workers must never outlive the fields above
};

}  // namespace logsim::runtime
