#include "runtime/batch_predictor.hpp"

#include <chrono>
#include <condition_variable>
#include <exception>
#include <initializer_list>
#include <mutex>
#include <new>
#include <thread>
#include <utility>

#include "fault/failpoint.hpp"
#include "network/network_model.hpp"
#include "obs/trace.hpp"
#include "util/table.hpp"

namespace logsim::runtime {

namespace {

std::size_t resolve_threads(std::size_t requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

double to_us(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

constexpr auto kNoDeadline = std::chrono::steady_clock::time_point::max();

}  // namespace

BatchPredictor::BatchPredictor(Config config)
    : config_(config),
      sim_(std::move(config.sim)),
      cache_(config.cache),
      step_cache_(config.step_cache),
      metrics_(config.metrics != nullptr ? config.metrics
                                         : &metrics::Registry::global()),
      jobs_run_(metrics_->counter("batch.jobs_run")),
      job_errors_(metrics_->counter("batch.job_errors")),
      timeouts_(metrics_->counter("batch.timeouts")),
      cancelled_(metrics_->counter("batch.cancelled")),
      job_wall_us_(metrics_->histogram("batch.job_wall", "us")),
      queue_wait_us_(metrics_->histogram("batch.queue_wait", "us")),
      pool_(resolve_threads(config.threads)) {
  // The cancel/deadline fields are injected per job; a caller-set value
  // here would silently leak into every job, so normalize them away.
  sim_.cancel = fault::CancelToken{};
  sim_.deadline = kNoDeadline;
  // Config.step_cache wins over a cache wired in via sim options, so the
  // step_cache.* gauges always describe the cache the workers actually use
  // (a plain sim-options pointer still works, it just publishes no stats).
  if (step_cache_ != nullptr) sim_.step_cache = step_cache_;
}

std::vector<JobResult> BatchPredictor::predict_all(
    const std::vector<PredictJob>& jobs) {
  if (jobs.empty()) return {};

  // Lives on this frame: the wait below returns only after every task has
  // reported in, and each task touches the state last under `mu`.
  struct BatchState {
    std::vector<JobResult> results;
    std::mutex mu;
    std::condition_variable done_cv;
    std::size_t remaining = 0;
  } state;
  state.results.resize(jobs.size());
  state.remaining = jobs.size();

  for (std::size_t i = 0; i < jobs.size(); ++i) {
    pool_.submit([this, &jobs, &state,
                  i](std::chrono::steady_clock::duration queue_wait) {
      queue_wait_us_.record(to_us(queue_wait));
      if (obs::TraceSession& tracer = obs::TraceSession::global();
          tracer.enabled()) {
        // Queueing time as a span ending "now": makes queue pressure
        // visible on the worker's track right before the job span.
        const double wait_us = to_us(queue_wait);
        tracer.complete("batch.queued", "batch", tracer.now_us() - wait_us,
                        wait_us, i);
      }
      JobResult result = run_job(jobs[i], i);
      std::lock_guard lock{state.mu};
      state.results[i] = std::move(result);
      // Notify under the lock: once the waiter sees zero it returns and
      // `state` is gone, so nothing may touch it after the unlock.
      if (--state.remaining == 0) state.done_cv.notify_all();
    });
  }

  {
    std::unique_lock lock{state.mu};
    state.done_cv.wait(lock, [&state] { return state.remaining == 0; });
  }
  publish_cache_gauges();
  return std::move(state.results);
}

JobResult BatchPredictor::predict_one(const PredictJob& job,
                                      bool publish_gauges) {
  JobResult result = run_job(job, obs::kNoId);
  if (publish_gauges) publish_cache_gauges();
  return result;
}

bool BatchPredictor::keyed(const PredictJob& job) const {
  // A compute_overhead closure is opaque to the canonical hash, a traced
  // job must actually simulate, and a shaped network is not part of the
  // key: all of them bypass the cache, so their compile hashes nothing.
  const network::NetworkModel* net = job.net != nullptr ? job.net : sim_.net;
  return cache_ != nullptr && !job.bypass_cache && !sim_.compute_overhead &&
         job.sim_trace == nullptr && (net == nullptr || net->is_flat());
}

JobResult BatchPredictor::run_job(const PredictJob& job,
                                  std::uint64_t trace_id) {
  obs::TraceSession& tracer = obs::TraceSession::global();
  obs::Span job_span{tracer, "batch.job", "batch", trace_id};
  const auto start = std::chrono::steady_clock::now();
  const auto deadline =
      job.deadline.count() > 0 ? start + job.deadline : kNoDeadline;

  JobResult result;
  result.status = run_attempt(job, deadline, &result);
  if (result.status.ok()) {
    jobs_run_.add();
  } else {
    if (result.status.code() == ErrorCode::kTimeout) {
      timeouts_.add();
      if (tracer.enabled()) tracer.instant("batch.timeout", "batch", trace_id);
    }
    if (result.status.code() == ErrorCode::kCancelled) {
      cancelled_.add();
      if (tracer.enabled()) {
        tracer.instant("batch.cancelled", "batch", trace_id);
      }
    }
    job_errors_.add();
  }
  job_wall_us_.record(to_us(std::chrono::steady_clock::now() - start));
  return result;
}

Status BatchPredictor::run_attempt(
    const PredictJob& job, std::chrono::steady_clock::time_point deadline,
    JobResult* result) {
  // Every exit is a returned Status, exceptions included: the caller's
  // batch counts on each job reporting back exactly once.
  try {
    if (job.program == nullptr || job.costs == nullptr) {
      return Status::invalid_input(
          "PredictJob: program and costs must be non-null");
    }
    // The canonical fault injection site for the batch runtime.
    if (Status st = fault::failpoint("batch.job"); !st.ok()) {
      return st.with_context("while running a prediction job");
    }
    const std::uint64_t seed = job.seed.value_or(sim_.seed);
    // One walk, on the worker, so it runs in parallel and counts in
    // batch.job_wall: it validates the job and, for a cached job, hashes
    // the key that serves the lookup and the miss insert.
    Result<core::CompiledProgram> compiled =
        core::compile(*job.program, *job.costs, job.params, keyed(job));
    if (!compiled.ok()) {
      return Status{compiled.status()}.with_context(
          "while validating prediction inputs");
    }
    std::optional<std::uint64_t> key;
    if (const auto hash = compiled->hash()) {
      key = prediction_key_hash(*hash, job.params, seed);
      if (auto hit = cache_->lookup(*key, *job.program, *job.costs,
                                    job.params, seed)) {
        result->prediction = std::move(hit);
        result->from_cache = true;
        return Status{};
      }
    }
    core::ProgramSimOptions opts = sim_;
    opts.cancel = job.cancel;
    opts.deadline = deadline;
    opts.sim_trace = job.sim_trace;
    opts.seed = seed;
    if (job.net != nullptr) opts.net = job.net;
    const core::Predictor predictor{job.params, opts};
    Result<core::Prediction> prediction = predictor.predict(*compiled);
    if (!prediction.ok()) return prediction.status();
    result->prediction = std::move(prediction).value();
    if (key.has_value()) {
      cache_->insert(*key, *job.program, *job.costs, job.params, seed,
                     *result->prediction);
    }
    return Status{};
  } catch (const std::bad_alloc&) {
    return Status::transient("out of memory while running a prediction job");
  } catch (const std::exception& e) {
    return Status::internal(std::string{"prediction job threw: "} + e.what());
  } catch (...) {
    return Status::internal("prediction job threw an unknown exception");
  }
}

void BatchPredictor::publish_cache_gauges() {
  if (fault::FailpointRegistry::global().armed()) {
    metrics_->set_gauge(
        "fault.failpoint_fires",
        std::to_string(fault::FailpointRegistry::global().total_fires()));
  }
  using Counts = std::initializer_list<std::pair<const char*, std::uint64_t>>;
  const auto publish = [this](const std::string& prefix, Counts counts,
                              double hit_rate) {
    for (const auto& [name, value] : counts) {
      metrics_->set_gauge(prefix + name, std::to_string(value));
    }
    metrics_->set_gauge(prefix + "hit_rate",
                        util::fmt(hit_rate * 100.0, 1) + "%");
  };
  if (step_cache_ != nullptr) {
    const SharedStepCache::Stats s = step_cache_->stats();
    publish("step_cache.",
            {{"hits", s.hits}, {"relabel_hits", s.relabel_hits},
             {"misses", s.misses}, {"entries", s.entries},
             {"bytes", s.bytes}, {"evictions", s.evictions},
             {"std_shared_hits", s.std_shared.hits},
             {"std_shared_insertions", s.std_shared.insertions},
             {"std_exact_hits", s.std_exact.hits},
             {"std_exact_insertions", s.std_exact.insertions},
             {"worst_case_hits", s.worst_case.hits},
             {"worst_case_insertions", s.worst_case.insertions}},
            s.hit_rate());
  }
  if (cache_ == nullptr) return;
  const PredictionCache::Stats s = cache_->stats();
  publish("cache.",
          {{"hits", s.hits}, {"misses", s.misses}, {"entries", s.entries},
           {"bytes", s.bytes}, {"evictions", s.evictions},
           {"oversized", s.oversized}},
          s.hit_rate());
}

}  // namespace logsim::runtime
