// The library-side workloads: ge_sweep, ge_revisit and scale_topo.
//
// ge_sweep and scale_topo are closed loops of sweeps: each sweep builds a
// fresh BatchPredictor (prediction cache + comm-step cache, threads =
// nproc) and runs one predict_all over the workload's jobs, exactly as a
// tuning run does.  ge_revisit is the local-descent half of the same
// session: probes regenerate their program and call predict_one on an
// engine the full grid warmed in setup.
//
// The traced run repeats the workload in two halves (tracing off, then
// the library's trace session on) for the tracing overhead, and then
// times the public calls a job is made of, one by one, from here.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <numeric>
#include <optional>
#include <random>
#include <stdexcept>
#include <thread>

#include "workloads.hpp"

namespace logbench {

using namespace logsim;

std::uint64_t mix_seed(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

Accuracy measure_accuracy(const std::vector<AccuracyPoint>& pts) {
  Accuracy acc;
  std::vector<double> errs;
  std::size_t inside = 0;
  double testbed_us = 0.0;
  for (const AccuracyPoint& pt : pts) {
    const auto t0 = Clock::now();
    const machine::TestbedResult meas =
        machine::Testbed{pt.testbed}.run(*pt.program, *pt.costs);
    testbed_us += us_between(t0, Clock::now());
    const double measured = meas.total_with_cache.us();
    errs.push_back(std::abs(pt.prediction->total().us() - measured) /
                   measured * 100.0);
    const Time comm = meas.comm_max();
    if (comm >= pt.prediction->comm() && comm <= pt.prediction->comm_worst()) {
      ++inside;
    }
  }
  acc.points = pts.size();
  acc.std_err_pct = median(errs);
  acc.bracket_pct =
      pts.empty() ? 0.0
                  : 100.0 * static_cast<double>(inside) /
                        static_cast<double>(pts.size());
  acc.testbed_ms =
      pts.empty() ? 0.0 : testbed_us / 1e3 / static_cast<double>(pts.size());
  return acc;
}

namespace {

std::size_t nproc() {
  return std::max(1U, std::thread::hardware_concurrency());
}


/// One prediction of a sweep.  Inputs are borrowed from the workload.
struct SweepJob {
  const core::StepProgram* program = nullptr;
  const core::CostTable* costs = nullptr;
  loggp::Params params;
  std::uint64_t seed = 1;
  const network::NetworkModel* net = nullptr;  ///< nullptr: flat
  std::string label;
  /// Submission class: a sweep submits lower classes first (heaviest jobs
  /// first, so no worker is left with a long job at the end); the seed
  /// shuffles the order within a class.
  int cost_class = 0;
  /// False for a repeat of another job's inputs at a different seed: the
  /// traced run's layer passes time each distinct job once.
  bool distinct = true;
};

runtime::PredictJob to_predict_job(const SweepJob& j) {
  runtime::PredictJob job{j.program, j.params, j.costs};
  job.seed = j.seed;
  job.net = j.net;
  return job;
}

/// The engine one tuning run builds (examples/blocksize_tuning): a
/// whole-program cache with a 1 GiB budget, a comm-step cache, a private
/// metrics registry, threads = nproc.
constexpr runtime::PredictionCache::Config kEngineCacheConfig{.byte_budget =
                                                                  1ull << 30};

struct Engine {
  explicit Engine(std::size_t threads)
      : cache{kEngineCacheConfig},
        batch{runtime::BatchPredictor::Config{.threads = threads,
                                              .cache = &cache,
                                              .step_cache = &steps,
                                              .metrics = &registry}} {}

  runtime::PredictionCache cache;
  runtime::SharedStepCache steps;
  obs::metrics::Registry registry;
  runtime::BatchPredictor batch;  // last: borrows the members above
};

/// Engine-side figures of one sweep, read from the engine after it ran.
struct RoundStats {
  double wall_us = 0.0;
  double job_wall_us = 0.0;    ///< mean
  double queue_wait_us = 0.0;  ///< mean
  double straggler_share = 0.0;
  runtime::PredictionCache::Stats cache;
  runtime::SharedStepCache::Stats steps;
};

/// One sweep on a fresh engine, jobs submitted in `order`; results come
/// back indexed like `jobs`.
std::vector<runtime::JobResult> sweep_round(const std::vector<SweepJob>& jobs,
                                            const std::vector<std::size_t>& order,
                                            RoundStats& st) {
  std::vector<runtime::PredictJob> batch;
  batch.reserve(order.size());
  for (const std::size_t i : order) batch.push_back(to_predict_job(jobs[i]));
  const auto t0 = Clock::now();
  auto engine = std::make_unique<Engine>(nproc());
  std::vector<runtime::JobResult> results = engine->batch.predict_all(batch);
  st.wall_us = us_between(t0, Clock::now());
  const auto& wall = engine->registry.histogram("batch.job_wall", "us");
  st.job_wall_us = wall.mean();
  st.straggler_share = wall.max() / st.wall_us;
  st.queue_wait_us = engine->registry.histogram("batch.queue_wait", "us").mean();
  st.cache = engine->cache.stats();
  st.steps = engine->steps.stats();
  std::vector<runtime::JobResult> out(jobs.size());
  for (std::size_t k = 0; k < order.size(); ++k) {
    out[order[k]] = std::move(results[k]);
  }
  return out;
}

/// The serial reference of every job: one plain Predictor per job, jobs
/// spread over nproc threads (each prediction itself is single-threaded).
std::vector<core::Prediction> compute_oracle(const std::vector<SweepJob>& jobs) {
  std::vector<std::optional<core::Prediction>> out(jobs.size());
  std::vector<std::string> errors(jobs.size());
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < std::min(nproc(), jobs.size()); ++t) {
    pool.emplace_back([&] {
      for (std::size_t i; (i = next.fetch_add(1)) < jobs.size();) {
        const SweepJob& j = jobs[i];
        Result<core::Prediction> p =
            oracle_predict(*j.program, *j.costs, j.params, j.seed, j.net);
        if (p.ok()) {
          out[i] = std::move(p).value();
        } else {
          errors[i] = "oracle failed on " + j.label + ": " + p.status().to_string();
        }
      }
    });
  }
  for (std::thread& t : pool) t.join();
  std::vector<core::Prediction> oracle;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (!out[i]) throw std::runtime_error(errors[i]);
    oracle.push_back(std::move(*out[i]));
  }
  return oracle;
}

/// Counts one attempt per result; errors fail, mismatches fail and make
/// the run incorrect.
void check_results(std::vector<runtime::JobResult>& results,
                   const std::vector<SweepJob>& jobs,
                   const std::vector<core::Prediction>& oracle,
                   bool corrupt_first, Report& report) {
  if (corrupt_first && !results.empty() && results[0].ok()) {
    results[0].prediction->standard.total += Time{1.0};
  }
  for (std::size_t i = 0; i < results.size(); ++i) {
    report.attempt();
    if (!results[i].ok()) {
      report.fail();
      report.note("job " + jobs[i].label + " failed: " + results[i].error());
    } else if (!same_prediction(results[i].value(), oracle[i])) {
      report.fail();
      report.incorrect("job " + jobs[i].label +
                       " differs from the serial oracle");
    }
  }
}

std::string digest_of(const std::vector<core::Prediction>& preds) {
  Digest d;
  for (const auto& p : preds) d.add(p);
  return d.hex();
}

/// A closed loop of sweeps for `seconds` (at least `min_rounds`).
struct SweepWindow {
  std::vector<double> round_us;
  std::vector<RoundStats> stats;
};

SweepWindow run_sweeps(const std::vector<SweepJob>& jobs,
                       const std::vector<core::Prediction>& oracle,
                       double seconds, std::size_t min_rounds,
                       std::mt19937_64& rng, bool corrupt_first,
                       Report& report, obs::TraceSession* lib_trace) {
  SweepWindow w;
  std::vector<std::size_t> order(jobs.size());
  std::iota(order.begin(), order.end(), 0);
  const auto start = Clock::now();
  while (seconds_since(start) < seconds || w.round_us.size() < min_rounds) {
    std::shuffle(order.begin(), order.end(), rng);
    std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return jobs[a].cost_class < jobs[b].cost_class;
    });
    if (lib_trace != nullptr) lib_trace->clear();  // keep the last sweep only
    RoundStats st;
    std::vector<runtime::JobResult> results = sweep_round(jobs, order, st);
    w.round_us.push_back(st.wall_us);
    w.stats.push_back(st);
    check_results(results, jobs, oracle, corrupt_first && w.round_us.size() == 1,
                  report);
  }
  return w;
}

/// Engine-side per-layer figures of a sweep window (medians over sweeps).
void report_engine_layers(const SweepWindow& w, Report& r) {
  const auto med = [&](const char* name, auto get) {
    std::vector<double> v;
    for (const RoundStats& s : w.stats) v.push_back(static_cast<double>(get(s)));
    r.metric(name, median(v));
  };
  med("runtime.queue_wait_us", [](const RoundStats& s) { return s.queue_wait_us; });
  med("runtime.job_wall_us", [](const RoundStats& s) { return s.job_wall_us; });
  med("runtime.straggler_share", [](const RoundStats& s) { return s.straggler_share; });
  med("runtime.cache_hit_rate", [](const RoundStats& s) { return s.cache.hit_rate(); });
  med("runtime.cache_bytes", [](const RoundStats& s) { return s.cache.bytes; });
  med("runtime.step_hit_rate", [](const RoundStats& s) { return s.steps.hit_rate(); });
  med("runtime.step_relabel_hits", [](const RoundStats& s) { return s.steps.relabel_hits; });
  med("runtime.step_bytes", [](const RoundStats& s) { return s.steps.bytes; });
}

/// Times the public calls one engine job is made of, job by job, against
/// a fresh cache pair (as one sweep sees them), and the same job through a
/// serial engine's predict_one right beside it (alternating which goes
/// first); the ratio of the sums is the layer coverage.
void layer_pass(const std::vector<SweepJob>& jobs,
                const std::vector<core::Prediction>& oracle, LayerTrace& tr,
                Report& report) {
  runtime::PredictionCache cache{kEngineCacheConfig};
  runtime::SharedStepCache steps;
  Engine serial{1};
  const auto layers = [&](std::size_t i) {
    const SweepJob& j = jobs[i];
    // The engine keys (and so hashes, probes and fills the cache) only
    // flat-network jobs.
    const bool keyed = j.net == nullptr || j.net->is_flat();
    std::uint64_t key = 0;
    if (keyed) {
      key = tr.time("runtime.key_hash", "runtime", i, [&] {
        return runtime::prediction_key_hash(*j.program, *j.costs, j.params,
                                            j.seed);
      });
      const auto hit = tr.time("runtime.cache_lookup", "runtime", i, [&] {
        return cache.lookup(key, *j.program, *j.costs, j.params, j.seed);
      });
      if (hit.has_value()) report.note("layer pass: unexpected cache hit");
    }
    const Status valid = tr.time("core.validate", "core", i, [&] {
      return core::validate_inputs(*j.program, *j.costs, j.params);
    });
    if (!valid.ok()) report.incorrect("validate_inputs rejected " + j.label);
    core::ProgramSimOptions o;
    o.seed = j.seed;
    o.net = j.net;
    o.step_cache = &steps;
    const core::Predictor predictor{j.params, o};
    core::Prediction pred;
    pred.standard = tr.time("core.std", "core", i, [&] {
      return predictor.predict_standard(*j.program, *j.costs);
    });
    pred.worst_case = tr.time("core.worst", "core", i, [&] {
      return predictor.predict_worst_case(*j.program, *j.costs);
    });
    if (!same_prediction(pred, oracle[i])) {
      report.incorrect("predict_standard + predict_worst_case of " + j.label +
                       " differ from predict()");
    }
    if (keyed) {
      tr.time("runtime.cache_insert", "runtime", i, [&] {
        cache.insert(key, *j.program, *j.costs, j.params, j.seed, pred);
      });
    }
  };
  const auto whole = [&](std::size_t i) {
    const runtime::JobResult r = tr.time("bench.job", "bench", i, [&] {
      return serial.batch.predict_one(to_predict_job(jobs[i]));
    });
    if (!r.ok() || !same_prediction(r.value(), oracle[i])) {
      report.incorrect("serial engine disagrees with the oracle on " +
                       jobs[i].label);
    }
  };
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (i % 2 == 0) {
      layers(i);
      whole(i);
    } else {
      whole(i);
      layers(i);
    }
  }
  report.metric("runtime.key_hash_us", tr.mean_us("runtime.key_hash"));
  report.metric("runtime.cache_lookup_us", tr.mean_us("runtime.cache_lookup"));
  report.metric("runtime.cache_insert_us", tr.mean_us("runtime.cache_insert"));
  report.metric("core.validate_us", tr.mean_us("core.validate"));
  report.metric("core.std_us", tr.mean_us("core.std"));
  report.metric("core.worst_us", tr.mean_us("core.worst"));
  const double covered =
      tr.total_us("runtime.key_hash") + tr.total_us("runtime.cache_lookup") +
      tr.total_us("core.validate") + tr.total_us("core.std") +
      tr.total_us("core.worst") + tr.total_us("runtime.cache_insert");
  report.metric("bench.layer_coverage_pct",
                100.0 * covered / tr.total_us("bench.job"));
}

/// Replays each job's schedules step by step through the public comm
/// simulators (no step cache), timing every comm step and the pattern
/// analyses the step cache and the decomposition run on it.
void replay_pass(const std::vector<SweepJob>& jobs,
                 const std::vector<core::Prediction>& oracle, LayerTrace& tr,
                 Report& report) {
  double std_ops = 0.0;
  double worst_ops = 0.0;
  double components = 0.0;
  double comm_steps = 0.0;
  bool reproduced = true;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const SweepJob& j = jobs[i];
    const core::StepProgram& prog = *j.program;
    const auto n = static_cast<std::size_t>(prog.procs());
    std::vector<Time> clock(n, Time::zero());
    std::vector<Time> wclock(n, Time::zero());
    core::ParallelCommOptions pco;
    pco.net = j.net;
    core::ParallelCommSimulator std_sim{j.params, pco};
    core::FinishOnlySink sink;
    core::CommSimScratch worst_scratch;
    pattern::Canonicalizer canon;
    pattern::ComponentSplit split;
    const auto advance = [&](std::vector<Time>& c) {
      const std::vector<Time>& f = sink.finish_times();
      for (std::size_t p = 0; p < n; ++p) {
        if (f[p] > Time::zero()) c[p] = f[p];
      }
    };
    for (std::size_t s = 0; s < prog.size(); ++s) {
      const auto& entry = prog.step(s);
      if (const auto* cs = std::get_if<core::ComputeStep>(&entry)) {
        for (const auto& item : cs->items) {
          const Time dt = j.costs->cost(item.op, item.block_size);
          clock[static_cast<std::size_t>(item.proc)] += dt;
          wclock[static_cast<std::size_t>(item.proc)] += dt;
        }
        continue;
      }
      const pattern::CommPattern& pat = std::get<core::CommStep>(entry).pattern;
      if (pat.size() == pat.self_message_count()) continue;
      const std::uint64_t step_seed =
          j.seed * 0x100000001b3ULL + static_cast<std::uint64_t>(s);
      tr.time("pattern.canon", "pattern", s, [&] { return canon.analyze(pat); });
      components += split.analyze(pat);
      comm_steps += 1.0;
      tr.time("core.comm_std_step", "core", s, [&] {
        return std_sim.run_into(pat, clock, step_seed, sink);
      });
      std_ops += static_cast<double>(sink.op_count());
      advance(clock);
      sink.reset(prog.procs());
      const core::WorstCaseSimulator worst{j.params,
                                           core::WorstCaseOptions{step_seed, j.net}};
      tr.time("core.comm_worst_step", "core", s, [&] {
        worst.run_into(pat, wclock, sink, worst_scratch);
      });
      worst_ops += static_cast<double>(sink.op_count());
      advance(wclock);
    }
    const Time std_total = *std::max_element(clock.begin(), clock.end());
    const Time worst_total = *std::max_element(wclock.begin(), wclock.end());
    reproduced = reproduced && std_total == oracle[i].standard.total &&
                 worst_total == oracle[i].worst_case.total;
  }
  report.note(std::string{"step replay reproduces the predicted totals: "} +
              (reproduced ? "yes" : "NO (per-step figures are approximate)"));
  report.metric("core.comm_std_step_us", tr.mean_us("core.comm_std_step"));
  report.metric("core.comm_worst_step_us", tr.mean_us("core.comm_worst_step"));
  report.metric("core.comm_ops",
                (std_ops + worst_ops) / static_cast<double>(jobs.size()));
  report.metric("core.ns_per_op_std",
                std_ops == 0.0 ? 0.0
                               : tr.total_us("core.comm_std_step") * 1e3 / std_ops);
  report.metric("core.ns_per_op_worst",
                worst_ops == 0.0
                    ? 0.0
                    : tr.total_us("core.comm_worst_step") * 1e3 / worst_ops);
  report.metric("pattern.canon_us", tr.mean_us("pattern.canon"));
  report.metric("pattern.components",
                comm_steps == 0.0 ? 0.0 : components / comm_steps);
}

/// Standard-schedule host time with each job's network model against the
/// same program on the flat network (no step cache on either side).
void network_pass(const std::vector<SweepJob>& jobs, LayerTrace& tr,
                  Report& report) {
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const SweepJob& j = jobs[i];
    if (j.net == nullptr || j.net->is_flat()) continue;
    core::ProgramSimOptions shaped;
    shaped.seed = j.seed;
    shaped.net = j.net;
    core::ProgramSimOptions flat;
    flat.seed = j.seed;
    const auto run = [&](const char* name, const core::ProgramSimOptions& o) {
      tr.time(name, "network", i, [&] {
        return core::Predictor{j.params, o}.predict_standard(*j.program, *j.costs);
      });
    };
    // Alternate which goes first, so neither side always runs cold.
    if (i % 2 == 0) {
      run("network.std_shaped", shaped);
      run("network.std_flat", flat);
    } else {
      run("network.std_flat", flat);
      run("network.std_shaped", shaped);
    }
  }
  const double flat_us = tr.total_us("network.std_flat");
  report.metric("network.std_overhead_pct",
                flat_us == 0.0
                    ? 0.0
                    : (tr.total_us("network.std_shaped") / flat_us - 1.0) * 100.0);
}

/// Median jobs per second over sweeps.
double sweep_jobs_per_s(const SweepWindow& w, std::size_t jobs) {
  return static_cast<double>(jobs) * 1e6 / median(w.round_us);
}

void write_trace(const Options& opt, const LayerTrace& tr,
                 const obs::TraceSession& lib, Report& report) {
  if (opt.trace_out.empty()) return;
  if (tr.write(opt.trace_out, lib.collect())) {
    report.note("trace written to " + opt.trace_out);
  } else {
    report.note("could not write the trace to " + opt.trace_out);
  }
}

/// Everything ge_sweep and scale_topo share after their inputs exist.
void run_sweep_workload(const Options& opt, Report& report,
                        const std::vector<SweepJob>& jobs,
                        const std::vector<double>& setup_s,
                        const std::vector<AccuracyPoint>& accuracy_pts,
                        LayerTrace* tr) {
  const std::vector<core::Prediction> oracle = compute_oracle(jobs);
  report.note("digest " + opt.workload + " " + digest_of(oracle));
  std::mt19937_64 rng{mix_seed(opt.seed ^ 0x5eed)};
  const std::size_t min_rounds = 3;

  // Warm-up sweep: first touch of the allocator and page tables.
  {
    Report warmup;
    (void)run_sweeps(jobs, oracle, 0.0, 1, rng, false, warmup, nullptr);
  }

  if (tr == nullptr) {
    const SweepWindow w = run_sweeps(jobs, oracle, opt.seconds, min_rounds, rng,
                                     opt.inject == "mismatch", report, nullptr);
    report.metric("peak_rss_mb", peak_rss_mb());
    report.note("sweeps " + std::to_string(w.round_us.size()) + " x " +
                std::to_string(jobs.size()) + " jobs");
    report.metric("jobs_per_s", sweep_jobs_per_s(w, jobs.size()));
    report.metric("sustained_per_s", 1e6 / median(w.round_us));
    report.metric("p50_us", median(w.round_us));
    report.metric("p99_us", percentile(w.round_us, 99.0));
    report.metric("setup_s", median(setup_s));
  } else {
    const SweepWindow plain = run_sweeps(jobs, oracle, opt.seconds * 0.4,
                                         min_rounds, rng, false, report, nullptr);
    obs::TraceSession& lib = obs::TraceSession::global();
    lib.set_thread_name("main");
    lib.enable();
    const SweepWindow traced =
        tr->time("bench.traced_window", "bench", 0, [&] {
          return run_sweeps(jobs, oracle, opt.seconds * 0.4, min_rounds, rng,
                            false, report, &lib);
        });
    lib.disable();
    const double untraced_jps = sweep_jobs_per_s(plain, jobs.size());
    report.metric("bench.trace_overhead_pct",
                  (untraced_jps / sweep_jobs_per_s(traced, jobs.size()) - 1.0) *
                      100.0);
    report_engine_layers(plain, report);
    std::vector<SweepJob> distinct;
    std::vector<core::Prediction> distinct_oracle;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      if (!jobs[i].distinct) continue;
      distinct.push_back(jobs[i]);
      distinct_oracle.push_back(oracle[i]);
    }
    layer_pass(distinct, distinct_oracle, *tr, report);
    replay_pass(distinct, distinct_oracle, *tr, report);
    network_pass(distinct, *tr, report);
    write_trace(opt, *tr, lib, report);
    lib.clear();
  }

  std::vector<AccuracyPoint> pts = accuracy_pts;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    if (pts[i].prediction == nullptr) pts[i].prediction = &oracle[i];
  }
  const Accuracy acc = measure_accuracy(pts);
  report.note("accuracy over " + std::to_string(acc.points) + " points");
  report.metric("std_err_pct", acc.std_err_pct);
  report.metric("bracket_pct", acc.bracket_pct);
  report.metric("machine.testbed_ms", acc.testbed_ms);
}

// --- the GE tuning grid ------------------------------------------------------

struct GeGrid {
  int n = 960;
  int procs = 8;
  std::vector<int> blocks;
  core::CostTable costs;
  loggp::Params params;
  layout::DiagonalMap diag;
  layout::RowCyclic row;
  std::vector<core::StepProgram> programs;  ///< layout-major, block-minor

  explicit GeGrid(bool small)
      : n(small ? 240 : 960),
        costs(ops::analytic_cost_table()),
        params(loggp::presets::meiko_cs2(8)),
        diag(8),
        row(8) {
    for (const int b : ops::default_block_sizes()) {
      if (n % b == 0) blocks.push_back(b);
    }
  }

  [[nodiscard]] std::vector<const layout::Layout*> layouts() const {
    return {&diag, &row};
  }
  [[nodiscard]] std::size_t index(std::size_t layout, std::size_t block) const {
    return layout * blocks.size() + block;
  }

  /// Builds every (layout, block) program; `tr` times each call.
  void build(LayerTrace* tr) {
    programs.clear();
    programs.reserve(2 * blocks.size());
    std::uint64_t id = 0;
    for (const layout::Layout* l : layouts()) {
      for (const int b : blocks) {
        const auto make = [&] {
          return ge::build_ge_program(ge::GeConfig{.n = n, .block = b}, *l);
        };
        programs.push_back(tr != nullptr ? tr->time("ge.build", "ge", id, make)
                                         : make());
        ++id;
      }
    }
  }

  [[nodiscard]] std::uint64_t job_seed(std::uint64_t seed, std::size_t layout,
                                       std::size_t block) const {
    return mix_seed(seed * 31 + index(layout, block)) % 1000003 + 1;
  }

  [[nodiscard]] std::vector<SweepJob> jobs(std::uint64_t seed) const {
    std::vector<SweepJob> out;
    for (std::size_t l = 0; l < 2; ++l) {
      for (std::size_t b = 0; b < blocks.size(); ++b) {
        SweepJob j;
        j.program = &programs[index(l, b)];
        j.costs = &costs;
        j.params = params;
        j.seed = job_seed(seed, l, b);
        j.label = layouts()[l]->name() + "/b" + std::to_string(blocks[b]);
        out.push_back(j);
      }
    }
    return out;
  }

  [[nodiscard]] std::vector<AccuracyPoint> accuracy_points() const {
    std::vector<AccuracyPoint> pts;
    for (const auto& p : programs) {
      pts.push_back(AccuracyPoint{&p, &costs, nullptr,
                                  machine::TestbedConfig::meiko_cs2(procs)});
    }
    return pts;
  }
};

}  // namespace

void run_ge_sweep(const Options& opt, Report& report) {
  GeGrid grid{opt.small};
  std::unique_ptr<LayerTrace> tr = opt.trace ? std::make_unique<LayerTrace>()
                                             : nullptr;
  // Set-up: generate the programs and build the engine a sweep uses.
  const std::vector<double> setup_s = repeat_setup([&](int rep) {
    const auto t0 = Clock::now();
    grid.build(rep == 0 ? tr.get() : nullptr);
    { const Engine engine{nproc()}; }
    return seconds_since(t0);
  });
  if (tr) report.metric("ge.build_us", tr->mean_us("ge.build"));
  run_sweep_workload(opt, report, grid.jobs(opt.seed), setup_s,
                     grid.accuracy_points(), tr.get());
}

namespace {

/// Outcome of the probes one descent thread made.
struct ProbeLog {
  std::vector<double> latency_us;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;      ///< failed probes
  std::vector<std::string> mismatches;  ///< probes that differ from the oracle

  void merge_into(Report& report, std::vector<double>& latencies) const {
    latencies.insert(latencies.end(), latency_us.begin(), latency_us.end());
    report.attempt(attempted);
    report.fail(failed);
    for (const auto& e : errors) report.note(e);
    for (const auto& m : mismatches) report.incorrect(m);
  }
};

/// The local-descent half of a tuning session: every probe regenerates its
/// program (as the example's factory does) and asks the warmed engine.
/// Descents start from every block on both layouts, in seed-shuffled
/// passes, on nproc threads sharing the engine.
class Revisit {
 public:
  Revisit(const GeGrid& grid, const std::vector<SweepJob>& jobs,
          const std::vector<core::Prediction>& oracle, Engine& engine,
          std::uint64_t seed)
      : grid_(grid), jobs_(jobs), oracle_(oracle), engine_(engine),
        rng_(mix_seed(seed ^ 0x7e57)) {
    for (std::size_t l = 0; l < 2; ++l) {
      for (std::size_t s = 0; s < grid.blocks.size(); ++s) starts_.emplace_back(l, s);
    }
  }

  /// One probe; its latency covers program generation and predict_one.
  Time probe(ProbeLog& log, std::size_t l, int block, bool corrupt) const {
    const auto b = static_cast<std::size_t>(
        std::find(grid_.blocks.begin(), grid_.blocks.end(), block) -
        grid_.blocks.begin());
    const std::size_t idx = grid_.index(l, b);
    const auto t0 = Clock::now();
    const core::StepProgram program = ge::build_ge_program(
        ge::GeConfig{.n = grid_.n, .block = block}, *grid_.layouts()[l]);
    runtime::PredictJob job{&program, grid_.params, &grid_.costs};
    job.seed = jobs_[idx].seed;
    runtime::JobResult r = engine_.batch.predict_one(job);
    log.latency_us.push_back(us_between(t0, Clock::now()));
    ++log.attempted;
    if (!r.ok()) {
      ++log.failed;
      log.errors.push_back("probe " + jobs_[idx].label + " failed: " + r.error());
      return Time::infinity();
    }
    if (corrupt) r.prediction->standard.total += Time{1.0};
    if (!same_prediction(r.value(), oracle_[idx])) {
      ++log.failed;
      log.mismatches.push_back("probe " + jobs_[idx].label +
                               " differs from the oracle");
    }
    return r.value().standard.total;
  }

  /// Runs descents on nproc threads for `seconds` (and at least one pass
  /// over every start): each thread takes the next start of a seed-shuffled
  /// sequence of passes until time is up.  Returns probes per second of
  /// window time.
  double window(double seconds, Report& report, std::vector<double>& latencies,
                bool corrupt) {
    std::vector<std::pair<std::size_t, std::size_t>> order;
    const std::size_t threads = nproc();
    std::vector<ProbeLog> logs(threads);
    std::atomic<std::size_t> next{0};
    // Enough passes that no thread runs out before the window ends.
    for (int pass = 0; pass < 400; ++pass) {
      std::shuffle(starts_.begin(), starts_.end(), rng_);
      order.insert(order.end(), starts_.begin(), starts_.end());
    }
    const auto t0 = Clock::now();
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        bool first = corrupt && t == 0;
        for (;;) {
          const std::size_t k = next.fetch_add(1);
          if (k >= order.size() ||
              (k >= starts_.size() && seconds_since(t0) >= seconds)) {
            break;
          }
          const auto [l, s] = order[k];
          const search::Evaluator eval = [&, l = l](int block, const layout::Layout&) {
            const Time v = probe(logs[t], l, block, first);
            first = false;
            return v;
          };
          (void)search::local_descent(grid_.blocks, *grid_.layouts()[l], eval, s);
        }
      });
    }
    for (std::thread& th : pool) th.join();
    const double wall = seconds_since(t0);
    std::size_t probes = 0;
    for (const ProbeLog& log : logs) {
      probes += log.latency_us.size();
      log.merge_into(report, latencies);
    }
    return static_cast<double>(probes) / wall;
  }

 private:
  const GeGrid& grid_;
  const std::vector<SweepJob>& jobs_;
  const std::vector<core::Prediction>& oracle_;
  Engine& engine_;
  std::mt19937_64 rng_;
  std::vector<std::pair<std::size_t, std::size_t>> starts_;
};

}  // namespace

void run_ge_revisit(const Options& opt, Report& report) {
  GeGrid grid{opt.small};
  std::unique_ptr<LayerTrace> tr = opt.trace ? std::make_unique<LayerTrace>()
                                             : nullptr;
  // Set-up: programs, engine, and the full-grid warm pass a tuning session
  // runs before its local descents.
  std::unique_ptr<Engine> engine;
  std::vector<SweepJob> jobs;
  const std::vector<double> setup_s = repeat_setup([&](int rep) {
    engine.reset();
    const auto t0 = Clock::now();
    grid.build(rep == 0 ? tr.get() : nullptr);
    engine = std::make_unique<Engine>(nproc());
    jobs = grid.jobs(opt.seed);
    std::vector<runtime::PredictJob> batch;
    for (const SweepJob& j : jobs) batch.push_back(to_predict_job(j));
    const auto warm = engine->batch.predict_all(batch);
    const double seconds = seconds_since(t0);
    for (const auto& r : warm) {
      if (!r.ok()) throw std::runtime_error("warm pass failed: " + r.error());
    }
    return seconds;
  });
  const std::vector<core::Prediction> oracle = compute_oracle(jobs);
  report.note("digest " + opt.workload + " " + digest_of(oracle));

  Revisit revisit{grid, jobs, oracle, *engine, opt.seed};
  {  // warm-up: one pass over every start
    Report warmup;
    std::vector<double> ignored;
    (void)revisit.window(0.0, warmup, ignored, false);
  }

  if (!tr) {
    const runtime::PredictionCache::Stats before = engine->cache.stats();
    std::vector<double> latencies;
    const double rate =
        revisit.window(opt.seconds, report, latencies, opt.inject == "mismatch");
    report.metric("peak_rss_mb", peak_rss_mb());
    const runtime::PredictionCache::Stats after = engine->cache.stats();
    report.note("probes " + std::to_string(latencies.size()) + ", cache hits " +
                std::to_string(after.hits - before.hits));
    report.metric("jobs_per_s", rate);
    report.metric("sustained_per_s", rate);
    report.metric("p50_us", median(latencies));
    report.metric("p99_us", percentile(latencies, 99.0));
    report.metric("setup_s", median(setup_s));
  } else {
    report.metric("ge.build_us", tr->mean_us("ge.build"));
    const runtime::PredictionCache::Stats before = engine->cache.stats();
    engine->registry.reset();
    std::vector<double> latencies;
    const double plain = revisit.window(opt.seconds * 0.4, report, latencies, false);
    const runtime::PredictionCache::Stats after = engine->cache.stats();
    const double lookups =
        static_cast<double>((after.hits - before.hits) + (after.misses - before.misses));
    report.metric("runtime.cache_hit_rate",
                  lookups == 0.0 ? 0.0
                                 : static_cast<double>(after.hits - before.hits) /
                                       lookups);
    report.metric("runtime.cache_bytes", static_cast<double>(after.bytes));
    const runtime::SharedStepCache::Stats steps = engine->steps.stats();
    report.metric("runtime.step_hit_rate", steps.hit_rate());
    report.metric("runtime.step_relabel_hits", static_cast<double>(steps.relabel_hits));
    report.metric("runtime.step_bytes", static_cast<double>(steps.bytes));
    report.metric("runtime.job_wall_us",
                  engine->registry.histogram("batch.job_wall", "us").mean());
    obs::TraceSession& lib = obs::TraceSession::global();
    lib.set_thread_name("main");
    lib.enable();
    const double traced = tr->time("bench.traced_window", "bench", 0, [&] {
      return revisit.window(opt.seconds * 0.4, report, latencies, false);
    });
    lib.disable();
    report.metric("bench.trace_overhead_pct", (plain / traced - 1.0) * 100.0);

    // Layer pass: every grid point once -- build, key hash, cache probe
    // (a hit on a cache holding the grid) -- against the probe as the
    // engine serves it.
    runtime::PredictionCache cache{kEngineCacheConfig};
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const SweepJob& j = jobs[i];
      tr->time("runtime.cache_insert", "runtime", i, [&] {
        cache.insert(*j.program, *j.costs, j.params, j.seed, oracle[i]);
      });
    }
    ProbeLog log;
    for (std::size_t l = 0; l < 2; ++l) {
      for (std::size_t b = 0; b < grid.blocks.size(); ++b) {
        const std::size_t i = grid.index(l, b);
        const SweepJob& j = jobs[i];
        const core::StepProgram program = tr->time("ge.probe_build", "ge", i, [&] {
          return ge::build_ge_program(
              ge::GeConfig{.n = grid.n, .block = grid.blocks[b]},
              *grid.layouts()[l]);
        });
        const std::uint64_t key = tr->time("runtime.key_hash", "runtime", i, [&] {
          return runtime::prediction_key_hash(program, *j.costs, j.params, j.seed);
        });
        const auto hit = tr->time("runtime.cache_lookup", "runtime", i, [&] {
          return cache.lookup(key, program, *j.costs, j.params, j.seed);
        });
        if (!hit.has_value() || !same_prediction(*hit, oracle[i])) {
          report.incorrect("layer pass: grid point " + j.label +
                           " missed a cache holding it");
        }
        tr->time("bench.job", "bench", i,
                 [&] { return revisit.probe(log, l, grid.blocks[b], false); });
      }
    }
    log.merge_into(report, latencies);
    report.metric("runtime.key_hash_us", tr->mean_us("runtime.key_hash"));
    report.metric("runtime.cache_lookup_us", tr->mean_us("runtime.cache_lookup"));
    report.metric("runtime.cache_insert_us", tr->mean_us("runtime.cache_insert"));
    const double covered = tr->total_us("ge.probe_build") +
                           tr->total_us("runtime.key_hash") +
                           tr->total_us("runtime.cache_lookup");
    report.metric("bench.layer_coverage_pct",
                  100.0 * covered / tr->total_us("bench.job"));
    write_trace(opt, *tr, lib, report);
    lib.clear();
  }

  std::vector<AccuracyPoint> pts = grid.accuracy_points();
  for (std::size_t i = 0; i < pts.size(); ++i) pts[i].prediction = &oracle[i];
  const Accuracy acc = measure_accuracy(pts);
  report.metric("std_err_pct", acc.std_err_pct);
  report.metric("bracket_pct", acc.bracket_pct);
  report.metric("machine.testbed_ms", acc.testbed_ms);
}

// --- scale_topo ----------------------------------------------------------------

namespace {

/// The large-P jobs and their inputs.  Sizes scale down in small mode.
struct TopoSet {
  struct Item {
    core::StepProgram program{1};
    core::CostTable costs;
    loggp::Params params;
    std::unique_ptr<network::NetworkModel> net;  ///< null: flat
    std::string label;
    network::TopologySpec spec = network::TopologySpec::flat();
  };
  std::vector<Item> items;

  /// `tile_p` is a perfect square; `gather_p` fills the fat-tree exactly.
  void build(int tile_p, int gather_p, std::vector<int> down,
             std::vector<int> up) {
    items.clear();
    network::TopologySpec tree = network::TopologySpec::fat_tree(down, up);
    tree.per_hop = Time{3.0};
    {
      Item it;
      stencil::StencilConfig cfg;
      cfg.n = 16 * static_cast<int>(std::lround(std::sqrt(tile_p)));
      cfg.iterations = 4;
      cfg.partition = stencil::Partition::kTiles2D;
      cfg.procs = tile_p;
      it.program = stencil::build_stencil_program(cfg);
      it.costs = stencil::stencil_cost_table(cfg);
      it.params = loggp::presets::meiko_cs2(tile_p);
      it.label = "tile-stencil/P" + std::to_string(tile_p) + "/flat";
      items.push_back(std::move(it));
    }
    for (const bool shaped : {false, true}) {
      Item it;
      it.program = collective::allgather_doubling(gather_p, Bytes{256});
      it.params = loggp::presets::meiko_cs2(gather_p);
      if (shaped) {
        it.spec = tree;
        it.net = network::NetworkModel::create(tree);
      }
      it.label = "allgather/P" + std::to_string(gather_p) +
                 (shaped ? "/fattree" : "/flat");
      items.push_back(std::move(it));
    }
    {
      Item it;
      stencil::StencilConfig cfg;
      cfg.n = 2 * gather_p;
      cfg.iterations = 4;
      cfg.partition = stencil::Partition::kStrips1D;
      cfg.procs = gather_p;
      it.program = stencil::build_stencil_program(cfg);
      it.costs = stencil::stencil_cost_table(cfg);
      it.params = loggp::presets::meiko_cs2(gather_p);
      it.spec = tree;
      it.net = network::NetworkModel::create(tree);
      it.label = "strip-stencil/P" + std::to_string(gather_p) + "/fattree";
      items.push_back(std::move(it));
    }
  }

  /// Every item at `copies` simulation seeds.  The 2-D stencil (item 0)
  /// is the heaviest job by far; it goes first.
  [[nodiscard]] std::vector<SweepJob> jobs(std::uint64_t seed,
                                           std::size_t copies) const {
    std::vector<SweepJob> out;
    for (std::size_t i = 0; i < items.size(); ++i) {
      const Item& it = items[i];
      for (std::size_t c = 0; c < copies; ++c) {
        SweepJob j;
        j.program = &it.program;
        j.costs = &it.costs;
        j.params = it.params;
        j.seed = mix_seed(seed * 131 + i * 17 + c) % 1000003 + 1;
        j.net = it.net.get();
        j.label = it.label + "/s" + std::to_string(c);
        j.cost_class = i == 0 ? 0 : 1;
        j.distinct = c == 0;
        out.push_back(j);
      }
    }
    return out;
  }
};

}  // namespace

void run_scale_topo(const Options& opt, Report& report) {
  std::unique_ptr<LayerTrace> tr = opt.trace ? std::make_unique<LayerTrace>()
                                             : nullptr;
  TopoSet set;
  const std::vector<double> setup_s = repeat_setup([&](int) {
    const auto t0 = Clock::now();
    if (opt.small) {
      set.build(256, 128, {16, 8}, {1, 2});
    } else {
      set.build(4096, 2048, {128, 16}, {1, 2});
    }
    { const Engine engine{nproc()}; }
    return seconds_since(t0);
  });
  // Four seeds per job keep all four workers on a 2-D stencil at once, so
  // a sweep is not one worker's single long job.
  const std::vector<SweepJob> jobs = set.jobs(opt.seed, 4);

  // Accuracy runs the same job families at P = 64 (tile stencil) and 32
  // (the rest, fat-tree {8,4}/{1,2}): the packet-level Testbed at the
  // benchmark's own P would take minutes per run.
  TopoSet small_set;
  small_set.build(64, 32, {8, 4}, {1, 2});
  const std::vector<SweepJob> small_jobs = small_set.jobs(opt.seed, 1);
  const std::vector<core::Prediction> small_oracle = compute_oracle(small_jobs);
  std::vector<AccuracyPoint> pts;
  for (std::size_t i = 0; i < small_jobs.size(); ++i) {
    machine::TestbedConfig cfg =
        machine::TestbedConfig::meiko_cs2(small_set.items[i].program.procs());
    cfg.topology = small_set.items[i].spec;
    pts.push_back(AccuracyPoint{small_jobs[i].program, small_jobs[i].costs,
                                &small_oracle[i], cfg});
  }
  run_sweep_workload(opt, report, jobs, setup_s, pts, tr.get());
}

}  // namespace logbench
