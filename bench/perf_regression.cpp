// Perf-regression harness for the simulator hot path.  Times the three
// tiers the zero-allocation rewrite targets -- raw communication
// simulation (standard + worst-case), whole-program prediction, and
// batch throughput -- on fixed-seed workloads, and emits a
// machine-readable JSON report (schema "logsim-perf-v4").
//
// Schema note: v2 added the comm_step_cache_warm / comm_step_cache_cold
// rows and turned the comm-step cache on for batch_ge_block_sweep; v3
// adds the serve_* rows that bench/serve_throughput merges in after this
// harness writes the file; v4 adds serve_reg* (the registered-handle hot
// path) and gates the serve latency rows lower-is-better.  The JSON
// layout is unchanged (read_baseline scans name/value pairs and is
// schema-agnostic), so v1-v3 baselines still parse -- only the schema
// string and the benchmark set moved.
//
// Methodology: every benchmark runs one discarded warm-up sample (page
// faults, scratch growth, cache warm-up), then 5 timed samples -- in
// --quick mode too, since 3-sample quick medians swung >30% on small
// rows (comm_standard_p8 ranged 13.6M-19.2M ops/s) and tripped the 25%
// gate spuriously; --quick now only shrinks the per-sample iteration
// counts.  The reported value is the SAMPLE MEDIAN, which is robust to
// one-off scheduler noise without hiding a real shift.  Workload seeds
// and sizes are fixed so runs are comparable across commits on the same
// machine.
//
// Usage:
//   perf_regression [--quick] [--no-step-cache] [--out FILE]
//                   [--baseline FILE] [--max-regress FRAC]
//                   [--write-baseline FILE] [--p-sweep]
//
// --p-sweep skips the regression rows and instead times one 2-D stencil
// halo-exchange CommStep at P = 64 / 1k / 64k / 1M (the mega-scale
// acceptance numbers recorded in EXPERIMENTS.md), plus a P = 1M
// 64-component dissemination round on the seeded heap loop and on the
// dense ordered-ties scan, plus the worst-case schedule on the halo at
// P = 64 / 1k / 16k / 64k / 1M and on an allgather round at P = 2k / 16k.
//
// --no-step-cache (or LOGSIM_STEP_CACHE=0) disables the comm-step cache:
// batch_ge_block_sweep then measures the uncached engine and the two
// comm_step_cache_* rows are omitted.
//
// With --baseline, every benchmark whose value falls more than
// --max-regress (default 0.25 = 25%) below the baseline's value fails
// the run (exit 1) -- this is the CI gate.  Values are throughputs
// (bigger is better) for every benchmark.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include <logsim/logsim.hpp>

#include "ge_sweep.hpp"

using namespace logsim;
using Clock = std::chrono::steady_clock;

namespace {

struct BenchResult {
  std::string name;
  std::string metric;   // unit of `value`, e.g. "ops_per_sec"
  double value = 0.0;   // median of samples
  std::vector<double> samples;
};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Runs `body` (which performs `work_items` units of work) `samples + 1`
// times, discards the first, and returns the median items/sec.
template <typename Body>
BenchResult run_bench(const std::string& name, const std::string& metric,
                      int samples, double work_items, const Body& body) {
  BenchResult r;
  r.name = name;
  r.metric = metric;
  for (int s = 0; s <= samples; ++s) {
    const auto start = Clock::now();
    body();
    const double sec = seconds_since(start);
    if (s == 0) continue;  // warm-up: scratch growth, cache warming
    r.samples.push_back(work_items / sec);
  }
  r.value = median(r.samples);
  return r;
}

BenchResult bench_comm_standard(int procs, int messages, int iters,
                                int samples) {
  util::Rng rng{2024};
  const auto pat = pattern::random_pattern(rng, procs, messages, Bytes{16},
                                           Bytes{4096});
  const auto params = loggp::presets::meiko_cs2(procs);
  const core::CommSimulator sim{params};
  const std::vector<Time> ready(static_cast<std::size_t>(procs), Time::zero());
  const std::vector<Time> no_msg_ready;
  core::CommSimScratch scratch;
  core::FinishOnlySink sink;

  // Each simulated message is one send op + one recv op.
  const double ops = 2.0 * messages * iters;
  return run_bench(
      "comm_standard_p" + std::to_string(procs), "ops_per_sec", samples, ops,
      [&] {
        for (int i = 0; i < iters; ++i) {
          sink.reset(procs);
          sim.run_into(pat, ready, no_msg_ready, sink, scratch);
        }
      });
}

// comm_standard_p8's exact workload with an explicit FlatLogGP
// NetworkModel attached: the acceptance bar for the topology layer is
// that the flat backend costs <5% next to the bare nullptr path (it is
// virtual-dispatched per comm step, but flat models skip the per-message
// hooks entirely).  main() gates the pair in-process, where the
// back-to-back medians cancel machine-level noise that a stored
// baseline could not.
BenchResult bench_comm_standard_flatnet(int procs, int messages, int iters,
                                        int samples) {
  util::Rng rng{2024};
  const auto pat = pattern::random_pattern(rng, procs, messages, Bytes{16},
                                           Bytes{4096});
  const auto params = loggp::presets::meiko_cs2(procs);
  static const network::FlatLogGP flat;
  core::CommSimOptions opts;
  opts.net = &flat;
  const core::CommSimulator sim{params, opts};
  const std::vector<Time> ready(static_cast<std::size_t>(procs), Time::zero());
  const std::vector<Time> no_msg_ready;
  core::CommSimScratch scratch;
  core::FinishOnlySink sink;

  const double ops = 2.0 * messages * iters;
  return run_bench(
      "comm_standard_flatnet_p" + std::to_string(procs), "ops_per_sec",
      samples, ops, [&] {
        for (int i = 0; i < iters; ++i) {
          sink.reset(procs);
          sim.run_into(pat, ready, no_msg_ready, sink, scratch);
        }
      });
}

BenchResult bench_comm_worst_case(int procs, int messages, int iters,
                                  int samples) {
  util::Rng rng{777};
  const auto pat = pattern::random_pattern(rng, procs, messages, Bytes{16},
                                           Bytes{4096});
  const auto params = loggp::presets::meiko_cs2(procs);
  const core::WorstCaseSimulator sim{params};
  const std::vector<Time> ready(static_cast<std::size_t>(procs), Time::zero());
  core::CommSimScratch scratch;
  core::FinishOnlySink sink;

  const double ops = 2.0 * messages * iters;
  return run_bench(
      "comm_worst_case_p" + std::to_string(procs), "ops_per_sec", samples, ops,
      [&] {
        for (int i = 0; i < iters; ++i) {
          sink.reset(procs);
          sim.run_into(pat, ready, sink, scratch);
        }
      });
}

/// A P = `procs` 2-D halo exchange (16x16-cell tiles) on the flat network.
pattern::CommPattern halo_2d(int procs) {
  stencil::StencilConfig cfg;
  cfg.partition = stencil::Partition::kTiles2D;
  cfg.procs = procs;
  const int q = static_cast<int>(std::lround(std::sqrt(double(procs))));
  cfg.n = q * 16;
  return stencil::halo_pattern(cfg);
}

// One worst-case halo step at P = 4096: a cyclic pattern whose rounds are
// mostly deadlock breaks releasing one message, so a loop that scanned all
// P processors per round would read ~1/70 of this row's value.
BenchResult bench_comm_worst_case_halo(int procs, int iters, int samples) {
  const auto pat = halo_2d(procs);
  const core::WorstCaseSimulator sim{loggp::presets::meiko_cs2(procs)};
  const std::vector<Time> ready(static_cast<std::size_t>(procs), Time::zero());
  core::CommSimScratch scratch;
  core::FinishOnlySink sink;

  const double ops = 2.0 * static_cast<double>(pat.size()) * iters;
  return run_bench(
      "comm_worst_case_halo_p" + std::to_string(procs), "ops_per_sec",
      samples, ops, [&] {
        for (int i = 0; i < iters; ++i) {
          sink.reset(procs);
          sim.run_into(pat, ready, sink, scratch);
        }
      });
}

BenchResult bench_program_ge(int iters, int samples) {
  const auto costs = ops::analytic_cost_table();
  const auto params = loggp::presets::meiko_cs2(bench::kProcs);
  const layout::DiagonalMap map{bench::kProcs};
  const auto program = ge::build_ge_program(
      ge::GeConfig{.n = bench::kMatrixN, .block = 32}, map);
  const core::Predictor predictor{params};

  const double steps = static_cast<double>(program.size()) * iters;
  return run_bench("program_ge_n960_b32", "steps_per_sec", samples, steps,
                   [&] {
                     for (int i = 0; i < iters; ++i) {
                       (void)predictor.predict(program, costs);
                     }
                   });
}

BenchResult bench_batch_throughput(int samples, bool use_step_cache) {
  const auto costs = ops::analytic_cost_table();
  const auto params = loggp::presets::meiko_cs2(bench::kProcs);
  const layout::DiagonalMap map{bench::kProcs};

  std::vector<core::StepProgram> programs;
  std::vector<runtime::PredictJob> jobs;
  const std::vector<int> blocks{8, 16, 32, 64, 96, 120};
  programs.reserve(blocks.size());
  jobs.reserve(blocks.size());
  for (int b : blocks) {
    programs.push_back(ge::build_ge_program(
        ge::GeConfig{.n = bench::kMatrixN, .block = b}, map));
  }
  for (const auto& p : programs) {
    jobs.push_back(runtime::PredictJob{&p, params, &costs});
  }

  // The step cache persists across samples; sample 0 is discarded as
  // warm-up, so the reported number is the warm steady state -- each
  // distinct canonical comm step simulated once, then replayed.
  runtime::SharedStepCache step_cache;
  runtime::BatchPredictor batch{
      {.threads = 4,
       .step_cache = use_step_cache ? &step_cache : nullptr}};
  const double n_jobs = static_cast<double>(jobs.size());
  return run_bench("batch_ge_block_sweep", "jobs_per_sec", samples, n_jobs,
                   [&] { (void)batch.predict_all(jobs); });
}

// The comm-step cache in isolation, on one GE program (N=960, b=32,
// diagonal layout, standard + worst-case schedules via the Predictor):
// cold recreates the cache every iteration (misses + inserts on top of
// the full simulation), warm reuses one filled cache (pure replay).
BenchResult bench_step_cache(bool warmed, int iters, int samples) {
  const auto costs = ops::analytic_cost_table();
  const auto params = loggp::presets::meiko_cs2(bench::kProcs);
  const layout::DiagonalMap map{bench::kProcs};
  const auto program = ge::build_ge_program(
      ge::GeConfig{.n = bench::kMatrixN, .block = 32}, map);

  const double steps = static_cast<double>(program.size()) * iters;
  const std::string name =
      warmed ? "comm_step_cache_warm" : "comm_step_cache_cold";
  if (warmed) {
    runtime::SharedStepCache cache;
    core::ProgramSimOptions opts;
    opts.step_cache = &cache;
    const core::Predictor predictor{params, opts};
    (void)predictor.predict(program, costs);  // fill
    return run_bench(name, "steps_per_sec", samples, steps, [&] {
      for (int i = 0; i < iters; ++i) {
        (void)predictor.predict(program, costs);
      }
    });
  }
  return run_bench(name, "steps_per_sec", samples, steps, [&] {
    for (int i = 0; i < iters; ++i) {
      runtime::SharedStepCache cache;
      core::ProgramSimOptions opts;
      opts.step_cache = &cache;
      (void)core::Predictor{params, opts}.predict(program, costs);
    }
  });
}

// --p-sweep: one stencil halo CommStep per decade of P, timed standalone.
// Each row simulates a single standard-schedule step through
// core::ParallelCommSimulator (the unit the P=1M "< 1 s" acceptance target
// is stated in; from P = 2048 up it takes the dense scan).  The next rows
// time a P = 1M dissemination round (64 independent rings) on the seeded
// heap loop against the dense scan -- the row that keeps the dense scan.
// The worst-case rows run the Section-4.2 schedule on the same halo and on
// one allgather_doubling round: cyclic steps where nearly every round is a
// deadlock break, the shape that made a per-round O(P) scan quadratic.
void run_p_sweep() {
  // One warm-up run (scratch growth), then the median of 3 timed runs.
  const auto time_step = [](const auto& run) {
    run();
    std::vector<double> secs;
    for (int s = 0; s < 3; ++s) {
      const auto start = Clock::now();
      run();
      secs.push_back(seconds_since(start));
    }
    return median(secs);
  };
  util::Table table{{"pattern", "P", "messages", "sec/step", "ops_per_sec"}};
  const auto add_row = [&](const std::string& name,
                           const pattern::CommPattern& pat, double sec) {
    const double ops = 2.0 * static_cast<double>(pat.size());
    table.add_row({name, std::to_string(pat.procs()),
                   std::to_string(pat.size()), util::fmt(sec, 4),
                   util::fmt(ops / sec, 0)});
  };

  for (const int procs : {64, 1024, 65536, 1048576}) {
    const auto pat = halo_2d(procs);
    const std::vector<Time> ready(static_cast<std::size_t>(procs),
                                  Time::zero());
    core::ParallelCommSimulator sim{loggp::presets::meiko_cs2(procs)};
    core::FinishOnlySink sink;
    add_row("stencil_halo_2d", pat, time_step([&] {
              (void)sim.run_into(pat, ready, /*seed=*/1, sink);
            }));
  }

  const int procs = 1048576;
  const auto pat = collective::dissemination_round(procs, 6, Bytes{1024});
  const auto params = loggp::presets::meiko_cs2(procs);
  const std::vector<Time> ready(static_cast<std::size_t>(procs), Time::zero());
  core::FinishOnlySink sink;

  core::CommSimOptions heap_opts;
  heap_opts.seed = 1;
  const core::CommSimulator heap{params, heap_opts};
  core::CommSimScratch scratch;
  add_row("dissemination_r6 (heap)", pat, time_step([&] {
            sink.reset(procs);
            heap.run_into(pat, ready, {}, sink, scratch);
          }));

  core::ParallelCommSimulator dense{params};
  core::ParallelRunInfo info;
  const double dense_sec = time_step([&] {
    info = dense.run_into(pat, ready, /*seed=*/1, sink);
  });
  add_row(info.dense ? "dissemination_r6 (dense)"
                     : "dissemination_r6 (dense bailed to heap)",
          pat, dense_sec);

  core::CommSimScratch worst_scratch;
  const auto time_worst = [&](const std::string& name,
                              const pattern::CommPattern& step) {
    const int p = step.procs();
    const std::vector<Time> zero(static_cast<std::size_t>(p), Time::zero());
    const core::WorstCaseSimulator worst{loggp::presets::meiko_cs2(p)};
    add_row(name, step, time_step([&] {
              sink.reset(p);
              worst.run_into(step, zero, sink, worst_scratch);
            }));
  };
  for (const int p : {64, 1024, 16384, 65536, 1048576}) {
    time_worst("stencil_halo_2d (worst)", halo_2d(p));
  }
  for (const int p : {2048, 16384}) {
    const auto program = collective::allgather_doubling(p, Bytes{256});
    time_worst("allgather_round0 (worst)",
               std::get<core::CommStep>(program.step(0)).pattern);
  }

  std::cout << "=== mega-scale P sweep (median of 3, one comm step) ===\n"
            << table;
}

void write_json(std::ostream& out, const std::vector<BenchResult>& results,
                bool quick) {
  out << "{\n"
      << "  \"schema\": \"logsim-perf-v4\",\n"
      << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
      << "  \"benchmarks\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    out << "    {\"name\": \"" << r.name << "\", \"metric\": \"" << r.metric
        << "\", \"value\": " << util::fmt(r.value, 1) << ", \"samples\": [";
    for (std::size_t s = 0; s < r.samples.size(); ++s) {
      out << (s ? ", " : "") << util::fmt(r.samples[s], 1);
    }
    out << "]}" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

// Minimal baseline reader for the schema this tool writes: scans for
// "name": "..." / "value": N pairs.  Not a general JSON parser -- it only
// needs to read files produced by write_json (or hand-edited copies that
// keep name before value on each benchmark line).
std::vector<std::pair<std::string, double>> read_baseline(
    const std::string& path) {
  std::vector<std::pair<std::string, double>> out;
  std::ifstream in{path};
  if (!in) return out;
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  std::size_t pos = 0;
  while (true) {
    const std::size_t name_key = text.find("\"name\"", pos);
    if (name_key == std::string::npos) break;
    const std::size_t q1 = text.find('"', text.find(':', name_key));
    const std::size_t q2 = text.find('"', q1 + 1);
    const std::size_t value_key = text.find("\"value\"", q2);
    if (q1 == std::string::npos || q2 == std::string::npos ||
        value_key == std::string::npos) {
      break;
    }
    const std::string name = text.substr(q1 + 1, q2 - q1 - 1);
    const double value =
        std::strtod(text.c_str() + text.find(':', value_key) + 1, nullptr);
    out.emplace_back(name, value);
    pos = value_key;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool p_sweep = false;
  bool step_cache = logsim::runtime::step_cache_env_enabled();
  std::string out_path;
  std::string baseline_path;
  std::string write_baseline_path;
  double max_regress = 0.25;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << arg << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--p-sweep") {
      p_sweep = true;
    } else if (arg == "--no-step-cache") {
      step_cache = false;
    } else if (arg == "--out") {
      out_path = next();
    } else if (arg == "--baseline") {
      baseline_path = next();
    } else if (arg == "--write-baseline") {
      write_baseline_path = next();
    } else if (arg == "--max-regress") {
      max_regress = std::strtod(next().c_str(), nullptr);
    } else {
      std::cerr << "unknown flag: " << arg << "\n";
      return 2;
    }
  }

  if (p_sweep) {
    run_p_sweep();
    return 0;
  }

  // 5 samples in both modes: the gate is only as trustworthy as the
  // median's stability, and quick-mode 3-sample medians were not stable.
  const int samples = 5;
  // Iteration counts are sized so each sample takes a few tens of
  // milliseconds in a Release build -- long enough to time reliably,
  // short enough that --quick stays a smoke test.
  const int scale = quick ? 1 : 2;

  std::vector<BenchResult> results;
  results.push_back(bench_comm_standard(8, 256, 400 * scale, samples));
  results.push_back(bench_comm_standard_flatnet(8, 256, 400 * scale, samples));
  results.push_back(bench_comm_standard(64, 4096, 25 * scale, samples));
  results.push_back(bench_comm_standard(65536, 131072, 1 * scale, samples));
  results.push_back(bench_comm_worst_case(32, 2000, 50 * scale, samples));
  results.push_back(bench_comm_worst_case_halo(4096, 10 * scale, samples));
  results.push_back(bench_program_ge(5 * scale, samples));
  if (step_cache) {
    results.push_back(bench_step_cache(/*warmed=*/false, 2 * scale, samples));
    results.push_back(bench_step_cache(/*warmed=*/true, 5 * scale, samples));
  }
  results.push_back(bench_batch_throughput(samples, step_cache));

  util::Table table{{"benchmark", "metric", "median", "samples"}};
  for (const auto& r : results) {
    std::string samp;
    for (std::size_t s = 0; s < r.samples.size(); ++s) {
      samp += (s ? " " : "") + util::fmt(r.samples[s], 0);
    }
    table.add_row({r.name, r.metric, util::fmt(r.value, 0), samp});
  }
  std::cout << "=== perf regression harness (" << (quick ? "quick" : "full")
            << ", median of " << samples << ") ===\n"
            << table;

  // In-process acceptance gate for the NetworkModel seam: an attached
  // FlatLogGP backend must stay within 5% of the bare simulator on the
  // same workload.  Unlike the baseline gate this needs no stored file
  // -- both medians come from this very run, back to back.
  {
    auto find = [&](const std::string& name) -> const BenchResult* {
      const auto it = std::find_if(
          results.begin(), results.end(),
          [&](const BenchResult& r) { return r.name == name; });
      return it == results.end() ? nullptr : &*it;
    };
    const BenchResult* bare = find("comm_standard_p8");
    const BenchResult* flat = find("comm_standard_flatnet_p8");
    if (bare != nullptr && flat != nullptr && bare->value > 0) {
      const double ratio = flat->value / bare->value;
      const bool ok = ratio >= 0.95;
      std::cout << "flatnet overhead gate: flatnet is "
                << util::fmt(ratio * 100.0, 1) << "% of bare (need >= 95%) "
                << (ok ? "(ok)" : "(FAILED)") << "\n";
      if (!ok) {
        std::cerr << "FlatLogGP overhead gate FAILED\n";
        return 1;
      }
    }
  }

  if (!out_path.empty()) {
    std::ofstream out{out_path};
    if (!out) {
      std::cerr << "cannot write " << out_path << "\n";
      return 2;
    }
    write_json(out, results, quick);
    std::cout << "wrote " << out_path << "\n";
  }
  if (!write_baseline_path.empty()) {
    std::ofstream out{write_baseline_path};
    if (!out) {
      std::cerr << "cannot write " << write_baseline_path << "\n";
      return 2;
    }
    write_json(out, results, quick);
    std::cout << "wrote baseline " << write_baseline_path << "\n";
  }

  if (!baseline_path.empty()) {
    const auto baseline = read_baseline(baseline_path);
    if (baseline.empty()) {
      std::cerr << "baseline " << baseline_path
                << " missing or unreadable; skipping gate\n";
      return 0;
    }
    bool failed = false;
    std::cout << "\n--- regression gate vs " << baseline_path << " (max "
              << util::fmt(max_regress * 100.0, 0) << "% drop) ---\n";
    for (const auto& r : results) {
      const auto it =
          std::find_if(baseline.begin(), baseline.end(),
                       [&](const auto& b) { return b.first == r.name; });
      if (it == baseline.end()) {
        std::cout << r.name << ": no baseline entry, skipped\n";
        continue;
      }
      const double ratio = r.value / it->second;
      const bool ok = ratio >= 1.0 - max_regress;
      std::cout << r.name << ": " << util::fmt(ratio * 100.0, 1)
                << "% of baseline " << (ok ? "(ok)" : "(REGRESSION)") << "\n";
      failed = failed || !ok;
    }
    if (failed) {
      std::cerr << "perf regression gate FAILED\n";
      return 1;
    }
    std::cout << "perf regression gate passed\n";
  }
  return 0;
}
