#pragma once
// Shared driver for the Figure 7/8/9 benches: sweeps the paper's block
// sizes for one layout, producing the predicted (standard + worst-case)
// and "measured" (Testbed) series.  Paper setup: 960x960 doubles, 8
// processors, Meiko CS-2 LogGP parameters.

#include <stdexcept>
#include <string>
#include <vector>

#include <logsim/logsim.hpp>

namespace logsim::bench {

inline constexpr int kMatrixN = 960;
inline constexpr int kProcs = 8;

struct SweepPoint {
  int block = 0;
  double measured_with_cache = 0.0;   // seconds
  double measured_without_cache = 0.0;
  double simulated_standard = 0.0;
  double simulated_worst = 0.0;
  double measured_comm = 0.0;
  double simulated_comm_standard = 0.0;
  double simulated_comm_worst = 0.0;
  double measured_comp = 0.0;   // includes iteration overhead + stalls
  double simulated_comp = 0.0;
};

struct SweepResult {
  std::string layout;
  std::vector<SweepPoint> points;

  [[nodiscard]] std::vector<double> column(double SweepPoint::* field) const {
    std::vector<double> out;
    out.reserve(points.size());
    for (const auto& pt : points) out.push_back(pt.*field);
    return out;
  }
  [[nodiscard]] std::vector<double> blocks() const {
    std::vector<double> out;
    for (const auto& pt : points) out.push_back(pt.block);
    return out;
  }
};

/// Sweeps every paper block size for `map`.  The LogGP predictions go
/// through `batch` (all blocks in flight at once, memoized when the batch
/// predictor carries a cache); the Testbed "measurement" stays serial --
/// it is the stand-in for the real machine, which cannot be parallelised
/// away.  Results are identical to the historical serial loop.
inline SweepResult run_sweep(const layout::Layout& map,
                             runtime::BatchPredictor& batch,
                             int matrix_n = kMatrixN) {
  SweepResult result;
  result.layout = map.name();
  const auto costs = ops::analytic_cost_table();
  const auto params = loggp::presets::meiko_cs2(kProcs);
  const machine::Testbed testbed{machine::TestbedConfig::meiko_cs2(kProcs)};
  const auto& blocks = ops::default_block_sizes();

  std::vector<core::StepProgram> programs;
  programs.reserve(blocks.size());
  std::vector<runtime::PredictJob> jobs;
  jobs.reserve(blocks.size());
  for (int b : blocks) {
    programs.push_back(
        ge::build_ge_program(ge::GeConfig{.n = matrix_n, .block = b}, map));
    jobs.push_back(runtime::PredictJob{&programs.back(), params, &costs});
  }
  const std::vector<runtime::JobResult> predictions = batch.predict_all(jobs);

  for (std::size_t i = 0; i < blocks.size(); ++i) {
    if (!predictions[i].ok()) {
      throw std::runtime_error("ge sweep: prediction failed for block " +
                               std::to_string(blocks[i]) + ": " +
                               predictions[i].error());
    }
    const core::Prediction& pred = predictions[i].value();
    const machine::TestbedResult meas = testbed.run(programs[i], costs);

    SweepPoint pt;
    pt.block = blocks[i];
    pt.measured_with_cache = meas.total_with_cache.sec();
    pt.measured_without_cache = meas.total_without_cache.sec();
    pt.simulated_standard = pred.total().sec();
    pt.simulated_worst = pred.total_worst().sec();
    pt.measured_comm = meas.comm_max().sec();
    pt.simulated_comm_standard = pred.comm().sec();
    pt.simulated_comm_worst = pred.comm_worst().sec();
    pt.measured_comp = (meas.comp_max() + meas.stall_max()).sec();
    pt.simulated_comp = pred.comp().sec();
    result.points.push_back(pt);
  }
  return result;
}

/// Convenience overload: sweeps with a freshly configured batch predictor
/// (hardware-concurrency threads, no whole-program cache, a sweep-local
/// comm-step cache) -- the drop-in replacement for the historical serial
/// signature used by the fig7/8/9 benches.  A sweep takes well under a
/// second, so a killed run is simply run again: every job is a pure
/// function of its inputs, and its results come back bit-identical.
///
/// Set LOGSIM_STEP_CACHE=0 to disable the comm-step cache (results are
/// bit-identical either way; the cache only changes how fast they arrive).
inline SweepResult run_sweep(const layout::Layout& map,
                             int matrix_n = kMatrixN) {
  runtime::BatchPredictor::Config cfg;
  runtime::SharedStepCache step_cache;
  if (runtime::step_cache_env_enabled()) cfg.step_cache = &step_cache;
  runtime::BatchPredictor batch{cfg};
  return run_sweep(map, batch, matrix_n);
}

}  // namespace logsim::bench
