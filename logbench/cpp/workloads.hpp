#pragma once
// The four workloads.  Each fills the report with the end-to-end metrics
// (untraced run) or the per-layer metrics (traced run) of its inputs.

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"

namespace logbench {

void run_ge_sweep(const Options& opt, Report& report);
void run_ge_revisit(const Options& opt, Report& report);
void run_scale_topo(const Options& opt, Report& report);
void run_serve_handles(const Options& opt, Report& report);

/// splitmix64: derives independent per-job seeds from the workload seed.
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t x);

/// Median relative error of the standard prediction against the Testbed
/// (with cache) and the share of points whose Testbed comm time lies in
/// [standard comm, worst comm], both in percent, with no allowance.
struct Accuracy {
  double std_err_pct = 0.0;
  double bracket_pct = 0.0;
  double testbed_ms = 0.0;  ///< mean host time of one Testbed::run
  std::size_t points = 0;
};

struct AccuracyPoint {
  const logsim::core::StepProgram* program = nullptr;
  const logsim::core::CostTable* costs = nullptr;
  const logsim::core::Prediction* prediction = nullptr;
  logsim::machine::TestbedConfig testbed;
};

[[nodiscard]] Accuracy measure_accuracy(const std::vector<AccuracyPoint>& pts);

}  // namespace logbench
