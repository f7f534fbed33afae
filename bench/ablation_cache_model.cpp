// Ablation: the paper's conclusion -- "a model to simulate caching
// behavior must be incorporated in the simulation algorithm".  Compares
// the plain LogGP prediction and a cache-aware prediction (the same LRU
// model attached to the predictor's compute-overhead hook) against the
// cache-enabled Testbed measurement.

#include <cmath>
#include <cstdint>
#include <iostream>
#include <span>
#include <vector>

#include <logsim/logsim.hpp>

#include "ge_sweep.hpp"

using namespace logsim;

int main() {
  std::cout << "=== Ablation: cache-aware prediction, N=" << bench::kMatrixN
            << ", P=" << bench::kProcs << ", diagonal layout ===\n\n";

  const layout::DiagonalMap map{bench::kProcs};
  const auto costs = ops::analytic_cost_table();
  const core::Predictor plain{loggp::presets::meiko_cs2(bench::kProcs)};
  const machine::Testbed testbed{machine::TestbedConfig::meiko_cs2(bench::kProcs)};

  util::Table table{{"block", "measured(s)", "plain pred(s)", "err(%)",
                     "cache-aware(s)", "err(%)"}};
  double plain_err_sum = 0.0, aware_err_sum = 0.0;
  for (int b : ops::default_block_sizes()) {
    const auto program = ge::build_ge_program(
        ge::GeConfig{.n = bench::kMatrixN, .block = b}, map);
    const double measured = testbed.run(program, costs).total_with_cache.sec();
    const double plain_pred =
        plain.predict_standard(program, costs).total.sec();

    // Cache-aware variant: per-processor LRU caches fed by the work items'
    // touched-block lists, exactly what the Testbed machine charges.
    std::vector<machine::CacheModel> caches(
        bench::kProcs, machine::CacheModel{machine::CacheConfig{}});
    core::ProgramSimOptions opts;
    opts.compute_overhead = [&caches, b](const core::WorkItem& item,
                                         std::span<const std::int64_t> ids) {
      Time stall = Time::zero();
      const Bytes bb{static_cast<std::uint64_t>(b) * b * 8};
      for (const auto uid : ids) {
        stall += caches[static_cast<std::size_t>(item.proc)].access(uid, bb);
      }
      return stall;
    };
    const core::Predictor aware{loggp::presets::meiko_cs2(bench::kProcs),
                                opts};
    const double aware_pred =
        aware.predict_standard(program, costs).total.sec();

    const double pe = 100.0 * (plain_pred - measured) / measured;
    const double ae = 100.0 * (aware_pred - measured) / measured;
    plain_err_sum += std::abs(pe);
    aware_err_sum += std::abs(ae);
    table.add_row({std::to_string(b), util::fmt(measured, 3),
                   util::fmt(plain_pred, 3), util::fmt(pe, 1),
                   util::fmt(aware_pred, 3), util::fmt(ae, 1)});
  }
  std::cout << table << '\n';
  const double n = static_cast<double>(ops::default_block_sizes().size());
  std::cout << "mean |error|: plain " << util::fmt(plain_err_sum / n, 1)
            << "%  vs cache-aware " << util::fmt(aware_err_sum / n, 1)
            << "%  (adding the cache model improves the prediction)\n";
  return 0;
}
