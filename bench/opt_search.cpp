// Future work realized: automatic search for the optimal block size and
// layout over the *predicted* running times (Section 6: "this reduces to
// a search problem").

#include <iostream>
#include <stdexcept>

#include <logsim/logsim.hpp>

#include "ge_sweep.hpp"

using namespace logsim;

int main() {
  std::cout << "=== Optimal block-size / layout search over predictions ===\n"
            << "N=" << bench::kMatrixN << ", P=" << bench::kProcs << "\n\n";

  const auto costs = ops::analytic_cost_table();
  const auto params = loggp::presets::meiko_cs2(bench::kProcs);

  const layout::DiagonalMap diag{bench::kProcs};
  const layout::RowCyclic row{bench::kProcs};
  const auto& blocks = ops::default_block_sizes();

  // The exhaustive grid goes through the batch runtime: all (block, layout)
  // candidates in flight across the pool, memoized so the local-descent
  // walks below re-use the grid's predictions instead of re-simulating.
  runtime::PredictionCache cache{{.byte_budget = 1ull << 30}};
  runtime::BatchPredictor::Config batch_cfg;
  batch_cfg.cache = &cache;
  runtime::BatchPredictor batch{batch_cfg};
  const search::ProgramFactory factory = [](int b, const layout::Layout& l) {
    return ge::build_ge_program(ge::GeConfig{.n = bench::kMatrixN, .block = b},
                                l);
  };

  const auto exhaustive = search::exhaustive_search(blocks, {&diag, &row},
                                                    factory, batch, params,
                                                    costs);
  util::Table table{{"block", "layout", "predicted total(s)"}};
  for (const auto& e : exhaustive.evaluated) {
    table.add_row({std::to_string(e.block), e.layout,
                   util::fmt(e.predicted.sec(), 3)});
  }
  std::cout << table << '\n';
  std::cout << "exhaustive best: block " << exhaustive.best.block << " / "
            << exhaustive.best.layout << " ("
            << util::fmt(exhaustive.best.predicted.sec(), 3) << " s) in "
            << exhaustive.evaluations << " evaluations\n";

  // Local descent probes one candidate at a time; route it through the same
  // batch predictor so every probe is answered from the warm grid cache.
  const search::Evaluator eval = [&](int b, const layout::Layout& l) {
    const auto program = factory(b, l);
    const auto r =
        batch.predict_one(runtime::PredictJob{&program, params, &costs});
    if (!r.ok()) throw std::runtime_error(r.error());
    return r.value().standard.total;
  };
  for (std::size_t start : {std::size_t{0}, blocks.size() - 1}) {
    const auto descent = search::local_descent(blocks, diag, eval, start);
    std::cout << "local descent from block " << blocks[start]
              << " (diagonal): best block " << descent.best.block << " ("
              << util::fmt(descent.best.predicted.sec(), 3) << " s) in "
              << descent.evaluations << " evaluations"
              << (descent.best.block == exhaustive.best.block
                      ? " [global]"
                      : " [local optimum]")
              << '\n';
  }

  // Validate the choice against the Testbed "measurement".
  const machine::Testbed testbed{machine::TestbedConfig::meiko_cs2(bench::kProcs)};
  const auto chosen_prog = ge::build_ge_program(
      ge::GeConfig{.n = bench::kMatrixN, .block = exhaustive.best.block},
      exhaustive.best.layout == "diagonal"
          ? static_cast<const layout::Layout&>(diag)
          : static_cast<const layout::Layout&>(row));
  std::cout << "measured time at the predicted optimum: "
            << util::fmt(testbed.run(chosen_prog, costs).total_with_cache.sec(), 3)
            << " s\n";

  std::cout << "\n=== runtime metrics (" << batch.threads() << " threads) ===\n"
            << batch.metrics().to_string();
  return 0;
}
