// End-to-end reproduction checks: the paper's Section 5.3 claims on a
// laptop-scale configuration (N=480, P=8, both layouts).  These are the
// assertions behind Figures 7-9: the predictions bracket the measured
// communication time, track the shape of the total-time curve, pick a
// near-optimal block size, and rank the layouts correctly.

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/predictor.hpp"
#include "ge/blocked_ge.hpp"
#include "layout/layout.hpp"
#include "machine/testbed.hpp"
#include "ops/analytic_model.hpp"
#include "search/optimizer.hpp"
#include "util/stats.hpp"

namespace logsim {
namespace {

constexpr int kN = 480;
const std::vector<int> kBlocks{10, 12, 15, 16, 20, 24, 30, 40, 48, 60, 80, 96,
                               120};

struct Curves {
  std::vector<double> predicted_std;
  std::vector<double> predicted_wc;
  std::vector<double> predicted_comm_std;
  std::vector<double> predicted_comm_wc;
  std::vector<double> predicted_comp;
  std::vector<double> measured_total;
  std::vector<double> measured_comm;
  std::vector<double> measured_comp;
};

Curves sweep(const layout::Layout& map) {
  Curves c;
  const auto costs = ops::analytic_cost_table();
  const core::Predictor predictor{loggp::presets::meiko_cs2(8)};
  const machine::Testbed testbed{machine::TestbedConfig::meiko_cs2(8)};
  for (int b : kBlocks) {
    const auto program =
        ge::build_ge_program(ge::GeConfig{.n = kN, .block = b}, map);
    const core::Prediction pred = predictor.predict_or_die(program, costs);
    const machine::TestbedResult meas = testbed.run(program, costs);
    c.predicted_std.push_back(pred.total().us());
    c.predicted_wc.push_back(pred.total_worst().us());
    c.predicted_comm_std.push_back(pred.comm().us());
    c.predicted_comm_wc.push_back(pred.comm_worst().us());
    c.predicted_comp.push_back(pred.comp().us());
    c.measured_total.push_back(meas.total_with_cache.us());
    c.measured_comm.push_back(meas.comm_max().us());
    c.measured_comp.push_back((meas.comp_max() + meas.stall_max()).us());
  }
  return c;
}

const Curves& diagonal_curves() {
  static const Curves c = sweep(layout::DiagonalMap{8});
  return c;
}

const Curves& row_curves() {
  static const Curves c = sweep(layout::RowCyclic{8});
  return c;
}

TEST(Integration, WorstCaseAlwaysAboveStandard) {
  for (const Curves* c : {&diagonal_curves(), &row_curves()}) {
    for (std::size_t i = 0; i < kBlocks.size(); ++i) {
      EXPECT_GE(c->predicted_wc[i] + 1e-6, c->predicted_std[i])
          << "block=" << kBlocks[i];
    }
  }
}

TEST(Integration, MeasuredCommBetweenStandardAndWorstCase) {
  // Figure 8: "the measured values fall between the simulated values" of
  // the standard and worst-case algorithms.  Diagonal comm steps have
  // several senders that also receive, so the worst case opens a real gap
  // above the standard schedule and every point is inside, no allowance.
  const Curves& d = diagonal_curves();
  for (std::size_t i = 0; i < kBlocks.size(); ++i) {
    EXPECT_LE(d.predicted_comm_std[i], d.measured_comm[i])
        << "block=" << kBlocks[i];
    EXPECT_LE(d.measured_comm[i], d.predicted_comm_wc[i])
        << "block=" << kBlocks[i];
  }
  // Row-cyclic comm steps have a single sender, the pivot-row owner, so
  // the worst case's receive-first rule is vacuous and worst equals
  // standard.  Measured comm then sits above both: the Testbed's
  // self-message copies, per-op loop overhead and cache stalls are not in
  // the model (EXPERIMENTS.md, Figure 8).  Jitter is the smallest of the
  // Testbed effects, not the cause.  This half keeps its allowance until
  // the row-cyclic program gets multi-sender comm steps.
  const Curves& r = row_curves();
  int inside = 0;
  for (std::size_t i = 0; i < kBlocks.size(); ++i) {
    if (r.measured_comm[i] >= r.predicted_comm_std[i] - 1e-6 &&
        r.measured_comm[i] <= r.predicted_comm_wc[i] * 1.25) {
      ++inside;
    }
  }
  EXPECT_GE(inside, static_cast<int>(kBlocks.size()) - 2);
}

TEST(Integration, PredictionTracksMeasuredShape) {
  // Figure 7: the simulation "follows the sawtooth behavior" -- rank
  // correlation between predicted and measured totals is strongly
  // positive for both layouts.
  for (const Curves* c : {&diagonal_curves(), &row_curves()}) {
    const double rho = util::spearman(c->predicted_std, c->measured_total);
    EXPECT_GT(rho, 0.8);
  }
}

TEST(Integration, PredictedOptimumNearMeasuredOptimum) {
  // Section 5.3: "these roughly predicted best block sizes yield real
  // running times that are not far from the real minimum times."
  for (const Curves* c : {&diagonal_curves(), &row_curves()}) {
    const std::size_t pred_best = util::argmin(c->predicted_std);
    const std::size_t meas_best = util::argmin(c->measured_total);
    // Running the *predicted* best block on the real machine costs at
    // most 25% more than the true measured optimum.
    EXPECT_LE(c->measured_total[pred_best],
              1.25 * c->measured_total[meas_best])
        << "predicted best " << kBlocks[pred_best] << ", measured best "
        << kBlocks[meas_best];
  }
}

TEST(Integration, DiagonalLayoutWinsForLargeBlocks) {
  // Section 5.3: "the simulation predictions indicated that the diagonal
  // mapping works better, especially for large block sizes, which is
  // exactly the same result as ... the real execution."
  const Curves& d = diagonal_curves();
  const Curves& r = row_curves();
  int predicted_wins = 0, measured_wins = 0, large = 0;
  for (std::size_t i = 0; i < kBlocks.size(); ++i) {
    if (kBlocks[i] < 40) continue;
    ++large;
    predicted_wins += d.predicted_std[i] < r.predicted_std[i] ? 1 : 0;
    measured_wins += d.measured_total[i] < r.measured_total[i] ? 1 : 0;
  }
  EXPECT_GE(predicted_wins, large - 1);
  EXPECT_GE(measured_wins, large - 1);
}

TEST(Integration, ComputationPredictionClosestAtLargeBlocks) {
  // Figure 9: computation predictions are close, with the iteration
  // overhead making the under-estimation worst at small block sizes.
  const Curves& c = diagonal_curves();
  const double small_gap =
      (c.measured_comp.front() - c.predicted_comp.front()) /
      c.measured_comp.front();
  const double large_gap =
      (c.measured_comp.back() - c.predicted_comp.back()) /
      c.measured_comp.back();
  EXPECT_GT(small_gap, large_gap);
  EXPECT_GE(small_gap, 0.0);   // simulation under-estimates
  EXPECT_LT(large_gap, 0.15);  // "very close" for large blocks
}

TEST(Integration, SearchPicksGoodBlockFromPredictions) {
  // Close the loop with the future-work optimizer: searching over the
  // *predicted* curve yields a block size whose *measured* time is near
  // the measured optimum.
  const layout::DiagonalMap diag{8};
  const auto costs = ops::analytic_cost_table();
  const core::Predictor predictor{loggp::presets::meiko_cs2(8)};
  const search::Evaluator eval = [&](int b, const layout::Layout& l) {
    const auto program =
        ge::build_ge_program(ge::GeConfig{.n = kN, .block = b}, l);
    return predictor.predict_standard(program, costs).total;
  };
  const auto found = search::exhaustive_search(kBlocks, {&diag}, eval);
  const Curves& c = diagonal_curves();
  const std::size_t meas_best = util::argmin(c.measured_total);
  std::size_t found_idx = 0;
  for (std::size_t i = 0; i < kBlocks.size(); ++i) {
    if (kBlocks[i] == found.best.block) found_idx = i;
  }
  EXPECT_LE(c.measured_total[found_idx], 1.25 * c.measured_total[meas_best]);
}

TEST(Integration, CacheAwarePredictionReducesSmallBlockError) {
  // The paper's conclusion: "a model to simulate caching behavior must be
  // incorporated in the simulation algorithm".  Attaching the cache model
  // to the predictor's compute-overhead hook must shrink the error
  // against the cache-enabled testbed at the smallest block size.
  const layout::DiagonalMap diag{8};
  const auto costs = ops::analytic_cost_table();
  const int b = 10;
  const auto program =
      ge::build_ge_program(ge::GeConfig{.n = kN, .block = b}, diag);

  const machine::Testbed testbed{machine::TestbedConfig::meiko_cs2(8)};
  const double measured = testbed.run(program, costs).total_with_cache.us();

  const core::Predictor plain{loggp::presets::meiko_cs2(8)};
  const double plain_pred = plain.predict_standard(program, costs).total.us();

  core::ProgramSimOptions opts;
  std::vector<machine::CacheModel> caches(
      8, machine::CacheModel{machine::CacheConfig{}});
  opts.compute_overhead = [&caches, b](const core::WorkItem& item,
                                       std::span<const std::int64_t> ids) {
    Time stall = Time::zero();
    const Bytes bb{static_cast<std::uint64_t>(b) * b * 8};
    for (const auto uid : ids) {
      stall += caches[static_cast<std::size_t>(item.proc)].access(uid, bb);
    }
    return stall;
  };
  const core::Predictor aware{loggp::presets::meiko_cs2(8), opts};
  const double aware_pred = aware.predict_standard(program, costs).total.us();

  EXPECT_LT(std::abs(aware_pred - measured), std::abs(plain_pred - measured));
}

// The standard schedule does not depend on the seed: on the Fig-7 grid
// (N = 960, both layouts, the 15 paper block sizes, each dividing 960) it
// is bit-identical across five seeds.  The seed only breaks ties between
// candidates, and §4.2's worst case is where it moves the answer.
TEST(Integration, StandardScheduleIgnoresTheSeedOnFig7Grid) {
  const auto costs = ops::analytic_cost_table();
  const auto params = loggp::presets::meiko_cs2(8);
  const layout::DiagonalMap diag{8};
  const layout::RowCyclic row{8};
  for (const layout::Layout* map :
       {static_cast<const layout::Layout*>(&diag),
        static_cast<const layout::Layout*>(&row)}) {
    for (const int b : ops::default_block_sizes()) {
      ASSERT_EQ(960 % b, 0);
      const auto program =
          ge::build_ge_program(ge::GeConfig{.n = 960, .block = b}, *map);
      core::ProgramSimOptions opts;
      const auto first =
          core::Predictor{params, opts}.predict_standard(program, costs);
      for (const std::uint64_t seed : {2u, 7u, 12345u, 999983u}) {
        opts.seed = seed;
        const auto other =
            core::Predictor{params, opts}.predict_standard(program, costs);
        const std::string where = map->name() + " b=" + std::to_string(b) +
                                  " seed " + std::to_string(seed);
        EXPECT_EQ(other.total.us(), first.total.us()) << where;
        EXPECT_EQ(other.comm_ops, first.comm_ops) << where;
        ASSERT_EQ(other.proc_end.size(), first.proc_end.size());
        for (std::size_t p = 0; p < first.proc_end.size(); ++p) {
          EXPECT_EQ(other.proc_end[p].us(), first.proc_end[p].us()) << where;
          EXPECT_EQ(other.comp[p].us(), first.comp[p].us()) << where;
          EXPECT_EQ(other.comm[p].us(), first.comm[p].us()) << where;
        }
      }
    }
  }
}

}  // namespace
}  // namespace logsim
