#include <gtest/gtest.h>

#include "baseline/bounds.hpp"
#include "baseline/bsp.hpp"
#include "baseline/formulas.hpp"
#include "core/comm_sim.hpp"
#include "core/step_program.hpp"
#include "pattern/builders.hpp"
#include "util/rng.hpp"

namespace logsim::baseline {
namespace {

const loggp::Params kMeiko = loggp::presets::meiko_cs2(8);

TEST(Formulas, SingleMessageKnownValue) {
  // o + (k-1)G + L + o = 2 + 111*0.03 + 9 + 2.
  EXPECT_NEAR(single_message_time(Bytes{112}, kMeiko).us(), 16.33, 1e-9);
}

TEST(Formulas, RingGapDominatesForSmallMessages) {
  // s(1)+L = 11 < g = 13: the receive is gap-limited.
  EXPECT_DOUBLE_EQ(ring_time(Bytes{1}, kMeiko).us(), 15.0);
}

TEST(Formulas, RingArrivalDominatesForLongMessages) {
  // s(1001)+L = 41 > g: arrival-limited.
  EXPECT_DOUBLE_EQ(ring_time(Bytes{1001}, kMeiko).us(), 43.0);
}

TEST(Formulas, FlatBroadcastDegenerateCases) {
  EXPECT_DOUBLE_EQ(flat_broadcast_time(1, Bytes{100}, kMeiko).us(), 0.0);
  EXPECT_DOUBLE_EQ(flat_broadcast_time(2, Bytes{1}, kMeiko).us(),
                   single_message_time(Bytes{1}, kMeiko).us());
}

TEST(Formulas, BinomialBeatsFlatForLargeP) {
  const Bytes k{64};
  for (int procs : {8, 16, 32}) {
    EXPECT_LT(binomial_broadcast_time(procs, k, kMeiko).us(),
              flat_broadcast_time(procs, k, kMeiko).us())
        << "procs=" << procs;
  }
}

TEST(Formulas, OptimalNeverWorseThanBinomialOrFlat) {
  const Bytes k{64};
  for (int procs : {2, 3, 4, 7, 8, 16, 33}) {
    const double opt = optimal_broadcast_time(procs, k, kMeiko).us();
    EXPECT_LE(opt, binomial_broadcast_time(procs, k, kMeiko).us() + 1e-9);
    EXPECT_LE(opt, flat_broadcast_time(procs, k, kMeiko).us() + 1e-9);
  }
}

TEST(Formulas, BroadcastTimesGrowWithP) {
  const Bytes k{64};
  double prev = 0.0;
  for (int procs : {2, 4, 8, 16}) {
    const double t = optimal_broadcast_time(procs, k, kMeiko).us();
    EXPECT_GT(t, prev);
    prev = t;
  }
}

TEST(Formulas, BinomialMatchesRoundByRoundSimulation) {
  // Drive the simulator through the binomial rounds as separate steps with
  // carried ready times; the formula must agree with the simulated result.
  const Bytes k{64};
  for (int procs : {2, 4, 8, 16}) {
    const auto params = loggp::presets::meiko_cs2(procs);
    std::vector<Time> ready(static_cast<std::size_t>(procs), Time::zero());
    const core::CommSimulator sim{params};
    for (int r = 0; (1 << r) < procs; ++r) {
      const auto pat = pattern::binomial_round(procs, r, k);
      const auto trace = sim.run(pat, ready);
      const auto finish = trace.finish_times();
      for (std::size_t p = 0; p < ready.size(); ++p) {
        if (finish[p] > Time::zero()) ready[p] = finish[p];
      }
    }
    Time last = Time::zero();
    for (Time t : ready) last = max(last, t);
    EXPECT_NEAR(last.us(), binomial_rounds_time(procs, k, params).us(), 1e-9)
        << "procs=" << procs;
  }
}

TEST(Formulas, RoundsVariantNeverSlowerThanContinuingTimeline) {
  // Resetting sequencing state at step boundaries can only help (g >= o).
  const Bytes k{64};
  for (int procs : {2, 3, 4, 8, 16, 33}) {
    EXPECT_LE(binomial_rounds_time(procs, k, kMeiko).us(),
              binomial_broadcast_time(procs, k, kMeiko).us() + 1e-9);
  }
}

// --- bounds --------------------------------------------------------------

class BoundsPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BoundsPropertyTest, SimulatorSandwichedByBounds) {
  util::Rng rng{GetParam()};
  const int procs = static_cast<int>(2 + rng.below(8));
  const auto pat = pattern::random_pattern(rng, procs, 1 + rng.below(50),
                                           Bytes{1}, Bytes{1000});
  const auto params = loggp::presets::meiko_cs2(procs);
  const Time t = core::CommSimulator{params}.run(pat).makespan();
  EXPECT_GE(t.us() + 1e-9, comm_lower_bound(pat, params).us());
  EXPECT_LE(t.us(), comm_upper_bound(pat, params).us() + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BoundsPropertyTest,
                         ::testing::Range<std::uint64_t>(1, 16));

TEST(Bounds, EmptyPatternZero) {
  const pattern::CommPattern pat{4};
  EXPECT_DOUBLE_EQ(comm_lower_bound(pat, kMeiko).us(), 0.0);
  EXPECT_DOUBLE_EQ(comm_upper_bound(pat, kMeiko).us(), 0.0);
}

TEST(Bounds, SelfOnlyPatternZero) {
  pattern::CommPattern pat{2};
  pat.add(1, 1, Bytes{500});
  EXPECT_DOUBLE_EQ(comm_lower_bound(pat, kMeiko).us(), 0.0);
}

// --- BSP -----------------------------------------------------------------

TEST(Bsp, FromLoggpDerivation) {
  const BspParams p = BspParams::from_loggp(kMeiko);
  EXPECT_DOUBLE_EQ(p.l.us(), 13.0);  // L + 2o
  EXPECT_DOUBLE_EQ(p.g_per_byte, 0.03);
}

TEST(Bsp, SuperstepAccounting) {
  core::StepProgram prog{2};
  core::CostTable costs;
  const core::OpId op = costs.register_op("w");
  costs.set_cost(op, 1, Time{100.0});

  core::ComputeStep cs;
  cs.add({0, op, 1});
  cs.add({1, op, 1});
  prog.add_compute(cs);
  pattern::CommPattern pat{2};
  pat.add(0, 1, Bytes{1000});
  prog.add_comm(pat);

  const BspParams params{.l = Time{10.0}, .g_per_byte = 0.05};
  const BspPrediction pred = bsp_predict(prog, costs, params);
  EXPECT_EQ(pred.supersteps, 1u);
  EXPECT_DOUBLE_EQ(pred.comp.us(), 100.0);         // max, not sum
  EXPECT_DOUBLE_EQ(pred.comm.us(), 50.0 + 10.0);   // g*h + l
  EXPECT_DOUBLE_EQ(pred.total.us(), 160.0);
}

TEST(Bsp, HRelationUsesMaxOverProcs) {
  core::StepProgram prog{3};
  pattern::CommPattern pat{3};
  pat.add(0, 1, Bytes{100});
  pat.add(0, 2, Bytes{300});  // proc 0 sends 400 total: h = 400
  prog.add_comm(pat);
  core::CostTable costs;
  costs.register_op("w");
  const BspPrediction pred =
      bsp_predict(prog, costs, BspParams{.l = Time{0.0}, .g_per_byte = 1.0});
  EXPECT_DOUBLE_EQ(pred.comm.us(), 400.0);
}

TEST(Bsp, SelfMessagesExcludedFromH) {
  core::StepProgram prog{2};
  pattern::CommPattern pat{2};
  pat.add(0, 0, Bytes{1000});
  prog.add_comm(pat);
  core::CostTable costs;
  costs.register_op("w");
  const BspPrediction pred =
      bsp_predict(prog, costs, BspParams{.l = Time{0.0}, .g_per_byte = 1.0});
  EXPECT_DOUBLE_EQ(pred.comm.us(), 0.0);
}

TEST(Bsp, ConsecutiveComputeStepsCloseSupersteps) {
  core::StepProgram prog{1};
  core::CostTable costs;
  const core::OpId op = costs.register_op("w");
  costs.set_cost(op, 1, Time{10.0});
  for (int i = 0; i < 3; ++i) {
    core::ComputeStep cs;
    cs.add({0, op, 1});
    prog.add_compute(cs);
  }
  const BspPrediction pred =
      bsp_predict(prog, costs, BspParams{.l = Time{1.0}, .g_per_byte = 0.0});
  EXPECT_EQ(pred.supersteps, 3u);
  EXPECT_DOUBLE_EQ(pred.comp.us(), 30.0);
  EXPECT_DOUBLE_EQ(pred.comm.us(), 3.0);
}

}  // namespace
}  // namespace logsim::baseline
