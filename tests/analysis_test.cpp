#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "analysis/critical_path.hpp"
#include "analysis/export.hpp"
#include "analysis/trace_stats.hpp"
#include "cannon/cannon.hpp"
#include "core/comm_sim.hpp"
#include "core/predictor.hpp"
#include "ge/blocked_ge.hpp"
#include "layout/layout.hpp"
#include "ops/analytic_model.hpp"
#include "pattern/builders.hpp"
#include "util/rng.hpp"

namespace logsim::analysis {
namespace {

const loggp::Params kMeiko = loggp::presets::meiko_cs2(10);

TEST(Utilization, CountsAndBusyTime) {
  pattern::CommPattern pat{2};
  pat.add(0, 1, Bytes{1});
  pat.add(0, 1, Bytes{1});
  const auto trace = core::CommSimulator{kMeiko}.run(pat);
  const auto util = utilization(trace);
  ASSERT_EQ(util.size(), 2u);
  EXPECT_EQ(util[0].sends, 2);
  EXPECT_EQ(util[0].recvs, 0);
  EXPECT_DOUBLE_EQ(util[0].cpu_busy.us(), 4.0);   // two o-blocks
  EXPECT_DOUBLE_EQ(util[0].span.us(), 15.0);      // sends at 0 and 13 (+o)
  EXPECT_NEAR(util[0].cpu_utilization, 4.0 / 15.0, 1e-12);
  EXPECT_EQ(util[1].recvs, 2);
}

TEST(Utilization, IdleProcessorAllZero) {
  pattern::CommPattern pat{3};
  pat.add(0, 1, Bytes{1});
  const auto trace = core::CommSimulator{kMeiko}.run(pat);
  const auto util = utilization(trace);
  EXPECT_EQ(util[2].sends + util[2].recvs, 0);
  EXPECT_DOUBLE_EQ(util[2].span.us(), 0.0);
  EXPECT_DOUBLE_EQ(util[2].cpu_utilization, 0.0);
}

TEST(Utilization, PortBusyExceedsCpuBusyForLongMessages) {
  pattern::CommPattern pat{2};
  pat.add(0, 1, Bytes{1001});
  const auto trace = core::CommSimulator{kMeiko}.run(pat);
  const auto util = utilization(trace);
  EXPECT_DOUBLE_EQ(util[0].cpu_busy.us(), 2.0);
  EXPECT_DOUBLE_EQ(util[0].port_busy.us(), 32.0);  // o + 1000G
}

TEST(ReceiveBindings, ArrivalBoundForIsolatedMessage) {
  const auto pat = pattern::single_message(2, Bytes{112});
  const auto trace = core::CommSimulator{kMeiko}.run(pat);
  const auto b = classify_receives(trace, pat);
  EXPECT_EQ(b.arrival_bound, 1);
  EXPECT_EQ(b.sequence_bound, 0);
}

TEST(ReceiveBindings, GapBoundForBackToBackReceives) {
  // Two 1-byte messages: the second receive waits on the gap (24 > its
  // arrival when sends are injected 13 apart and wires are short)...
  pattern::CommPattern pat{2};
  pat.add(0, 1, Bytes{1});
  pat.add(0, 1, Bytes{1});
  const auto trace = core::CommSimulator{kMeiko}.run(pat);
  const auto b = classify_receives(trace, pat);
  // recv1 at 11 (arrival), recv2 at 24 = arrival = gap tie -> arrival.
  EXPECT_EQ(b.arrival_bound + b.sequence_bound, 2);

  // ...whereas two messages from *different* sources arrive together at
  // t=11 and the second receive is purely gap-limited (11 + g = 24).
  pattern::CommPattern fan{3};
  fan.add(0, 2, Bytes{1});
  fan.add(1, 2, Bytes{1});
  const auto trace2 = core::CommSimulator{kMeiko}.run(fan);
  const auto b2 = classify_receives(trace2, fan);
  EXPECT_EQ(b2.arrival_bound, 1);
  EXPECT_EQ(b2.sequence_bound, 1);
}

TEST(ReceiveBindings, FullPatternAccountsEveryReceive) {
  const auto pat = pattern::paper_fig3();
  const auto trace = core::CommSimulator{kMeiko}.run(pat);
  const auto b = classify_receives(trace, pat);
  EXPECT_EQ(b.arrival_bound + b.sequence_bound + b.ready_bound, 12);
}

// --- program bounds ------------------------------------------------------

TEST(ProgramBounds, PureComputeWorkBound) {
  core::CostTable costs;
  const core::OpId op = costs.register_op("w");
  costs.set_cost(op, 1, Time{10.0});
  core::StepProgram prog{2};
  core::ComputeStep cs;
  cs.add({0, op, 1}, {1});
  cs.add({0, op, 1}, {2});
  cs.add({1, op, 1}, {3});
  prog.add_compute(cs);
  const auto bounds = analyze_program(prog, costs, kMeiko);
  EXPECT_DOUBLE_EQ(bounds.work_bound.us(), 20.0);
  // Independent blocks: the dependency chain is one op deep.
  EXPECT_DOUBLE_EQ(bounds.dependency_bound.us(), 10.0);
}

TEST(ProgramBounds, ChainedWritesFormDependencyChain) {
  core::CostTable costs;
  const core::OpId op = costs.register_op("w");
  costs.set_cost(op, 1, Time{10.0});
  core::StepProgram prog{4};
  // Four ops on four procs, each reading the previous op's target block:
  // the work bound is 10 but the chain is 40.
  for (ProcId p = 0; p < 4; ++p) {
    core::ComputeStep cs;
    cs.add({p, op, 1}, {p + 1, p});
    prog.add_compute(cs);
  }
  const auto bounds = analyze_program(prog, costs, kMeiko);
  EXPECT_DOUBLE_EQ(bounds.work_bound.us(), 10.0);
  EXPECT_DOUBLE_EQ(bounds.dependency_bound.us(), 40.0);
  EXPECT_DOUBLE_EQ(bounds.lower_bound().us(), 40.0);
}

TEST(ProgramBounds, LatencyEstimateChargesTransfers) {
  core::CostTable costs;
  const core::OpId op = costs.register_op("w");
  costs.set_cost(op, 1, Time{10.0});
  core::StepProgram prog{2};
  core::ComputeStep produce;
  produce.add({0, op, 1}, {7});
  prog.add_compute(produce);
  pattern::CommPattern pat{2};
  pat.add(0, 1, Bytes{1}, /*tag=*/7);
  prog.add_comm(pat);
  core::ComputeStep consume;
  consume.add({1, op, 1}, {8, 7});
  prog.add_compute(consume);

  const auto bounds = analyze_program(prog, costs, kMeiko);
  EXPECT_DOUBLE_EQ(bounds.dependency_bound.us(), 20.0);
  // 10 + p2p(1B)=13 + 10.
  EXPECT_DOUBLE_EQ(bounds.latency_estimate.us(), 33.0);
}

class BoundsPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(BoundsPropertyTest, BoundsNeverExceedSimulatedTotalOnGe) {
  const int block = GetParam();
  const layout::DiagonalMap map{8};
  const auto program =
      ge::build_ge_program(ge::GeConfig{.n = 240, .block = block}, map);
  const auto costs = ops::analytic_cost_table();
  const auto params = loggp::presets::meiko_cs2(8);
  const auto bounds = analyze_program(program, costs, params);
  const auto sim = core::Predictor{params}.predict_standard(program, costs);
  EXPECT_LE(bounds.work_bound.us(), sim.total.us() + 1e-6) << "block=" << block;
  EXPECT_LE(bounds.dependency_bound.us(), sim.total.us() + 1e-6);
  EXPECT_GT(bounds.lower_bound().us(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Blocks, BoundsPropertyTest,
                         ::testing::Values(10, 20, 30, 40, 60, 120));

TEST(ProgramBounds, HoldOnCannonPrograms) {
  const auto program = cannon::build_cannon_program(
      cannon::CannonConfig{.n = 96, .block = 12, .q = 4});
  const auto costs = ops::analytic_cost_table();
  const auto params = loggp::presets::meiko_cs2(16);
  const auto bounds = analyze_program(program, costs, params);
  const auto sim = core::Predictor{params}.predict_standard(program, costs);
  EXPECT_LE(bounds.lower_bound().us(), sim.total.us() + 1e-6);
}

// --- CSV export ----------------------------------------------------------

TEST(Export, TraceCsvRoundTrip) {
  const auto pat = pattern::single_message(2, Bytes{112});
  const auto trace = core::CommSimulator{kMeiko}.run(pat);
  const std::string path = testing::TempDir() + "/logsim_trace.csv";
  ASSERT_TRUE(write_trace_csv(path, trace));
  std::ifstream in{path};
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "proc,kind,start_us,cpu_end_us,port_end_us,peer,bytes,"
                  "msg_index");
  int rows = 0;
  while (std::getline(in, line)) ++rows;
  EXPECT_EQ(rows, 2);
  std::remove(path.c_str());
}

TEST(Export, ResultCsvHasOneRowPerProc) {
  core::CostTable costs;
  const core::OpId op = costs.register_op("w");
  costs.set_cost(op, 1, Time{5.0});
  core::StepProgram prog{3};
  core::ComputeStep cs;
  cs.add({1, op, 1});
  prog.add_compute(cs);
  const auto result =
      core::ProgramSimulator{loggp::presets::meiko_cs2(3)}.run(prog, costs);
  const std::string path = testing::TempDir() + "/logsim_result.csv";
  ASSERT_TRUE(write_result_csv(path, result));
  std::ifstream in{path};
  std::string line;
  int rows = -1;  // header
  while (std::getline(in, line)) ++rows;
  EXPECT_EQ(rows, 3);
  std::remove(path.c_str());
}

TEST(Export, UnwritablePathReturnsFalse) {
  const auto pat = pattern::single_message(2, Bytes{1});
  const auto trace = core::CommSimulator{kMeiko}.run(pat);
  EXPECT_FALSE(write_trace_csv("/nonexistent_dir_xyz/trace.csv", trace));
}

}  // namespace
}  // namespace logsim::analysis
