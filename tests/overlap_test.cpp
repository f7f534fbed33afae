#include "extensions/overlap_sim.hpp"

#include <gtest/gtest.h>

#include "core/program_sim.hpp"
#include "ge/blocked_ge.hpp"
#include "layout/layout.hpp"
#include "ops/analytic_model.hpp"
#include "pattern/builders.hpp"

namespace logsim::ext {
namespace {

const loggp::Params kMeiko2 = loggp::presets::meiko_cs2(2);

core::CostTable simple_costs() {
  core::CostTable t;
  const core::OpId op = t.register_op("work");
  t.set_cost(op, 1, Time{10.0});
  return t;
}

TEST(OverlapSim, PureCommProgramMatchesStandard) {
  core::StepProgram prog{2};
  prog.add_comm(pattern::single_message(2, Bytes{112}));
  const auto costs = simple_costs();
  const auto standard = core::ProgramSimulator{kMeiko2}.run(prog, costs);
  const auto overlapped = OverlapProgramSimulator{kMeiko2}.run(prog, costs);
  EXPECT_DOUBLE_EQ(overlapped.total.us(), standard.total.us());
}

TEST(OverlapSim, ProducerFirstSendsOverlapRemainingWork) {
  // P0 computes two items; the first one (block 7) is what it sends.
  // Overlapping injects the send after 10us instead of after 20us.
  core::StepProgram prog{2};
  core::ComputeStep cs;
  cs.add({0, 0, 1}, {7});
  cs.add({0, 0, 1}, {8});
  prog.add_compute(cs);
  pattern::CommPattern pat{2};
  pat.add(0, 1, Bytes{1}, /*tag=*/7);
  prog.add_comm(pat);
  const auto costs = simple_costs();

  const auto standard = core::ProgramSimulator{kMeiko2}.run(prog, costs);
  const auto overlapped = OverlapProgramSimulator{kMeiko2}.run(prog, costs);
  // Standard: send at 20, recv ends 20+11+2 = 33.
  EXPECT_DOUBLE_EQ(standard.total.us(), 33.0);
  // Overlap: send at 10 (block 7 ready), recv ends 23; P0 still computes
  // to 20 and its send adds no exposed time beyond that.
  EXPECT_DOUBLE_EQ(overlapped.total.us(), 23.0);
}

TEST(OverlapSim, UnknownProducerFallsBackToFullStep) {
  core::StepProgram prog{2};
  core::ComputeStep cs;
  cs.add({0, 0, 1}, {7});
  cs.add({0, 0, 1}, {8});
  prog.add_compute(cs);
  pattern::CommPattern pat{2};
  pat.add(0, 1, Bytes{1}, /*tag=*/999);  // nothing produced block 999 here
  prog.add_comm(pat);
  const auto costs = simple_costs();
  const auto standard = core::ProgramSimulator{kMeiko2}.run(prog, costs);
  const auto overlapped = OverlapProgramSimulator{kMeiko2}.run(prog, costs);
  EXPECT_DOUBLE_EQ(overlapped.total.us(), standard.total.us());
}

TEST(OverlapSim, PureReceiverDrainsDuringCompute) {
  // P1 computes 10us while P0's message (sent at 0) arrives at 11; with
  // overlap P1's receive does not wait for its compute step: it starts at
  // max(arrival, entry)=11 and the step costs nothing extra beyond it.
  core::StepProgram prog{2};
  core::ComputeStep cs;
  cs.add({1, 0, 1}, {5});
  prog.add_compute(cs);
  prog.add_comm(pattern::single_message(2, Bytes{1}));
  const auto costs = simple_costs();
  const auto overlapped = OverlapProgramSimulator{kMeiko2}.run(prog, costs);
  EXPECT_DOUBLE_EQ(overlapped.proc_end[1].us(), 13.0);
}

class OverlapGeTest : public ::testing::TestWithParam<int> {};

TEST_P(OverlapGeTest, OverlapNeverSlowerOnGePrograms) {
  const int block = GetParam();
  const layout::DiagonalMap map{8};
  const auto program =
      ge::build_ge_program(ge::GeConfig{.n = 240, .block = block}, map);
  const auto costs = ops::analytic_cost_table();
  const auto params = loggp::presets::meiko_cs2(8);
  const auto standard = core::ProgramSimulator{params}.run(program, costs);
  const auto overlapped = OverlapProgramSimulator{params}.run(program, costs);
  EXPECT_LE(overlapped.total.us(), standard.total.us() + 1e-6)
      << "block=" << block;
  // Computation itself is identical; only exposure of comm changes.
  EXPECT_NEAR(overlapped.comp_max().us(), standard.comp_max().us(), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Blocks, OverlapGeTest,
                         ::testing::Values(10, 20, 40, 60, 120));

TEST(OverlapSim, WorstCaseFlagSupported) {
  core::StepProgram prog{3};
  pattern::CommPattern pat{3};
  pat.add(0, 1, Bytes{1});
  pat.add(1, 2, Bytes{1});
  prog.add_comm(pat);
  core::ProgramSimOptions wc;
  wc.worst_case = true;
  const auto params = loggp::presets::meiko_cs2(3);
  const auto std_r = OverlapProgramSimulator{params}.run(prog, simple_costs());
  const auto wc_r =
      OverlapProgramSimulator{params, wc}.run(prog, simple_costs());
  EXPECT_GT(wc_r.total.us(), std_r.total.us());
}

}  // namespace
}  // namespace logsim::ext
