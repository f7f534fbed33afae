#include "core/program_sim.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/predictor.hpp"
#include "pattern/builders.hpp"

namespace logsim::core {
namespace {

const loggp::Params kMeiko = loggp::presets::meiko_cs2(2);

CostTable simple_costs() {
  CostTable t;
  const OpId op = t.register_op("work");
  t.set_cost(op, 1, Time{10.0});
  t.set_cost(op, 2, Time{25.0});
  return t;
}

TEST(StepProgram, Counters) {
  StepProgram prog{2};
  ComputeStep cs;
  cs.add({0, 0, 1});
  cs.add({1, 0, 2});
  prog.add_compute(cs);
  pattern::CommPattern pat{2};
  pat.add(0, 1, Bytes{100});
  pat.add(1, 1, Bytes{50});  // self
  prog.add_comm(pat);
  EXPECT_EQ(prog.size(), 2u);
  EXPECT_EQ(prog.compute_step_count(), 1u);
  EXPECT_EQ(prog.comm_step_count(), 1u);
  EXPECT_EQ(prog.work_item_count(), 2u);
  EXPECT_EQ(prog.message_count(), 2u);
  EXPECT_EQ(prog.network_bytes().count(), 100u);
}

TEST(ProgramSim, PureComputeAccumulates) {
  StepProgram prog{2};
  ComputeStep cs;
  cs.add({0, 0, 1});  // 10us
  cs.add({0, 0, 2});  // 25us
  cs.add({1, 0, 1});  // 10us
  prog.add_compute(cs);
  const auto result = ProgramSimulator{kMeiko}.run(prog, simple_costs());
  EXPECT_DOUBLE_EQ(result.proc_end[0].us(), 35.0);
  EXPECT_DOUBLE_EQ(result.proc_end[1].us(), 10.0);
  EXPECT_DOUBLE_EQ(result.total.us(), 35.0);
  EXPECT_DOUBLE_EQ(result.comp_max().us(), 35.0);
  EXPECT_DOUBLE_EQ(result.comm_max().us(), 0.0);
}

TEST(ProgramSim, CommFollowsComputeWithPerProcClocks) {
  // P0 computes 10us then sends a 1-byte message; P1 computes nothing.
  StepProgram prog{2};
  ComputeStep cs;
  cs.add({0, 0, 1});
  prog.add_compute(cs);
  prog.add_comm(pattern::single_message(2, Bytes{1}));
  const auto result = ProgramSimulator{kMeiko}.run(prog, simple_costs());
  // send at 10, arrival 10+2+9=21, recv end 23.
  EXPECT_DOUBLE_EQ(result.proc_end[0].us(), 12.0);
  EXPECT_DOUBLE_EQ(result.proc_end[1].us(), 23.0);
  EXPECT_DOUBLE_EQ(result.total.us(), 23.0);
  EXPECT_DOUBLE_EQ(result.comp[0].us(), 10.0);
  EXPECT_DOUBLE_EQ(result.comm[0].us(), 2.0);
  EXPECT_DOUBLE_EQ(result.comm[1].us(), 23.0);
  EXPECT_EQ(result.comm_ops, 2u);
}

TEST(ProgramSim, StepsPipelineWithoutGlobalBarrier) {
  // Two alternating (compute, comm) rounds; P1 only receives.  P0's second
  // compute starts right after its own comm ops, not after P1's receives.
  StepProgram prog{2};
  for (int round = 0; round < 2; ++round) {
    ComputeStep cs;
    cs.add({0, 0, 1});  // 10us on P0
    prog.add_compute(cs);
    prog.add_comm(pattern::single_message(2, Bytes{1}));
  }
  const auto result = ProgramSimulator{kMeiko}.run(prog, simple_costs());
  // P0: compute [0,10), send [10,12), compute [12,22), send [22,24).
  // Gap state does NOT persist across step boundaries: the paper's
  // Figure-2 algorithm re-initializes ctime per communication step, so the
  // round-2 send may start at 22 even though 22 - 10 < g.
  EXPECT_DOUBLE_EQ(result.proc_end[0].us(), 24.0);
  // P1: recv1 [21,23); round-2 arrival 22+11=33 -> recv2 [33, 35).
  EXPECT_DOUBLE_EQ(result.proc_end[1].us(), 35.0);
}

TEST(ProgramSim, SelfOnlyCommStepIsFree) {
  StepProgram prog{2};
  pattern::CommPattern pat{2};
  pat.add(0, 0, Bytes{1000});
  prog.add_comm(pat);
  const auto result = ProgramSimulator{kMeiko}.run(prog, simple_costs());
  EXPECT_DOUBLE_EQ(result.total.us(), 0.0);
  EXPECT_EQ(result.comm_ops, 0u);
}

TEST(ProgramSim, ComputeOverheadHookApplied) {
  StepProgram prog{1};
  ComputeStep cs;
  cs.add({0, 0, 1}, {42});
  prog.add_compute(cs);
  ProgramSimOptions opts;
  int calls = 0;
  opts.compute_overhead = [&calls](const WorkItem& item,
                                   std::span<const std::int64_t> touched) {
    ++calls;
    EXPECT_EQ(item.proc, 0);
    EXPECT_EQ(std::vector<std::int64_t>(touched.begin(), touched.end()),
              std::vector<std::int64_t>{42});
    return Time{7.0};
  };
  const auto result =
      ProgramSimulator{loggp::presets::meiko_cs2(1), opts}.run(prog,
                                                               simple_costs());
  EXPECT_EQ(calls, 1);
  EXPECT_DOUBLE_EQ(result.total.us(), 17.0);
}

TEST(ProgramSim, WorstCaseFlagSlowsChains) {
  // Chain 0 -> 1 -> 2 in one comm step: the worst-case rule forces P1 to
  // wait for its receive before sending.
  StepProgram prog{3};
  pattern::CommPattern pat{3};
  pat.add(0, 1, Bytes{1});
  pat.add(1, 2, Bytes{1});
  prog.add_comm(pat);
  const CostTable costs = simple_costs();
  const auto params = loggp::presets::meiko_cs2(3);
  ProgramSimOptions std_opts;
  ProgramSimOptions wc_opts;
  wc_opts.worst_case = true;
  const auto std_r = ProgramSimulator{params, std_opts}.run(prog, costs);
  const auto wc_r = ProgramSimulator{params, wc_opts}.run(prog, costs);
  EXPECT_GT(wc_r.total.us(), std_r.total.us());
}

TEST(Predictor, ReturnsBothSchedules) {
  StepProgram prog{3};
  pattern::CommPattern pat{3};
  pat.add(0, 1, Bytes{1});
  pat.add(1, 2, Bytes{1});
  prog.add_comm(pat);
  const auto params = loggp::presets::meiko_cs2(3);
  const Prediction pred = Predictor{params}.predict_or_die(prog, simple_costs());
  EXPECT_GT(pred.total_worst().us(), pred.total().us());
  EXPECT_DOUBLE_EQ(pred.comp().us(), 0.0);
  EXPECT_GT(pred.comm().us(), 0.0);
  EXPECT_GE(pred.comm_worst().us(), pred.comm().us());
}

TEST(ProgramSim, DecompositionIsConsistent) {
  // comp + comm of the processor that ends last equals its end clock.
  StepProgram prog{2};
  ComputeStep cs;
  cs.add({0, 0, 2});
  cs.add({1, 0, 1});
  prog.add_compute(cs);
  prog.add_comm(pattern::ring(2, Bytes{64}));
  const auto r = ProgramSimulator{kMeiko}.run(prog, simple_costs());
  for (std::size_t p = 0; p < 2; ++p) {
    EXPECT_NEAR(r.proc_end[p].us(), (r.comp[p] + r.comm[p]).us(), 1e-9);
  }
}

TEST(ProgramSim, CompileRefusesEndsThatDoNotCoverTheIds) {
  // add() keeps a compute step's touched-id ends canonical; a step built
  // by hand around it is an invalid-input Status naming the step, never a
  // read past the id array.
  ComputeStep good;
  good.add({0, 0, 1}, {7, 8});
  good.add({1, 0, 2}, {9});
  const auto compiled = [](const ComputeStep& step) {
    StepProgram prog{2};
    prog.add_comm(pattern::CommPattern{2});
    prog.add_compute(step);
    return compile(prog, simple_costs(), kMeiko).status();
  };
  EXPECT_TRUE(compiled(good).ok());
  EXPECT_TRUE(compiled(ComputeStep{}).ok());

  ComputeStep overrun = good;
  overrun.ends.back() = 4;  // past the 3 ids
  ComputeStep under = good;
  under.ids.push_back(10);  // an id no item owns
  ComputeStep decreasing = good;
  decreasing.ends = {3, 2};
  ComputeStep missing_end = good;
  missing_end.items.push_back({0, 0, 1});
  ComputeStep ids_only;
  ids_only.ids = {1};
  for (const ComputeStep* bad :
       {&overrun, &under, &decreasing, &missing_end, &ids_only}) {
    const Status st = compiled(*bad);
    EXPECT_EQ(st.code(), ErrorCode::kInvalidInput) << st.to_string();
    EXPECT_NE(st.message().find("do not cover the id array in step 1"),
              std::string::npos)
        << st.message();
  }
}

}  // namespace
}  // namespace logsim::core
