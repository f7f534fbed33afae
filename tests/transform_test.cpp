#include "transform/transform.hpp"

#include <gtest/gtest.h>

#include <map>
#include <variant>

#include "core/predictor.hpp"
#include "ge/blocked_ge.hpp"
#include "layout/layout.hpp"
#include "ops/analytic_model.hpp"
#include "pattern/builders.hpp"

namespace logsim::transform {
namespace {

/// Total bytes flowing (src -> dst) across the whole program; any valid
/// transformation must preserve this map.
std::map<std::pair<ProcId, ProcId>, std::uint64_t> flow(
    const core::StepProgram& p) {
  std::map<std::pair<ProcId, ProcId>, std::uint64_t> out;
  for (std::size_t s = 0; s < p.size(); ++s) {
    if (const auto* c = std::get_if<core::CommStep>(&p.step(s))) {
      for (const auto& m : c->pattern.messages()) {
        out[{m.src, m.dst}] += m.bytes.count();
      }
    }
  }
  return out;
}

TEST(Coalesce, MergesSameEndpointMessages) {
  core::StepProgram prog{3};
  pattern::CommPattern pat{3};
  pat.add(0, 1, Bytes{100}, 5);
  pat.add(0, 2, Bytes{50});
  pat.add(0, 1, Bytes{200}, 9);
  prog.add_comm(pat);

  TransformStats stats;
  const auto merged = coalesce_messages(prog, stats);
  EXPECT_EQ(stats.messages_before, 3u);
  EXPECT_EQ(stats.messages_after, 2u);
  const auto* c = std::get_if<core::CommStep>(&merged.step(0));
  ASSERT_NE(c, nullptr);
  ASSERT_EQ(c->pattern.size(), 2u);
  EXPECT_EQ(c->pattern.messages()[0].bytes.count(), 300u);
  EXPECT_EQ(c->pattern.messages()[0].tag, 5);  // first message's tag
  EXPECT_EQ(flow(merged), flow(prog));
}

TEST(Coalesce, NeverMergesAcrossSteps) {
  core::StepProgram prog{2};
  pattern::CommPattern a{2}, b{2};
  a.add(0, 1, Bytes{100});
  b.add(0, 1, Bytes{100});
  prog.add_comm(a);
  prog.add_comm(b);
  TransformStats stats;
  const auto merged = coalesce_messages(prog, stats);
  EXPECT_EQ(stats.messages_after, 2u);
  EXPECT_EQ(merged.size(), 2u);
}

TEST(Coalesce, PreservesComputeSteps) {
  core::StepProgram prog{2};
  core::ComputeStep cs;
  cs.add({0, 0, 8}, {1});
  prog.add_compute(cs);
  const auto merged = coalesce_messages(prog);
  EXPECT_EQ(merged.work_item_count(), 1u);
}

TEST(Coalesce, SpeedsUpOverheadDominatedPrograms) {
  // Many small messages between the same pair: packing pays g once
  // instead of per message.
  core::StepProgram prog{2};
  pattern::CommPattern pat{2};
  for (int i = 0; i < 20; ++i) pat.add(0, 1, Bytes{64});
  prog.add_comm(pat);
  const core::CostTable costs;
  const core::Predictor pred{loggp::presets::meiko_cs2(2)};
  const double before = pred.predict_standard(prog, costs).total.us();
  const double after =
      pred.predict_standard(coalesce_messages(prog), costs).total.us();
  EXPECT_LT(after, before * 0.5);
}

TEST(Coalesce, GeFlowPreservedAndFaster) {
  const layout::RowCyclic map{8};
  const auto program =
      ge::build_ge_program(ge::GeConfig{.n = 480, .block = 24}, map);
  TransformStats stats;
  const auto merged = coalesce_messages(program, stats);
  EXPECT_LT(stats.messages_after, stats.messages_before);
  EXPECT_EQ(flow(merged), flow(program));
  const auto costs = ops::analytic_cost_table();
  const core::Predictor pred{loggp::presets::meiko_cs2(8)};
  EXPECT_LE(pred.predict_standard(merged, costs).total.us(),
            pred.predict_standard(program, costs).total.us() * 1.001);
}

TEST(Fuse, MergesAdjacentCommSteps) {
  core::StepProgram prog{2};
  pattern::CommPattern a{2}, b{2};
  a.add(0, 1, Bytes{100});
  b.add(1, 0, Bytes{100});
  prog.add_comm(a);
  prog.add_comm(b);
  core::ComputeStep cs;
  cs.add({0, 0, 8});
  prog.add_compute(cs);
  pattern::CommPattern c{2};
  c.add(0, 1, Bytes{7});
  prog.add_comm(c);

  TransformStats stats;
  const auto fused = fuse_comm_steps(prog, stats);
  EXPECT_EQ(stats.steps_before, 4u);
  EXPECT_EQ(stats.steps_after, 3u);  // [a+b][compute][c]
  EXPECT_EQ(fused.comm_step_count(), 2u);
  EXPECT_EQ(flow(fused), flow(prog));
}

TEST(Fuse, NoOpWhenAlreadyAlternating) {
  const layout::DiagonalMap map{4};
  const auto program =
      ge::build_ge_program(ge::GeConfig{.n = 96, .block = 16}, map);
  TransformStats stats;
  const auto fused = fuse_comm_steps(program, stats);
  EXPECT_EQ(fused.size(), program.size());
  EXPECT_EQ(stats.messages_before, stats.messages_after);
}

// --- new builders / presets ------------------------------------------------

TEST(NewBuilders, HypercubeRoundPairsUp) {
  const auto p = pattern::hypercube_round(8, 1, Bytes{64});
  EXPECT_EQ(p.size(), 8u);  // every proc sends to its XOR-partner
  for (const auto& m : p.messages()) {
    EXPECT_EQ(m.dst, m.src ^ 2);
  }
  // Non-power-of-two: partners beyond the machine are skipped.
  const auto q = pattern::hypercube_round(6, 2, Bytes{64});
  EXPECT_EQ(q.size(), 4u);  // 0<->4, 1<->5 only
}

TEST(NewBuilders, TransposeSkipsDiagonal) {
  const auto p = pattern::transpose(3, Bytes{128});
  EXPECT_EQ(p.procs(), 9);
  EXPECT_EQ(p.size(), 6u);
  for (const auto& m : p.messages()) {
    const int r = m.src / 3, c = m.src % 3;
    EXPECT_EQ(m.dst, c * 3 + r);
  }
}

TEST(NewPresets, LiteratureMachinesValid) {
  EXPECT_TRUE(loggp::presets::intel_paragon(16).valid());
  EXPECT_TRUE(loggp::presets::ibm_sp2(16).valid());
  // The Paragon's network is faster than the SP-2's in every parameter.
  const auto paragon = loggp::presets::intel_paragon();
  const auto sp2 = loggp::presets::ibm_sp2();
  EXPECT_LT(paragon.L.us(), sp2.L.us());
  EXPECT_LT(paragon.G, sp2.G);
}

}  // namespace
}  // namespace logsim::transform
