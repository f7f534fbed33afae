#include "ge/blocked_ge.hpp"

#include <gtest/gtest.h>

#include <map>
#include <variant>

#include "core/comm_sim.hpp"
#include "core/worst_case.hpp"
#include "layout/layout.hpp"
#include "ops/ge_ops.hpp"

namespace logsim::ge {
namespace {

GeConfig cfg(int n, int block) { return GeConfig{.n = n, .block = block}; }

TEST(GeConfig, Validity) {
  EXPECT_TRUE(cfg(960, 48).valid());
  EXPECT_FALSE(cfg(960, 7).valid());  // 7 does not divide 960
  EXPECT_FALSE(cfg(0, 4).valid());
  EXPECT_EQ(cfg(960, 48).grid(), 20);
  EXPECT_EQ(cfg(960, 48).block_bytes().count(), 48u * 48u * 8u);
}

TEST(GeProgram, OpCountsMatchClosedForms) {
  const layout::RowCyclic map{4};
  for (int nb : {2, 3, 5, 8}) {
    GeScheduleInfo info;
    const auto program = build_ge_program(cfg(nb * 8, 8), map, info);
    const auto n = static_cast<std::size_t>(nb);
    EXPECT_EQ(info.op_counts[ops::kOp1], n);
    EXPECT_EQ(info.op_counts[ops::kOp2], n * (n - 1) / 2);
    EXPECT_EQ(info.op_counts[ops::kOp3], n * (n - 1) / 2);
    EXPECT_EQ(info.op_counts[ops::kOp4], (n - 1) * n * (2 * n - 1) / 6);
    EXPECT_EQ(info.levels, 3 * n - 2);
    EXPECT_EQ(program.compute_step_count(), 3 * n - 2);
    EXPECT_EQ(program.comm_step_count(), 2 * (n - 1));
    EXPECT_EQ(program.work_item_count(),
              info.op_counts[0] + info.op_counts[1] + info.op_counts[2] +
                  info.op_counts[3]);
  }
}

TEST(GeProgram, EveryBlockFactoredOrUpdatedCorrectNumberOfTimes) {
  // Block (i,j) is written once per elimination step k < min(i,j), plus
  // its own panel/diagonal op.  Total writes = min(i,j) + 1.
  const layout::DiagonalMap map{4};
  const int nb = 6;
  const auto program = build_ge_program(cfg(nb * 8, 8), map);
  std::map<std::int64_t, int> writes;
  for (std::size_t s = 0; s < program.size(); ++s) {
    if (const auto* cs = std::get_if<core::ComputeStep>(&program.step(s))) {
      for (std::size_t i = 0; i < cs->items.size(); ++i) {
        ++writes[cs->touched(i)[0]];  // target block is touched[0]
      }
    }
  }
  for (int i = 0; i < nb; ++i) {
    for (int j = 0; j < nb; ++j) {
      EXPECT_EQ(writes[block_uid(i, j, nb)], std::min(i, j) + 1)
          << "block (" << i << "," << j << ")";
    }
  }
}

TEST(GeProgram, WorkItemsRunOnTheOwner) {
  const layout::RowCyclic map{4};
  const int nb = 5;
  const auto program = build_ge_program(cfg(nb * 8, 8), map);
  for (std::size_t s = 0; s < program.size(); ++s) {
    if (const auto* cs = std::get_if<core::ComputeStep>(&program.step(s))) {
      for (std::size_t n = 0; n < cs->items.size(); ++n) {
        const auto& item = cs->items[n];
        ASSERT_FALSE(cs->touched(n).empty());
        const auto uid = cs->touched(n)[0];
        const int i = static_cast<int>(uid / nb);
        const int j = static_cast<int>(uid % nb);
        EXPECT_EQ(item.proc, map.owner(i, j, nb));
      }
    }
  }
}

TEST(GeProgram, MessagesCarryWholeBlocks) {
  const layout::DiagonalMap map{8};
  const auto config = cfg(240, 24);
  const auto program = build_ge_program(config, map);
  for (std::size_t s = 0; s < program.size(); ++s) {
    if (const auto* c = std::get_if<core::CommStep>(&program.step(s))) {
      EXPECT_TRUE(c->pattern.valid());
      for (const auto& m : c->pattern.messages()) {
        EXPECT_EQ(m.bytes.count(), config.block_bytes().count());
      }
    }
  }
}

TEST(GeProgram, MulticastDeduplicatesDestinations) {
  // No (source, destination, block) triple may repeat inside one step.
  const layout::RowCyclic map{4};
  const int nb = 6;
  const auto program = build_ge_program(cfg(nb * 8, 8), map);
  for (std::size_t s = 0; s < program.size(); ++s) {
    if (const auto* c = std::get_if<core::CommStep>(&program.step(s))) {
      std::map<std::tuple<ProcId, ProcId, std::int64_t>, int> seen;
      for (const auto& m : c->pattern.messages()) {
        const auto key = std::make_tuple(m.src, m.dst, m.tag);
        EXPECT_EQ(++seen[key], 1);
      }
    }
  }
}

TEST(GeProgram, RowCyclicKeepsRowPanelTrafficLocal) {
  // Under row-cyclic the row-panel consumers of the factored diagonal
  // block live on the same processor: the diagonal-block multicast must
  // contain a self-edge, and Op3 results flowing right stay local.
  const layout::RowCyclic map{4};
  GeScheduleInfo info;
  [[maybe_unused]] const auto program = build_ge_program(cfg(8 * 8, 8), map, info);
  EXPECT_GT(info.self_messages, 0u);
}

TEST(GeProgram, DiagonalLayoutHasFewerSelfMessages) {
  GeScheduleInfo row_info, diag_info;
  const layout::RowCyclic row{8};
  const layout::DiagonalMap diag{8};
  [[maybe_unused]] const auto p1 = build_ge_program(cfg(480, 24), row, row_info);
  [[maybe_unused]] const auto p2 = build_ge_program(cfg(480, 24), diag, diag_info);
  EXPECT_LT(diag_info.self_messages, row_info.self_messages);
}

TEST(GeProgram, SmallerBlocksMoreMessages) {
  const layout::DiagonalMap map{8};
  GeScheduleInfo small_info, large_info;
  [[maybe_unused]] const auto p1 = build_ge_program(cfg(480, 12), map, small_info);
  [[maybe_unused]] const auto p2 = build_ge_program(cfg(480, 48), map, large_info);
  EXPECT_GT(small_info.network_messages, large_info.network_messages);
}

TEST(GeProgram, SingleBlockDegenerates) {
  const layout::RowCyclic map{2};
  GeScheduleInfo info;
  const auto program = build_ge_program(cfg(16, 16), map, info);
  EXPECT_EQ(program.size(), 1u);  // one Op1, nothing else
  EXPECT_EQ(info.op_counts[ops::kOp1], 1u);
  EXPECT_EQ(info.network_messages, 0u);
}

TEST(GeProgram, CommStepsSimulateValidly) {
  // Every generated pattern must pass the LogGP validator under both
  // communication algorithms (including the worst-case deadlock handling:
  // GE panel exchanges can be cyclic between processor pairs).
  const layout::DiagonalMap map{8};
  const auto program = build_ge_program(cfg(160, 20), map);
  const auto params = loggp::presets::meiko_cs2(8);
  for (std::size_t s = 0; s < program.size(); ++s) {
    if (const auto* c = std::get_if<core::CommStep>(&program.step(s))) {
      if (c->pattern.size() == c->pattern.self_message_count()) continue;
      const auto std_trace = core::CommSimulator{params}.run(c->pattern);
      auto verdict = core::validate_trace(std_trace, c->pattern);
      EXPECT_EQ(verdict, std::nullopt) << *verdict;
      const auto wc_trace = core::WorstCaseSimulator{params}.run(c->pattern);
      verdict = core::validate_trace(wc_trace, c->pattern);
      EXPECT_EQ(verdict, std::nullopt) << *verdict;
    }
  }
}

}  // namespace
}  // namespace logsim::ge
