#include "cannon/cannon.hpp"

#include <gtest/gtest.h>

#include <set>
#include <variant>

#include "cannon/cannon_reference.hpp"
#include "core/comm_sim.hpp"
#include "core/predictor.hpp"
#include "core/worst_case.hpp"
#include "ops/analytic_model.hpp"

namespace logsim::cannon {
namespace {

TEST(CannonConfig, Validity) {
  EXPECT_TRUE((CannonConfig{.n = 480, .block = 24, .q = 4}.valid()));
  EXPECT_FALSE((CannonConfig{.n = 480, .block = 23, .q = 4}.valid()));
  EXPECT_FALSE((CannonConfig{.n = 480, .block = 24, .q = 3}.valid()));  // 20%3
  const CannonConfig cfg{.n = 480, .block = 24, .q = 4};
  EXPECT_EQ(cfg.grid(), 20);
  EXPECT_EQ(cfg.tile(), 5);
  EXPECT_EQ(cfg.procs(), 16);
  EXPECT_EQ(cfg.superblock_bytes().count(), 5u * 5u * 24u * 24u * 8u);
}

TEST(CannonProgram, ScheduleCounters) {
  const CannonConfig cfg{.n = 96, .block = 8, .q = 3};  // nb=12, s=4
  CannonScheduleInfo info;
  const auto program = build_cannon_program(cfg, info);
  EXPECT_EQ(info.rounds, 3u);
  EXPECT_EQ(info.skew_steps, 2u);  // q-1 nearest-neighbour hops
  // s^3 multiplies per proc per round.
  EXPECT_EQ(info.multiply_items, 4u * 4u * 4u * 9u * 3u);
  EXPECT_EQ(program.compute_step_count(), 3u);
  // skew steps + (q-1) rotation steps.
  EXPECT_EQ(program.comm_step_count(), 2u + 2u);
  EXPECT_GT(info.network_messages, 0u);
}

TEST(CannonProgram, TrivialTorusHasNoCommunication) {
  const CannonConfig cfg{.n = 32, .block = 8, .q = 1};
  CannonScheduleInfo info;
  const auto program = build_cannon_program(cfg, info);
  EXPECT_EQ(info.network_messages, 0u);
  EXPECT_EQ(program.comm_step_count(), 0u);
  EXPECT_EQ(program.compute_step_count(), 1u);
}

TEST(CannonProgram, EveryOutputBlockMultipliedGridTimes) {
  // Each C basic block accumulates nb partial products in total.
  const CannonConfig cfg{.n = 64, .block = 8, .q = 2};  // nb=8, s=4
  const auto program = build_cannon_program(cfg);
  const int nb = cfg.grid();
  std::map<std::int64_t, int> updates;
  for (std::size_t s = 0; s < program.size(); ++s) {
    if (const auto* cs = std::get_if<core::ComputeStep>(&program.step(s))) {
      for (std::size_t i = 0; i < cs->items.size(); ++i) {
        ++updates[cs->touched(i)[0]];
      }
    }
  }
  EXPECT_EQ(updates.size(), static_cast<std::size_t>(nb) * nb);
  for (const auto& [uid, count] : updates) {
    EXPECT_EQ(count, nb) << "C block uid " << uid;
  }
}

TEST(CannonProgram, RotationsAreNearestNeighbourOnTheTorus) {
  const CannonConfig cfg{.n = 96, .block = 8, .q = 4};
  const auto program = build_cannon_program(cfg);
  const int q = cfg.q;
  for (std::size_t s = 0; s < program.size(); ++s) {
    if (const auto* c = std::get_if<core::CommStep>(&program.step(s))) {
      for (const auto& m : c->pattern.messages()) {
        const int sr = m.src / q, sc = m.src % q;
        const int dr = m.dst / q, dc = m.dst % q;
        const bool left = dr == sr && dc == (sc - 1 + q) % q;
        const bool up = dc == sc && dr == (sr - 1 + q) % q;
        EXPECT_TRUE(left || up)
            << "message " << m.src << "->" << m.dst << " is not a hop";
      }
    }
  }
}

TEST(CannonProgram, CommStepsValidUnderBothSimulators) {
  const CannonConfig cfg{.n = 96, .block = 8, .q = 4};
  const auto program = build_cannon_program(cfg);
  const auto params = loggp::presets::meiko_cs2(cfg.procs());
  for (std::size_t s = 0; s < program.size(); ++s) {
    if (const auto* c = std::get_if<core::CommStep>(&program.step(s))) {
      auto verdict = core::validate_trace(
          core::CommSimulator{params}.run(c->pattern), c->pattern);
      EXPECT_EQ(verdict, std::nullopt) << *verdict;
      // Rotations form rings: the worst-case simulator must break the
      // deadlock and still produce a valid trace.
      verdict = core::validate_trace(
          core::WorstCaseSimulator{params}.run(c->pattern), c->pattern);
      EXPECT_EQ(verdict, std::nullopt) << *verdict;
    }
  }
}

TEST(CannonProgram, PredictionScalesWithMatrixSize) {
  const auto costs = ops::analytic_cost_table();
  const core::Predictor pred{loggp::presets::meiko_cs2(16)};
  const auto small = pred.predict_standard(
      build_cannon_program(CannonConfig{.n = 96, .block = 12, .q = 4}), costs);
  const auto large = pred.predict_standard(
      build_cannon_program(CannonConfig{.n = 192, .block = 12, .q = 4}), costs);
  // 8x the multiply work on the same machine: clearly slower.
  EXPECT_GT(large.total.us(), 4.0 * small.total.us());
}

TEST(CannonProgram, WorstCaseDominates) {
  const auto costs = ops::analytic_cost_table();
  const auto program =
      build_cannon_program(CannonConfig{.n = 96, .block = 12, .q = 4});
  const core::Predictor pred{loggp::presets::meiko_cs2(16)};
  const auto p = pred.predict_or_die(program, costs);
  EXPECT_GE(p.total_worst().us() + 1e-9, p.total().us());
}

// --- numeric reference ---------------------------------------------------

class CannonNumericTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, int>> {};

TEST_P(CannonNumericTest, MatchesDirectMultiplication) {
  const auto [n, q] = GetParam();
  EXPECT_LT(cannon_residual(n * 31 + static_cast<std::uint64_t>(q), n, q),
            1e-9)
      << "n=" << n << " q=" << q;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CannonNumericTest,
    ::testing::Values(std::tuple{4ul, 1}, std::tuple{4ul, 2},
                      std::tuple{6ul, 2}, std::tuple{6ul, 3},
                      std::tuple{12ul, 3}, std::tuple{12ul, 4},
                      std::tuple{20ul, 5}, std::tuple{24ul, 4},
                      std::tuple{32ul, 8}));

}  // namespace
}  // namespace logsim::cannon
