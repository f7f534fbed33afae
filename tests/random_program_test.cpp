// Whole-system cross-validation on randomly generated step programs:
// the ProgramSimulator and the Testbed machine are two independent
// implementations of program execution; with every Testbed-only effect
// switched off they must agree exactly, and invariants (worst case
// dominates, overlap never slower, bounds hold) must survive arbitrary
// program shapes -- not just the hand-built applications.  The memoized
// compute walk is checked bit for bit against the per-item lookup walk
// it replaced.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <span>
#include <tuple>
#include <utility>
#include <variant>
#include <vector>

#include "analysis/critical_path.hpp"
#include "core/comm_sink.hpp"
#include "core/parallel_comm.hpp"
#include "core/predictor.hpp"
#include "core/sim_scratch.hpp"
#include "core/worst_case.hpp"
#include "extensions/overlap_sim.hpp"
#include "machine/testbed.hpp"
#include "obs/sim_trace.hpp"
#include "pattern/builders.hpp"
#include "util/rng.hpp"

namespace logsim {
namespace {

struct RandomProgram {
  core::StepProgram program;
  core::CostTable costs;
  int procs;
};

/// Generator options.  The defaults draw exactly what the generator always
/// drew, so adding one leaves every existing test's inputs unchanged.
struct GenOptions {
  /// Block sizes between and outside the calibration points {4, 16, 64},
  /// and compute steps whose items alternate between two (op, block)
  /// pairs, so a per-(op, block) cost memo misses as often as it hits.
  bool memo_stress = false;
};

/// Generates an arbitrary alternating program: random op mix, random
/// block sizes, random patterns (possibly with self-messages), random
/// touched-block lists.
RandomProgram make_random_program(std::uint64_t seed, GenOptions opt = {}) {
  util::Rng rng{seed};
  const int procs = static_cast<int>(2 + rng.below(7));
  RandomProgram out{core::StepProgram{procs}, core::CostTable{}, procs};

  const int op_count = static_cast<int>(1 + rng.below(4));
  for (int op = 0; op < op_count; ++op) {
    out.costs.register_op("op" + std::to_string(op));
    for (int b : {4, 16, 64}) {
      out.costs.set_cost(op, b, Time{rng.uniform(5.0, 500.0)});
    }
  }

  const int steps = static_cast<int>(2 + rng.below(10));
  for (int s = 0; s < steps; ++s) {
    if (rng.chance(0.55)) {
      core::ComputeStep cs;
      const auto items = 1 + rng.below(12);
      std::array<std::pair<core::OpId, int>, 2> turns{};
      if (opt.memo_stress) {
        constexpr std::array kBlocks{1, 3, 4, 10, 16, 40, 64, 100, 1000};
        for (auto& [op, block] : turns) {
          op = static_cast<core::OpId>(
              rng.below(static_cast<std::uint64_t>(op_count)));
          block = kBlocks[rng.below(kBlocks.size())];
        }
      }
      std::vector<std::int64_t> ids;
      for (std::uint64_t i = 0; i < items; ++i) {
        core::WorkItem item;
        item.proc = static_cast<ProcId>(rng.below(static_cast<std::uint64_t>(procs)));
        item.op = static_cast<core::OpId>(rng.below(static_cast<std::uint64_t>(op_count)));
        item.block_size = std::array{4, 16, 64}[rng.below(3)];
        if (opt.memo_stress) std::tie(item.op, item.block_size) = turns[i % 2];
        const auto touched = rng.below(4);
        ids.clear();
        for (std::uint64_t t = 0; t < touched; ++t) {
          ids.push_back(static_cast<std::int64_t>(rng.below(40)));
        }
        cs.add(item, ids);
      }
      out.program.add_compute(std::move(cs));
    } else {
      pattern::CommPattern pat{procs};
      const auto msgs = 1 + rng.below(15);
      for (std::uint64_t m = 0; m < msgs; ++m) {
        const auto src = static_cast<ProcId>(rng.below(static_cast<std::uint64_t>(procs)));
        const auto dst = static_cast<ProcId>(rng.below(static_cast<std::uint64_t>(procs)));
        pat.add(src, dst, Bytes{1 + rng.below(4096)},
                static_cast<std::int64_t>(rng.below(40)));
      }
      out.program.add_comm(std::move(pat));
    }
  }
  return out;
}

/// The program walk as it was before the per-run cost memo, kept verbatim
/// as the oracle for it: every work item looks its cost up in the table.
/// Only the step-cache, cancel and deadline branches are left out; the
/// oracle runs without them.
core::ProgramResult reference_walk(const core::StepProgram& program,
                                   const core::CostTable& costs,
                                   const loggp::Params& params,
                                   const core::ProgramSimOptions& opts) {
  const auto n = static_cast<std::size_t>(program.procs());
  core::ProgramResult result;
  result.proc_end.assign(n, Time::zero());
  result.comp.assign(n, Time::zero());
  result.comm.assign(n, Time::zero());
  std::vector<Time>& clock = result.proc_end;
  core::FinishOnlySink sink;
  core::ParallelCommSimulator comm_sim{params,
                                       core::ParallelCommOptions{opts.net}};
  core::CommSimScratch worst_scratch;
  obs::SimTraceRecorder* const recorder = opts.sim_trace;
  if (recorder != nullptr) recorder->clear();

  for (std::size_t step = 0; step < program.size(); ++step) {
    const auto& entry = program.step(step);
    if (const auto* cs = std::get_if<core::ComputeStep>(&entry)) {
      if (recorder != nullptr) recorder->begin_step("comp", step, n);
      for (std::size_t i = 0; i < cs->items.size(); ++i) {
        const core::WorkItem& item = cs->items[i];
        Time dt = costs.cost(item.op, item.block_size);
        if (opts.compute_overhead) {
          dt += opts.compute_overhead(item, cs->touched(i));
        }
        const auto p = static_cast<std::size_t>(item.proc);
        const Time before = clock[p];
        clock[p] += dt;
        result.comp[p] += dt;
        if (recorder != nullptr) recorder->note(item.proc, before, clock[p]);
      }
      if (recorder != nullptr) recorder->end_step();
    } else {
      const auto& pattern = std::get<core::CommStep>(entry).pattern;
      if (pattern.size() == pattern.self_message_count()) {
        continue;  // only local copies: free under the plain LogGP model
      }
      if (recorder != nullptr) recorder->begin_step("comm", step, n);
      const std::uint64_t step_seed = opts.seed * 0x100000001b3ULL +
                                      static_cast<std::uint64_t>(step);
      if (opts.worst_case) {
        sink.reset(program.procs());
        core::WorstCaseSimulator{params,
                                 core::WorstCaseOptions{step_seed, opts.net}}
            .run_into(pattern, clock, sink, worst_scratch);
      } else {
        comm_sim.run_into(pattern, clock, step_seed, sink);
      }
      result.comm_ops += sink.op_count();
      const std::vector<Time>& finish = sink.finish_times();
      for (std::size_t p = 0; p < n; ++p) {
        if (finish[p] > Time::zero()) {
          result.comm[p] += finish[p] - clock[p];
          if (recorder != nullptr) {
            recorder->note(static_cast<ProcId>(p), clock[p], finish[p]);
          }
          clock[p] = finish[p];
        }
      }
      if (recorder != nullptr) recorder->end_step();
    }
  }
  result.total = Time::zero();
  for (Time t : clock) result.total = max(result.total, t);
  return result;
}

/// Every field, bit for bit.
void expect_identical(const core::ProgramResult& got,
                      const core::ProgramResult& want) {
  EXPECT_EQ(got.total.us(), want.total.us());
  EXPECT_EQ(got.comm_ops, want.comm_ops);
  ASSERT_EQ(got.proc_end.size(), want.proc_end.size());
  ASSERT_EQ(got.comp.size(), want.comp.size());
  ASSERT_EQ(got.comm.size(), want.comm.size());
  for (std::size_t p = 0; p < want.proc_end.size(); ++p) {
    EXPECT_EQ(got.proc_end[p].us(), want.proc_end[p].us()) << "proc " << p;
    EXPECT_EQ(got.comp[p].us(), want.comp[p].us()) << "proc " << p;
    EXPECT_EQ(got.comm[p].us(), want.comm[p].us()) << "proc " << p;
  }
}

class RandomProgramTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomProgramTest, MemoizedWalkMatchesPerItemLookups) {
  const auto rp =
      make_random_program(GetParam() ^ 0x5555, GenOptions{.memo_stress = true});
  const auto params = loggp::presets::meiko_cs2(rp.procs);
  for (const bool with_overhead : {false, true}) {
    core::ProgramSimOptions opts;
    opts.seed = GetParam();
    if (with_overhead) {
      opts.compute_overhead = [](const core::WorkItem& item,
                                 std::span<const std::int64_t> touched) {
        return Time{0.5 * item.block_size +
                    static_cast<double>(touched.size())};
      };
    }
    obs::SimTraceRecorder got_trace;
    opts.sim_trace = &got_trace;
    const auto got = core::Predictor{params, opts}.predict(rp.program, rp.costs);
    ASSERT_TRUE(got.ok()) << got.status().to_string();

    obs::SimTraceRecorder want_trace;
    opts.sim_trace = &want_trace;
    expect_identical(got->standard,
                     reference_walk(rp.program, rp.costs, params, opts));
    opts.worst_case = true;
    opts.sim_trace = nullptr;
    expect_identical(got->worst_case,
                     reference_walk(rp.program, rp.costs, params, opts));

    const auto& got_slices = got_trace.slices();
    const auto& want_slices = want_trace.slices();
    ASSERT_EQ(got_slices.size(), want_slices.size());
    for (std::size_t i = 0; i < want_slices.size(); ++i) {
      EXPECT_STREQ(got_slices[i].kind, want_slices[i].kind) << "slice " << i;
      EXPECT_EQ(got_slices[i].proc, want_slices[i].proc) << "slice " << i;
      EXPECT_EQ(got_slices[i].step, want_slices[i].step) << "slice " << i;
      EXPECT_EQ(got_slices[i].start_us, want_slices[i].start_us)
          << "slice " << i;
      EXPECT_EQ(got_slices[i].end_us, want_slices[i].end_us) << "slice " << i;
    }
  }
}

TEST_P(RandomProgramTest, BareTestbedAgreesWithPredictorExactly) {
  const auto rp = make_random_program(GetParam());
  const auto params = loggp::presets::meiko_cs2(rp.procs);
  const auto predicted =
      core::Predictor{params}.predict_standard(rp.program, rp.costs);

  machine::TestbedConfig cfg;
  cfg.net = params;
  cfg.cache_enabled = false;
  cfg.iter_overhead = Time::zero();
  cfg.local_copy_per_byte = 0.0;
  cfg.latency_jitter_sd = 0.0;
  const auto measured = machine::Testbed{cfg}.run(rp.program, rp.costs);

  EXPECT_NEAR(measured.total_with_cache.us(), predicted.total.us(), 1e-6);
  for (std::size_t p = 0; p < predicted.proc_end.size(); ++p) {
    EXPECT_NEAR(measured.proc_end[p].us(), predicted.proc_end[p].us(), 1e-6)
        << "proc " << p;
  }
}

TEST_P(RandomProgramTest, WorstCaseNeverFasterThanStandard) {
  const auto rp = make_random_program(GetParam() ^ 0x1111);
  const auto params = loggp::presets::meiko_cs2(rp.procs);
  const auto pred = core::Predictor{params}.predict_or_die(rp.program, rp.costs);
  EXPECT_GE(pred.total_worst().us() + 1e-6, pred.total().us());
}

TEST_P(RandomProgramTest, OverlapAnomaliesStayBounded) {
  // Overlapping is not provably monotone (Graham anomaly: reordering the
  // Figure-2 scheduler's choices can backfire); on arbitrary programs we
  // only require that any slowdown stays small.
  const auto rp = make_random_program(GetParam() ^ 0x2222);
  const auto params = loggp::presets::meiko_cs2(rp.procs);
  const auto alt =
      core::ProgramSimulator{params}.run(rp.program, rp.costs);
  const auto ovl =
      ext::OverlapProgramSimulator{params}.run(rp.program, rp.costs);
  EXPECT_LE(ovl.total.us(), 1.30 * alt.total.us());
}

TEST(RandomProgramAggregate, OverlapUsuallyWins) {
  int wins = 0, runs = 0;
  for (std::uint64_t seed = 1; seed < 31; ++seed) {
    const auto rp = make_random_program(seed ^ 0x2222);
    const auto params = loggp::presets::meiko_cs2(rp.procs);
    const double alt =
        core::ProgramSimulator{params}.run(rp.program, rp.costs).total.us();
    const double ovl = ext::OverlapProgramSimulator{params}
                           .run(rp.program, rp.costs)
                           .total.us();
    ++runs;
    if (ovl <= alt + 1e-6) ++wins;
  }
  EXPECT_GE(wins * 10, runs * 7) << wins << "/" << runs;
}

TEST_P(RandomProgramTest, LowerBoundsHold) {
  const auto rp = make_random_program(GetParam() ^ 0x3333);
  const auto params = loggp::presets::meiko_cs2(rp.procs);
  const auto bounds = analysis::analyze_program(rp.program, rp.costs, params);
  const auto sim =
      core::Predictor{params}.predict_standard(rp.program, rp.costs);
  EXPECT_LE(bounds.work_bound.us(), sim.total.us() + 1e-6);
  EXPECT_LE(bounds.dependency_bound.us(), sim.total.us() + 1e-6);
}

TEST_P(RandomProgramTest, DecompositionConsistentPerProcessor) {
  const auto rp = make_random_program(GetParam() ^ 0x4444);
  const auto params = loggp::presets::meiko_cs2(rp.procs);
  const auto result =
      core::ProgramSimulator{params}.run(rp.program, rp.costs);
  for (std::size_t p = 0; p < result.proc_end.size(); ++p) {
    EXPECT_NEAR(result.proc_end[p].us(),
                (result.comp[p] + result.comm[p]).us(), 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgramTest,
                         ::testing::Range<std::uint64_t>(1, 31));

}  // namespace
}  // namespace logsim
