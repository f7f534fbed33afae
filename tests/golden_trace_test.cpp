// Golden-trace determinism suite: hashes the FULL op sequence of
// fixed-seed simulations (every field of every OpRecord, in emission
// order) and compares against constants captured from the original
// implementation.  Any rewrite of the simulator hot path -- scratch
// reuse, incremental min-selection, sink-based trace elision -- must keep
// every one of these hashes bit-identical: same op order, same times,
// same rng draws.  Covers the standard Figure-2 algorithm, the
// worst-case Section-4.2 algorithm (including the deadlock-break rng
// path), the msg-ready (overlap) path, and whole-program simulations of
// GE and Cannon with both schedules.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <variant>
#include <vector>

#include "cannon/cannon.hpp"
#include "collective/collective.hpp"
#include "core/comm_sim.hpp"
#include "core/parallel_comm.hpp"
#include "core/predictor.hpp"
#include "core/program_sim.hpp"
#include "core/worst_case.hpp"
#include "network/network_model.hpp"
#include "extensions/overlap_sim.hpp"
#include "ge/blocked_ge.hpp"
#include "layout/layout.hpp"
#include "loggp/params.hpp"
#include "ops/analytic_model.hpp"
#include "pattern/builders.hpp"
#include "pattern/component_split.hpp"
#include "stencil/stencil.hpp"
#include "util/rng.hpp"

namespace logsim::core {
namespace {

// --- FNV-1a 64 over the raw bit patterns --------------------------------

class Fnv {
 public:
  void add_u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ = (h_ ^ ((v >> (8 * i)) & 0xffu)) * 0x100000001b3ULL;
    }
  }
  void add_double(double d) {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(d));
    std::memcpy(&bits, &d, sizeof(bits));
    add_u64(bits);
  }
  void add_time(Time t) { add_double(t.us()); }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::uint64_t hash_trace(const CommTrace& trace) {
  Fnv f;
  f.add_u64(trace.ops().size());
  for (const auto& op : trace.ops()) {
    f.add_u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(op.proc)));
    f.add_u64(op.kind == loggp::OpKind::kSend ? 0u : 1u);
    f.add_time(op.start);
    f.add_time(op.cpu_end);
    f.add_time(op.port_end);
    f.add_u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(op.peer)));
    f.add_u64(op.bytes.count());
    f.add_u64(op.msg_index);
  }
  // Derived accessors must agree with the op sequence as well.
  f.add_time(trace.makespan());
  for (const Time t : trace.finish_times()) f.add_time(t);
  return f.value();
}

std::uint64_t hash_result(const ProgramResult& r) {
  Fnv f;
  f.add_time(r.total);
  f.add_u64(r.comm_ops);
  for (const Time t : r.proc_end) f.add_time(t);
  for (const Time t : r.comp) f.add_time(t);
  for (const Time t : r.comm) f.add_time(t);
  return f.value();
}

const loggp::Params kMeiko10 = loggp::presets::meiko_cs2(10);

// --- standard algorithm -------------------------------------------------

TEST(GoldenTrace, Fig3Standard) {
  const auto pat = pattern::paper_fig3();
  const CommTrace trace = CommSimulator{kMeiko10}.run(pat);
  EXPECT_EQ(hash_trace(trace), 0xa927844905f9c6d9ULL);
}

TEST(GoldenTrace, AllToAllHeavyTies) {
  // 16 processors, all ready at t=0: every selection round starts with a
  // large ctime tie, exercising the rng-draw order exhaustively.
  const auto pat = pattern::all_to_all(16, Bytes{112});
  CommSimOptions opts;
  opts.seed = 7;
  const CommTrace trace =
      CommSimulator{loggp::presets::meiko_cs2(16), opts}.run(pat);
  EXPECT_EQ(hash_trace(trace), 0x1f102da9aa3ccdf6ULL);
}

TEST(GoldenTrace, RandomPatternStaggeredReady) {
  util::Rng rng{99};
  const auto pat = pattern::random_pattern(rng, 8, 30, Bytes{1}, Bytes{400});
  std::vector<Time> ready;
  for (int p = 0; p < 8; ++p) ready.push_back(Time{1.5 * p});
  CommSimOptions opts;
  opts.seed = 5;
  const CommTrace trace =
      CommSimulator{loggp::presets::meiko_cs2(8), opts}.run(pat, ready);
  EXPECT_EQ(hash_trace(trace), 0xd6436b87bc9a853aULL);
}

TEST(GoldenTrace, MsgReadyPath) {
  // Per-message injection times: the third run() overload, as driven by
  // the overlapping-communication extension.
  util::Rng rng{1234};
  const auto pat = pattern::random_pattern(rng, 6, 24, Bytes{8}, Bytes{512});
  const std::vector<Time> ready(6, Time::zero());
  std::vector<Time> msg_ready;
  for (std::size_t i = 0; i < pat.size(); ++i) {
    msg_ready.push_back(Time{static_cast<double>((i * 7) % 23)});
  }
  CommSimOptions opts;
  opts.seed = 17;
  const CommTrace trace = CommSimulator{loggp::presets::meiko_cs2(6), opts}.run(
      pat, ready, msg_ready);
  EXPECT_EQ(hash_trace(trace), 0x89ee1b6dc33ed045ULL);
}

TEST(GoldenTrace, SendPriorityAblation) {
  util::Rng rng{55};
  const auto pat = pattern::random_pattern(rng, 8, 40, Bytes{1}, Bytes{256});
  CommSimOptions opts;
  opts.seed = 3;
  opts.send_priority = true;
  const CommTrace trace =
      CommSimulator{loggp::presets::meiko_cs2(8), opts}.run(pat);
  EXPECT_EQ(hash_trace(trace), 0x8aa4d1f7a18605d9ULL);
}

// --- worst-case algorithm -----------------------------------------------

TEST(GoldenTrace, Fig3WorstCase) {
  const auto pat = pattern::paper_fig3();
  const CommTrace trace = WorstCaseSimulator{kMeiko10}.run(pat);
  EXPECT_EQ(hash_trace(trace), 0xcc311bf090642ff5ULL);
}

TEST(GoldenTrace, RingWorstCaseDeadlockBreak) {
  // A ring is one big processor cycle: every round deadlocks and the
  // random release draw fires, pinning the deadlock-break rng stream.
  const auto pat = pattern::ring(8, Bytes{112});
  const CommTrace trace =
      WorstCaseSimulator{loggp::presets::meiko_cs2(8),
                         WorstCaseOptions{11}}.run(pat);
  EXPECT_EQ(hash_trace(trace), 0x258c8d4c330dcdcULL);
}

TEST(GoldenTrace, RandomWorstCase) {
  util::Rng rng{43};
  const auto pat =
      pattern::random_pattern(rng, 16, 120, Bytes{16}, Bytes{2048});
  const CommTrace trace =
      WorstCaseSimulator{loggp::presets::meiko_cs2(16),
                         WorstCaseOptions{29}}.run(pat);
  EXPECT_EQ(hash_trace(trace), 0x81f996553a99f749ULL);
}

// --- mega-scale paths ----------------------------------------------------
// Hashes below were captured from the scalar pre-SoA implementation; the
// structure-of-arrays rewrite and the Fenwick tie-group selector must
// reproduce them bit for bit (same op order, same times, same rng draws).

std::uint64_t hash_finish(const FinishOnlySink& sink) {
  Fnv f;
  f.add_u64(sink.op_count());
  f.add_u64(sink.send_count());
  for (const Time t : sink.finish_times()) f.add_time(t);
  return f.value();
}

// A uniform-byte pattern over `procs` processors that splits into many
// independent components: disjoint 8-rings over the lower half, exchange
// pairs over the upper half.  Used by the dense-scan parity tests.
pattern::CommPattern multi_component_mix(int procs, Bytes bytes) {
  pattern::CommPattern p{procs};
  for (int base = 0; base + 8 <= procs / 2; base += 8) {
    for (int i = 0; i < 8; ++i) {
      p.add(base + i, base + (i + 1) % 8, bytes);
    }
  }
  for (int i = procs / 2; i + 1 < procs; i += 2) {
    p.add(i, i + 1, bytes);
    p.add(i + 1, i, bytes);
  }
  return p;
}

std::vector<Time> staggered_ready(int procs, int classes, double step_us) {
  std::vector<Time> ready;
  ready.reserve(static_cast<std::size_t>(procs));
  for (int p = 0; p < procs; ++p) ready.push_back(Time{(p % classes) * step_us});
  return ready;
}

TEST(GoldenTrace, BigTieRingLockstep) {
  // 256 processors all ready at t=0 with uniform bytes: every selection
  // round opens as one giant (ctime, proc) tie group.
  const auto pat = pattern::ring(256, Bytes{64});
  CommSimOptions opts;
  opts.seed = 21;
  const CommTrace trace =
      CommSimulator{loggp::presets::meiko_cs2(256), opts}.run(pat);
  EXPECT_EQ(hash_trace(trace), 0xb6bf58450303c7dULL);
}

TEST(GoldenTrace, BigTieButterflyRound) {
  const auto pat = pattern::hypercube_round(512, 4, Bytes{256});
  CommSimOptions opts;
  opts.seed = 9;
  const CommTrace trace =
      CommSimulator{loggp::presets::meiko_cs2(512), opts}.run(pat);
  EXPECT_EQ(hash_trace(trace), 0xf55f5aa3ca70cf55ULL);
}

TEST(GoldenTrace, BigTieMixedBytesStaggered) {
  // Mixed message sizes and coarse ready classes: large and small tie
  // groups alternate within one run, so both selection paths execute.
  util::Rng rng{2718};
  const auto pat =
      pattern::random_pattern(rng, 1024, 4096, Bytes{8}, Bytes{2048});
  CommSimOptions opts;
  opts.seed = 33;
  const CommTrace trace = CommSimulator{loggp::presets::meiko_cs2(1024), opts}
                              .run(pat, staggered_ready(1024, 4, 1.0));
  EXPECT_EQ(hash_trace(trace), 0x4aa14325f2bd7085ULL);
}

TEST(GoldenTrace, BigTieMsgReadyPath) {
  const auto pat = pattern::ring(300, Bytes{112});
  std::vector<Time> msg_ready;
  for (std::size_t i = 0; i < pat.size(); ++i) {
    msg_ready.push_back(Time{static_cast<double>((i * 5) % 17)});
  }
  CommSimOptions opts;
  opts.seed = 13;
  const CommTrace trace =
      CommSimulator{loggp::presets::meiko_cs2(300), opts}.run(
          pat, std::vector<Time>(300, Time::zero()), msg_ready);
  EXPECT_EQ(hash_trace(trace), 0xfeb43266c697bd95ULL);
}

TEST(GoldenTrace, WorstCaseLargeRingDeadlock) {
  // Every round of a 512-ring deadlocks: the random release draw fires at
  // scale, pinning the worst-case rng stream on the large-P path.
  const auto pat = pattern::ring(512, Bytes{96});
  const CommTrace trace =
      WorstCaseSimulator{loggp::presets::meiko_cs2(512),
                         WorstCaseOptions{77}}.run(pat);
  EXPECT_EQ(hash_trace(trace), 0x1389a3d310285cfULL);
}

TEST(GoldenTrace, WorstCaseLargeRandom) {
  util::Rng rng{4242};
  const auto pat =
      pattern::random_pattern(rng, 1024, 8192, Bytes{16}, Bytes{4096});
  const CommTrace trace =
      WorstCaseSimulator{loggp::presets::meiko_cs2(1024),
                         WorstCaseOptions{101}}.run(pat);
  EXPECT_EQ(hash_trace(trace), 0x3880e4d1004e51c2ULL);
}

TEST(GoldenTrace, MultiComponentMixFinishTimes) {
  // Heap-loop reference for the dense-scan parity suite: finish times and
  // op counts of the multi-component mix at P=4096, staggered ready.
  const auto pat = multi_component_mix(4096, Bytes{128});
  const auto ready = staggered_ready(4096, 7, 0.5);
  CommSimOptions opts;
  opts.seed = 71;
  const CommSimulator sim{loggp::presets::meiko_cs2(4096), opts};
  CommSimScratch scratch;
  FinishOnlySink sink;
  sink.reset(4096);
  sim.run_into(pat, ready, {}, sink, scratch);
  EXPECT_EQ(hash_finish(sink), 0x50132c889c3d7b5dULL);
}

// --- whole-pattern dense scan vs the heap loop ---------------------------
// Uniform bytes make the standard-schedule finish times independent of
// the tie-break policy (pattern/canonical.hpp), so ParallelCommSimulator's
// dense ordered-ties scan must reproduce the seeded heap loop exactly --
// finish times, op and send counts -- on every input below.

TEST(GoldenTrace, ComponentSplitStructure) {
  // The multi-component mix at P=4096 splits into 256 disjoint 8-rings
  // plus 1024 exchange pairs.
  const auto pat = multi_component_mix(4096, Bytes{128});
  pattern::ComponentSplit split;
  EXPECT_EQ(split.analyze(pat), 256 + 1024);
  EXPECT_EQ(split.count(), 256 + 1024);
  EXPECT_TRUE(split.uniform_bytes());
  EXPECT_EQ(split.network_messages(), pat.size());
}

TEST(GoldenTrace, ComponentSplitDisseminationRound) {
  // i -> (i + 64) mod 1024 is a union of gcd(1024, 64) = 64 rings.
  const auto pat = collective::dissemination_round(1024, 6, Bytes{512});
  pattern::ComponentSplit split;
  EXPECT_EQ(split.analyze(pat), 64);
  EXPECT_TRUE(split.uniform_bytes());
}

TEST(GoldenTrace, ParallelDecompositionSequentialBitIdentical) {
  // Named for the component-decomposition path it used to pin.  The same
  // multi-component mix, ready times and seed now run through the
  // whole-pattern dense scan, which must land on the heap loop's pinned
  // hash.
  const auto pat = multi_component_mix(4096, Bytes{128});
  const auto ready = staggered_ready(4096, 7, 0.5);
  ParallelCommSimulator sim{loggp::presets::meiko_cs2(4096)};
  FinishOnlySink sink;
  const auto info = sim.run_into(pat, ready, /*seed=*/71, sink);
  EXPECT_TRUE(info.dense);
  EXPECT_EQ(hash_finish(sink), 0x50132c889c3d7b5dULL);
}

TEST(GoldenTrace, ParallelFallsBackOnNonUniformBytes) {
  // Mixed byte sizes void the relabel-equivariance argument, so the
  // simulator must take the scalar path and match it trivially.
  pattern::CommPattern pat{4096};
  for (int base = 0; base + 8 <= 4096; base += 8) {
    for (int i = 0; i < 8; ++i) {
      pat.add(base + i, base + (i + 1) % 8,
              Bytes{static_cast<std::uint64_t>(64 + 8 * (i % 3))});
    }
  }
  const auto ready = staggered_ready(4096, 3, 2.0);

  CommSimOptions scalar_opts;
  scalar_opts.seed = 5;
  const CommSimulator scalar{loggp::presets::meiko_cs2(4096), scalar_opts};
  CommSimScratch scratch;
  FinishOnlySink expect;
  expect.reset(4096);
  scalar.run_into(pat, ready, {}, expect, scratch);

  ParallelCommSimulator sim{loggp::presets::meiko_cs2(4096)};
  FinishOnlySink sink;
  const auto info = sim.run_into(pat, ready, /*seed=*/5, sink);
  EXPECT_FALSE(info.dense);
  EXPECT_EQ(hash_finish(sink), hash_finish(expect));
}

TEST(GoldenTrace, DenseScanMatchesScalarOnSingleComponent) {
  // A single-component uniform pattern takes the dense ordered-ties scan;
  // its finish times and op counts must equal the seeded scalar run's.
  const auto pat = pattern::ring(4096, Bytes{64});
  const std::vector<Time> ready(4096, Time::zero());

  CommSimOptions scalar_opts;
  scalar_opts.seed = 21;
  const CommSimulator scalar{loggp::presets::meiko_cs2(4096), scalar_opts};
  CommSimScratch scratch;
  FinishOnlySink expect;
  expect.reset(4096);
  scalar.run_into(pat, ready, {}, expect, scratch);

  ParallelCommSimulator sim{loggp::presets::meiko_cs2(4096)};
  FinishOnlySink sink;
  const auto info = sim.run_into(pat, ready, /*seed=*/21, sink);
  EXPECT_TRUE(info.dense);
  EXPECT_EQ(hash_finish(sink), hash_finish(expect));
}

TEST(GoldenTrace, DenseScanMatchesScalarOnStencilHalo) {
  // The 2-D halo exchange is the mega-scale acceptance workload; pin the
  // dense scan to the scalar result on a 64x64 tile grid with staggered
  // entry times.
  stencil::StencilConfig cfg;
  cfg.partition = stencil::Partition::kTiles2D;
  cfg.procs = 4096;
  cfg.n = 64 * 16;
  const auto pat = stencil::halo_pattern(cfg);
  const auto ready = staggered_ready(4096, 5, 3.0);

  CommSimOptions scalar_opts;
  scalar_opts.seed = 97;
  const CommSimulator scalar{loggp::presets::meiko_cs2(4096), scalar_opts};
  CommSimScratch scratch;
  FinishOnlySink expect;
  expect.reset(4096);
  scalar.run_into(pat, ready, {}, expect, scratch);

  ParallelCommSimulator sim{loggp::presets::meiko_cs2(4096)};
  FinishOnlySink sink;
  const auto info = sim.run_into(pat, ready, /*seed=*/97, sink);
  EXPECT_TRUE(info.dense);
  EXPECT_EQ(hash_finish(sink), hash_finish(expect));
}

TEST(GoldenTrace, DenseScanMatchesScalarOnAllgatherDoubling) {
  // Every round of a P=2048 recursive-doubling allgather, the smallest
  // flat step the dispatcher scans, each round entered at the clocks the
  // previous one left behind.
  const auto program = collective::allgather_doubling(2048, Bytes{256});
  const auto params = loggp::presets::meiko_cs2(2048);
  std::vector<Time> ready(2048, Time::zero());
  ParallelCommSimulator sim{params};
  CommSimScratch scratch;
  FinishOnlySink expect;
  FinishOnlySink sink;
  std::size_t rounds = 0;
  for (std::size_t s = 0; s < program.size(); ++s) {
    const auto* comm = std::get_if<CommStep>(&program.step(s));
    if (comm == nullptr) continue;
    CommSimOptions scalar_opts;
    scalar_opts.seed = 40 + s;
    expect.reset(2048);
    CommSimulator{params, scalar_opts}.run_into(comm->pattern, ready, {},
                                                expect, scratch);
    const auto info =
        sim.run_into(comm->pattern, ready, scalar_opts.seed, sink);
    EXPECT_TRUE(info.dense) << "round " << rounds;
    EXPECT_EQ(sink.op_count(), expect.op_count()) << "round " << rounds;
    EXPECT_EQ(hash_finish(sink), hash_finish(expect)) << "round " << rounds;
    ready = expect.finish_times();
    ++rounds;
  }
  EXPECT_EQ(rounds, 11u);
}

TEST(GoldenTrace, DenseScanBailsOnSerializedPattern) {
  // A flat broadcast serializes on the root's gap: one op per distinct
  // ctime, the worst case for scanning.  The round budget must route it
  // back to the heap path with the caller's seed, matching the plain
  // scalar run exactly.
  const auto pat = pattern::flat_broadcast(4096, Bytes{256});
  const std::vector<Time> ready(4096, Time::zero());

  CommSimOptions scalar_opts;
  scalar_opts.seed = 3;
  const CommSimulator scalar{loggp::presets::meiko_cs2(4096), scalar_opts};
  CommSimScratch scratch;
  FinishOnlySink expect;
  expect.reset(4096);
  scalar.run_into(pat, ready, {}, expect, scratch);

  ParallelCommSimulator sim{loggp::presets::meiko_cs2(4096)};
  FinishOnlySink sink;
  const auto info = sim.run_into(pat, ready, /*seed=*/3, sink);
  EXPECT_FALSE(info.dense);
  EXPECT_EQ(hash_finish(sink), hash_finish(expect));
}

// --- whole programs ------------------------------------------------------

TEST(GoldenTrace, GeProgramBothSchedules) {
  const layout::DiagonalMap map{8};
  const auto program =
      ge::build_ge_program(ge::GeConfig{.n = 240, .block = 30}, map);
  const auto costs = ops::analytic_cost_table();
  const Predictor predictor{loggp::presets::meiko_cs2(8)};
  const Prediction pred = predictor.predict_or_die(program, costs);
  EXPECT_EQ(hash_result(pred.standard), 0x566a06eb3425b6dcULL);
  EXPECT_EQ(hash_result(pred.worst_case), 0xd9b553e5f396c2e0ULL);
}

TEST(GoldenTrace, CannonProgramBothSchedules) {
  const auto program = cannon::build_cannon_program(
      cannon::CannonConfig{.n = 240, .block = 24, .q = 2});
  const auto costs = ops::analytic_cost_table();
  const Predictor predictor{loggp::presets::meiko_cs2(4)};
  const Prediction pred = predictor.predict_or_die(program, costs);
  EXPECT_EQ(hash_result(pred.standard), 0x601e3b215560e297ULL);
  EXPECT_EQ(hash_result(pred.worst_case), 0x9b886599a1010a16ULL);
}

TEST(GoldenTrace, OverlapSimulatorGeProgram) {
  const layout::DiagonalMap map{8};
  const auto program =
      ge::build_ge_program(ge::GeConfig{.n = 240, .block = 30}, map);
  const auto costs = ops::analytic_cost_table();
  const ext::OverlapProgramSimulator sim{loggp::presets::meiko_cs2(8)};
  EXPECT_EQ(hash_result(sim.run(program, costs)), 0x3b06b34295e04548ULL);
}

// --- FlatLogGP NetworkModel bit-identity ---------------------------------
// The tentpole refactor routes every simulation through the NetworkModel
// interface; an explicit FlatLogGP backend must reproduce the SAME pinned
// hashes as no backend at all -- op order, times and rng draws included.

TEST(GoldenTrace, FlatNetModelKeepsStandardHash) {
  const network::FlatLogGP flat;
  const auto pat = pattern::paper_fig3();
  CommSimOptions opts;
  opts.net = &flat;
  const CommTrace trace = CommSimulator{kMeiko10, opts}.run(pat);
  EXPECT_EQ(hash_trace(trace), 0xa927844905f9c6d9ULL);
}

TEST(GoldenTrace, FlatNetModelKeepsHeavyTieHash) {
  const network::FlatLogGP flat;
  const auto pat = pattern::all_to_all(16, Bytes{112});
  CommSimOptions opts;
  opts.seed = 7;
  opts.net = &flat;
  const CommTrace trace =
      CommSimulator{loggp::presets::meiko_cs2(16), opts}.run(pat);
  EXPECT_EQ(hash_trace(trace), 0x1f102da9aa3ccdf6ULL);
}

TEST(GoldenTrace, FlatNetModelKeepsWorstCaseHash) {
  const network::FlatLogGP flat;
  const auto pat = pattern::paper_fig3();
  WorstCaseOptions opts;
  opts.net = &flat;
  const CommTrace trace = WorstCaseSimulator{kMeiko10, opts}.run(pat);
  EXPECT_EQ(hash_trace(trace), 0xcc311bf090642ff5ULL);
}

TEST(GoldenTrace, FlatNetModelKeepsGeProgramHash) {
  const layout::DiagonalMap map{8};
  const auto program =
      ge::build_ge_program(ge::GeConfig{.n = 240, .block = 30}, map);
  const auto costs = ops::analytic_cost_table();
  const network::FlatLogGP flat;
  ProgramSimOptions opts;
  opts.net = &flat;
  const ProgramResult r =
      ProgramSimulator{loggp::presets::meiko_cs2(8), opts}.run(program, costs);
  EXPECT_EQ(hash_result(r), 0x566a06eb3425b6dcULL);
}

}  // namespace
}  // namespace logsim::core
