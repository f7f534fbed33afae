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
#include <string>
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
#include "ge/irregular.hpp"
#include "ge/left_looking.hpp"
#include "io/program_io.hpp"
#include "layout/layout.hpp"
#include "machine/testbed.hpp"
#include "loggp/params.hpp"
#include "ops/analytic_model.hpp"
#include "pattern/builders.hpp"
#include "pattern/component_split.hpp"
#include "stencil/stencil.hpp"
#include "trisolve/trisolve.hpp"
#include "util/hash.hpp"
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
  // A 512-ring deadlocks at once: the random release draw picks among all
  // 512 processors, and the chain it starts runs 511 single-sender
  // rounds, pinning the worst-case rng stream on the large-P path.
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

TEST(GoldenTrace, WorstCaseAllgatherRoundFatTree) {
  // The benchmark's shaped worst-case step: the last (stride-1024) round
  // of allgather_doubling(2048, 256 B) on the fat-tree {128,16}/{1,2} with
  // 3 us per hop.  Pins the worst-case step_delays path at scale: every
  // exchange pair deadlocks, so the release draw fires P/2 times.
  const auto program = collective::allgather_doubling(2048, Bytes{256});
  const auto* round = std::get_if<CommStep>(&program.step(10));
  ASSERT_NE(round, nullptr);
  auto spec = network::TopologySpec::fat_tree({128, 16}, {1, 2});
  spec.per_hop = Time{3.0};
  const auto net = network::NetworkModel::create(spec);
  WorstCaseOptions opts;
  opts.seed = 23;
  opts.net = net.get();
  const CommTrace trace =
      WorstCaseSimulator{loggp::presets::meiko_cs2(2048), opts}.run(
          round->pattern, staggered_ready(2048, 3, 1.5));
  EXPECT_EQ(hash_trace(trace), 0x75bbcedffea9604dULL);
}

TEST(GoldenTrace, WorstCaseHaloStep) {
  // A P = 1024 2-D halo exchange (32x32 tiles of 16x16 cells), staggered
  // entry: most rounds are deadlock breaks releasing one message, between
  // short cascades of at most a few senders.
  stencil::StencilConfig cfg;
  cfg.partition = stencil::Partition::kTiles2D;
  cfg.procs = 1024;
  cfg.n = 32 * 16;
  const auto pat = stencil::halo_pattern(cfg);
  const CommTrace trace =
      WorstCaseSimulator{loggp::presets::meiko_cs2(1024),
                         WorstCaseOptions{61}}.run(
          pat, staggered_ready(1024, 5, 3.0));
  EXPECT_EQ(hash_trace(trace), 0x19daed1b8409ea0eULL);
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

// --- program content ------------------------------------------------------
//
// Every generator's output pinned item by item: (proc, op, block) and the
// touched block ids of each work item, in program order, plus the bytes of
// io::to_text.  The constants were captured from a build that kept each
// item's ids in a vector of its own, so they pin that the one-array layout
// reproduces every generator's ids in order and the text byte for byte.

std::uint64_t hash_items(const StepProgram& program) {
  util::Hasher h;
  for (std::size_t s = 0; s < program.size(); ++s) {
    const auto* cs = std::get_if<ComputeStep>(&program.step(s));
    if (cs == nullptr) continue;
    h.mix_u64(s);
    h.mix_u64(cs->items.size());
    for (std::size_t i = 0; i < cs->items.size(); ++i) {
      const WorkItem& item = cs->items[i];
      h.mix_i64(item.proc);
      h.mix_i64(item.op);
      h.mix_i64(item.block_size);
      const auto ids = cs->touched(i);
      h.mix_u64(ids.size());
      for (const std::int64_t id : ids) h.mix_i64(id);
    }
  }
  return h.digest();
}

std::uint64_t hash_text(const StepProgram& program, const CostTable& costs) {
  const std::string text = io::to_text(program, costs);
  util::Hasher h;
  h.mix_u64(text.size());
  h.mix_bytes(text.data(), text.size());
  return h.digest();
}

struct ContentPin {
  const char* layout;
  int block;
  std::uint64_t items;
  std::uint64_t text;
};

TEST(GoldenTrace, Fig7GridProgramContentIsPinned) {
  const ContentPin pins[] = {
      {"diag", 10, 0xa2dcfa18b60beb79ULL, 0x25bb8ff0e1ac6605ULL},
      {"diag", 12, 0x3f8647cc6012fe12ULL, 0xf1804a7f3bcc059cULL},
      {"diag", 15, 0x8b2249230068e554ULL, 0xae27e071af7f2f8cULL},
      {"diag", 16, 0xcaf1b62cd6591cfaULL, 0x5f1ffa9c6e158aaaULL},
      {"diag", 20, 0xc629dc4cf923a2e1ULL, 0x26db17d4ce2584daULL},
      {"diag", 24, 0xf7fbd4a7b8028f88ULL, 0x97da2cc2925e19ebULL},
      {"diag", 30, 0x913256c85a1d9c6bULL, 0xf56be02947ce2814ULL},
      {"diag", 32, 0x999a79433cf043dbULL, 0xd80d945bf613fcf4ULL},
      {"diag", 40, 0x4c66366781895ff9ULL, 0xf8995f5f17d79867ULL},
      {"diag", 48, 0xa9ae14b2749decfdULL, 0xdd615369b82ed56bULL},
      {"diag", 60, 0x626ef0dea6b57ceaULL, 0x76f55b96124f4a0eULL},
      {"diag", 64, 0xd8db4e3a6d653f13ULL, 0xe65301a7b7a1a0a3ULL},
      {"diag", 80, 0x3351ee9b3aac15cdULL, 0xb05a5a5b9b6fa6ccULL},
      {"diag", 96, 0x023a6763cdaf2206ULL, 0x4b6e4a3b467e33caULL},
      {"diag", 120, 0x408b138ace146b2fULL, 0x0a322db809792cb9ULL},
      {"row", 10, 0x1a5ffd7509f0ec96ULL, 0x7eda25c9ac0aad51ULL},
      {"row", 12, 0x386471f2c4eeaabaULL, 0x5ddf22bfa5f04d20ULL},
      {"row", 15, 0x5596b14392c36a72ULL, 0xa98bc88b178eabceULL},
      {"row", 16, 0x0e72c5263778c7edULL, 0x2cf5e1fa26c908e1ULL},
      {"row", 20, 0xf99f09a5b9c389d4ULL, 0x7038d08c6fb90fd2ULL},
      {"row", 24, 0xca3c301dfd00115bULL, 0x573d8fa9a6fa5ed1ULL},
      {"row", 30, 0x6bc6b8f4e44baae4ULL, 0xe97da7fc512f86e4ULL},
      {"row", 32, 0x4e817d1c62ee840cULL, 0x5198f9e3dd3e3efbULL},
      {"row", 40, 0x065f6bf69fc60aeaULL, 0xc6f5ba1582559b37ULL},
      {"row", 48, 0x07b87efd532492e5ULL, 0xd2123188afaf6905ULL},
      {"row", 60, 0x86c5ec9043a11d7aULL, 0x2f34805cf89bbe0eULL},
      {"row", 64, 0x55a711c89c01cdf1ULL, 0x9ce38b256145cbdfULL},
      {"row", 80, 0x36475bfa74d2cbffULL, 0x18a84486098348b8ULL},
      {"row", 96, 0x1b77bb79d4d7dfa4ULL, 0xeba8efd6462f14e9ULL},
      {"row", 120, 0xd43bb0b6b424cbe1ULL, 0x281e0e3a3b08a43eULL},
  };
  const auto costs = ops::analytic_cost_table();
  const layout::DiagonalMap diag{8};
  const layout::RowCyclic row{8};
  std::size_t checked = 0;
  for (const layout::Layout* map :
       {static_cast<const layout::Layout*>(&diag),
        static_cast<const layout::Layout*>(&row)}) {
    const char* name = map == &diag ? "diag" : "row";
    for (const int b : ops::default_block_sizes()) {
      const auto program =
          ge::build_ge_program(ge::GeConfig{.n = 960, .block = b}, *map);
      const std::uint64_t items = hash_items(program);
      const std::uint64_t text = hash_text(program, costs);
      for (const ContentPin& pin : pins) {
        if (std::string{pin.layout} != name || pin.block != b) continue;
        EXPECT_EQ(items, pin.items) << name << " b=" << b;
        EXPECT_EQ(text, pin.text) << name << " b=" << b;
        ++checked;
      }
    }
  }
  EXPECT_EQ(checked, std::size(pins));
}

TEST(GoldenTrace, OtherGeneratorsProgramContentIsPinned) {
  const auto ge_costs = ops::analytic_cost_table();
  const stencil::StencilConfig strips{.n = 64, .iterations = 3, .procs = 8};
  const stencil::StencilConfig tiles{
      .n = 64,
      .iterations = 3,
      .partition = stencil::Partition::kTiles2D,
      .procs = 16};
  const trisolve::TriSolveConfig tri{.n = 96, .block = 12, .procs = 4};
  const auto reduce = collective::reduce_binomial(8, Bytes{1024}, 0.01);
  const layout::DiagonalMap diag4{4};
  struct Case {
    const char* name;
    StepProgram program;
    CostTable costs;
    std::uint64_t items;
    std::uint64_t text;
  };
  const Case cases[] = {
      {"stencil strips", stencil::build_stencil_program(strips),
       stencil::stencil_cost_table(strips), 0xcbb83d4ef294c1ebULL,
       0x2a2fca2d4f6ee42fULL},
      {"stencil tiles", stencil::build_stencil_program(tiles),
       stencil::stencil_cost_table(tiles), 0x754d3f59927c74b8ULL,
       0x764d410e523b0710ULL},
      {"trisolve", trisolve::build_trisolve_program(tri),
       trisolve::trisolve_cost_table(tri.block), 0xc87acb18f910a312ULL,
       0xe0ade316ceae32a0ULL},
      {"cannon", cannon::build_cannon_program(cannon::CannonConfig{}),
       ge_costs, 0x13fa760458ca4628ULL, 0xe9795a2de0392dd2ULL},
      {"reduce", reduce.program, reduce.costs, 0x39ec441f7d99086dULL,
       0xa1483da6807f6a2fULL},
      {"left-looking",
       ge::build_ge_left_looking(ge::GeConfig{.n = 240, .block = 24}, 4),
       ge_costs, 0x40e96f757d69f774ULL, 0xc34e12f8f83ca779ULL},
      {"irregular",
       ge::build_ge_program_irregular(
           ge::IrregularGeConfig{.n = 250, .block = 24}, diag4),
       ge_costs, 0x94694fd434936ab3ULL, 0xa6af53014974f998ULL},
  };
  for (const Case& c : cases) {
    const std::uint64_t items = hash_items(c.program);
    const std::uint64_t text = hash_text(c.program, c.costs);
    EXPECT_EQ(items, c.items) << c.name;
    EXPECT_EQ(text, c.text) << c.name;
  }
}

// The Testbed is the one consumer whose numbers depend on touched ids
// (its cache model charges them), so pin its clocks bit for bit.
TEST(GoldenTrace, TestbedTotalsOnFig7PointsArePinned) {
  const auto costs = ops::analytic_cost_table();
  const layout::DiagonalMap diag{8};
  const layout::RowCyclic row{8};
  struct Point {
    const layout::Layout* map;
    int block;
    std::uint64_t hash;
  };
  const Point points[] = {
      {&diag, 10, 0xc3b9d72c77364211ULL},
      {&diag, 48, 0x673691640e4d1911ULL},
      {&row, 20, 0xb9882dd5d7ef27a7ULL},
      {&row, 96, 0x61a2efea24d7fba0ULL}};
  const machine::Testbed testbed{machine::TestbedConfig::meiko_cs2(8)};
  for (const Point& pt : points) {
    const auto program = ge::build_ge_program(
        ge::GeConfig{.n = 960, .block = pt.block}, *pt.map);
    const machine::TestbedResult r = testbed.run(program, costs);
    Fnv f;
    f.add_time(r.total_with_cache);
    f.add_time(r.total_without_cache);
    for (const auto* v : {&r.proc_end, &r.comp, &r.comm, &r.stall}) {
      for (const Time t : *v) f.add_time(t);
    }
    EXPECT_EQ(f.value(), pt.hash) << pt.map->name() << " b=" << pt.block;
  }
}

}  // namespace
}  // namespace logsim::core
