#include "core/worst_case.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "collective/collective.hpp"
#include "core/comm_sim.hpp"
#include "core/sim_scratch.hpp"
#include "loggp/cost.hpp"
#include "network/network_model.hpp"
#include "pattern/builders.hpp"
#include "stencil/stencil.hpp"
#include "util/rng.hpp"

namespace logsim::core {
namespace {

const loggp::Params kMeiko = loggp::presets::meiko_cs2(10);

TEST(WorstCase, SingleMessageSameAsStandard) {
  const auto pat = pattern::single_message(2, Bytes{112});
  const CommTrace std_trace = CommSimulator{kMeiko}.run(pat);
  const CommTrace wc_trace = WorstCaseSimulator{kMeiko}.run(pat);
  EXPECT_EQ(validate_trace(wc_trace, pat), std::nullopt);
  EXPECT_DOUBLE_EQ(wc_trace.makespan().us(), std_trace.makespan().us());
}

TEST(WorstCase, ReceivesPrecedeSendsPerProcessor) {
  const auto pat = pattern::paper_fig3();
  const CommTrace trace = WorstCaseSimulator{kMeiko}.run(pat);
  EXPECT_EQ(validate_trace(trace, pat), std::nullopt);
  for (int p = 0; p < pat.procs(); ++p) {
    const auto ops = trace.ops_of(p);
    bool seen_send = false;
    for (const auto& op : ops) {
      if (op.kind == loggp::OpKind::kSend) {
        seen_send = true;
      } else {
        EXPECT_FALSE(seen_send)
            << "P" << p << " received after sending in the worst-case run";
      }
    }
  }
}

TEST(WorstCase, PaperFig5SlowerThanFig4) {
  const auto pat = pattern::paper_fig3();
  const Time std_t = CommSimulator{kMeiko}.run(pat).makespan();
  const Time wc_t = WorstCaseSimulator{kMeiko}.run(pat).makespan();
  EXPECT_GT(wc_t.us(), std_t.us());
}

TEST(WorstCase, ChainPatternFullySequentializes) {
  // 0 -> 1 -> 2: under the worst-case rule P1 may only send after its
  // receive completes, so the makespan is two full point-to-point times
  // plus the recv->send turnaround.
  pattern::CommPattern pat{3};
  pat.add(0, 1, Bytes{1});
  pat.add(1, 2, Bytes{1});
  const CommTrace trace = WorstCaseSimulator{kMeiko}.run(pat);
  EXPECT_EQ(validate_trace(trace, pat), std::nullopt);
  // recv at P1: [11, 13); next send >= 11 + max(o,g) = 24; arrival 35;
  // recv at P2: [35, 37).
  EXPECT_DOUBLE_EQ(trace.makespan().us(), 37.0);
  const auto ops1 = trace.ops_of(1);
  ASSERT_EQ(ops1.size(), 2u);
  EXPECT_EQ(ops1[0].kind, loggp::OpKind::kRecv);
  EXPECT_DOUBLE_EQ(ops1[1].start.us(), 24.0);
}

TEST(WorstCase, CyclicPatternTerminatesViaDeadlockBreak) {
  const auto pat = pattern::ring(4, Bytes{64});
  ASSERT_TRUE(pat.has_processor_cycle());
  const CommTrace trace = WorstCaseSimulator{kMeiko}.run(pat);
  const auto verdict = validate_trace(trace, pat);
  EXPECT_EQ(verdict, std::nullopt) << *verdict;
  EXPECT_EQ(trace.send_count(), 4u);
  EXPECT_EQ(trace.recv_count(), 4u);
}

TEST(WorstCase, AllToAllTerminatesAndIsValid) {
  const auto pat = pattern::all_to_all(6, Bytes{50});
  const auto params = loggp::presets::meiko_cs2(6);
  const CommTrace trace = WorstCaseSimulator{params}.run(pat);
  const auto verdict = validate_trace(trace, pat);
  EXPECT_EQ(verdict, std::nullopt) << *verdict;
  EXPECT_EQ(trace.send_count(), 30u);
}

TEST(WorstCase, ReadyTimesHonored) {
  const auto pat = pattern::single_message(2, Bytes{1});
  const std::vector<Time> ready{Time{50.0}, Time{0.0}};
  const CommTrace trace = WorstCaseSimulator{kMeiko}.run(pat, ready);
  EXPECT_EQ(validate_trace(trace, pat, ready), std::nullopt);
  EXPECT_DOUBLE_EQ(trace.ops_of(0)[0].start.us(), 50.0);
}

TEST(WorstCase, DeterministicForFixedSeed) {
  const auto pat = pattern::all_to_all(5, Bytes{20});
  const auto params = loggp::presets::meiko_cs2(5);
  WorstCaseOptions opts;
  opts.seed = 17;
  const CommTrace a = WorstCaseSimulator{params, opts}.run(pat);
  const CommTrace b = WorstCaseSimulator{params, opts}.run(pat);
  ASSERT_EQ(a.ops().size(), b.ops().size());
  for (std::size_t i = 0; i < a.ops().size(); ++i) {
    EXPECT_DOUBLE_EQ(a.ops()[i].start.us(), b.ops()[i].start.us());
  }
}

class WorstCasePropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WorstCasePropertyTest, TraceValidOnRandomDagPatterns) {
  util::Rng rng{GetParam()};
  const int procs = static_cast<int>(2 + rng.below(9));
  const auto pat = pattern::random_dag_pattern(rng, procs, 1 + rng.below(50),
                                               Bytes{1}, Bytes{1500});
  const auto params = loggp::presets::meiko_cs2(procs);
  const CommTrace trace = WorstCaseSimulator{params}.run(pat);
  const auto verdict = validate_trace(trace, pat);
  EXPECT_EQ(verdict, std::nullopt) << *verdict;
}

TEST_P(WorstCasePropertyTest, OverestimatesStandardOnDagPatterns) {
  // The whole point of the Section-4.2 algorithm: an upper bound on the
  // communication time of the standard schedule.
  util::Rng rng{GetParam() ^ 0x777};
  const int procs = static_cast<int>(3 + rng.below(8));
  const auto pat = pattern::random_dag_pattern(rng, procs, 1 + rng.below(40),
                                               Bytes{1}, Bytes{1000});
  const auto params = loggp::presets::meiko_cs2(procs);
  const Time std_t = CommSimulator{params}.run(pat).makespan();
  const Time wc_t = WorstCaseSimulator{params}.run(pat).makespan();
  EXPECT_GE(wc_t.us() + 1e-9, std_t.us());
}

TEST_P(WorstCasePropertyTest, ValidOnRandomCyclicPatterns) {
  util::Rng rng{GetParam() ^ 0xfeed};
  const int procs = static_cast<int>(2 + rng.below(7));
  const auto pat = pattern::random_pattern(rng, procs, 1 + rng.below(40),
                                           Bytes{1}, Bytes{500});
  const auto params = loggp::presets::meiko_cs2(procs);
  const CommTrace trace = WorstCaseSimulator{params}.run(pat);
  const auto verdict = validate_trace(trace, pat);
  EXPECT_EQ(verdict, std::nullopt) << *verdict;
}

INSTANTIATE_TEST_SUITE_P(Seeds, WorstCasePropertyTest,
                         ::testing::Range<std::uint64_t>(1, 26));

// --- differential oracle -----------------------------------------------------
// WorstCaseSimulator::run_into is event-driven: a round touches only the
// processors it sends from and drains.  The round loop below is the one it
// replaced, copied unchanged as the specification (only `blocked` moved
// from the scratch into a local, and the two `stats` lines are new).  Every
// round scans all P processors to collect the senders, to collect the
// deadlock-break candidates and to drain every inbox.  The oracle asserts
// that both produce the same OpRecord sequence, field for field.

struct RoundStats {
  std::size_t deadlock_rounds = 0;
  std::size_t max_senders = 0;
};

CommTrace round_scan_reference(const pattern::CommPattern& pattern,
                               const std::vector<Time>& ready,
                               const loggp::Params& params_,
                               const WorstCaseOptions& opts_,
                               RoundStats& stats) {
  CommSimScratch s;
  std::vector<std::uint32_t> blocked;
  CommTrace sink{pattern.procs(), params_};
  const auto n = static_cast<std::size_t>(pattern.procs());

  s.prepare(pattern, ready);
  s.net_delay.clear();
  if (opts_.net != nullptr && !opts_.net->is_flat()) {
    opts_.net->step_delays(pattern, params_, /*worst_case=*/true,
                           s.net_delay);
  }
  const bool has_net_delay = !s.net_delay.empty();
  util::Rng rng{opts_.seed};
  const auto& msgs = pattern.messages();
  std::size_t unsent = s.network_messages();
  const Time after_recv = max(params_.o, params_.g);

  auto has_sends = [&](std::size_t p) {
    return s.send_off[p] + s.send_cursor[p] < s.send_off[p + 1];
  };

  auto send_one = [&](std::size_t p) {
    const std::uint32_t msg_index =
        s.send_flat[s.send_off[p] + s.send_cursor[p]++];
    const auto& msg = msgs[msg_index];
    const Time start = s.floor_next[p];
    OpRecord op;
    op.proc = static_cast<ProcId>(p);
    op.kind = loggp::OpKind::kSend;
    op.start = start;
    op.cpu_end = start + params_.o;
    op.port_end = start + loggp::send_occupancy(msg.bytes, params_);
    op.peer = msg.dst;
    op.bytes = msg.bytes;
    op.msg_index = msg_index;
    s.floor_next[p] = max(start + params_.g, op.port_end);
    s.ctime[p] = op.cpu_end;
    sink.record(op);
    Time arrival = loggp::arrival_time(start, msg.bytes, params_);
    if (has_net_delay) arrival += s.net_delay[msg_index];
    s.inbox_push(static_cast<std::size_t>(msg.dst), arrival, msg_index);
    --unsent;
  };

  auto drain_inbox = [&](std::size_t p) {
    while (!s.inbox_empty(p)) {
      const auto entry = s.inbox_pop(p);
      const auto& rm = msgs[entry.msg];
      const Time start = max(s.floor_next[p], entry.arrival);
      OpRecord op;
      op.proc = static_cast<ProcId>(p);
      op.kind = loggp::OpKind::kRecv;
      op.start = start;
      op.cpu_end = start + params_.o;
      op.port_end = op.cpu_end;
      op.peer = rm.src;
      op.bytes = rm.bytes;
      op.msg_index = entry.msg;
      s.floor_next[p] = start + after_recv;
      s.ctime[p] = op.cpu_end;
      sink.record(op);
      ++s.received[p];
    }
  };

  while (unsent > 0) {
    // Part 1: every processor that has completed all its receives sends
    // all of its messages.
    s.senders.clear();
    for (std::size_t p = 0; p < n; ++p) {
      if (has_sends(p) && s.received[p] == s.recv_count[p]) {
        s.senders.push_back(static_cast<std::uint32_t>(p));
      }
    }
    stats.max_senders = std::max(stats.max_senders, s.senders.size());
    if (s.senders.empty()) {
      ++stats.deadlock_rounds;
      // Deadlock: a cycle of processors each waiting to receive first.
      // Break it by forcing a random processor with pending sends to
      // transmit one message (paper Section 4.2).
      blocked.clear();
      for (std::size_t p = 0; p < n; ++p) {
        if (has_sends(p)) blocked.push_back(static_cast<std::uint32_t>(p));
      }
      assert(!blocked.empty());
      const std::size_t p =
          blocked[rng.below(static_cast<std::uint64_t>(blocked.size()))];
      send_one(p);
    } else {
      for (const std::uint32_t p : s.senders) {
        while (has_sends(p)) send_one(p);
      }
    }
    // Part 2: destinations perform the receives of everything in flight.
    for (std::size_t p = 0; p < n; ++p) drain_inbox(p);
  }
  // Messages sent in the final iteration were drained by its part 2, but a
  // deadlock-break send may leave residues; sweep once more.
  for (std::size_t p = 0; p < n; ++p) drain_inbox(p);
  return sink;
}

// Reports the first differing op, field by field; one failure per trace.
void expect_same_ops(const CommTrace& want, const CommTrace& got,
                     const std::string& label) {
  ASSERT_EQ(got.ops().size(), want.ops().size()) << label;
  for (std::size_t i = 0; i < want.ops().size(); ++i) {
    const OpRecord& w = want.ops()[i];
    const OpRecord& g = got.ops()[i];
    const bool same = g.proc == w.proc && g.kind == w.kind &&
                      g.start == w.start && g.cpu_end == w.cpu_end &&
                      g.port_end == w.port_end && g.peer == w.peer &&
                      g.bytes == w.bytes && g.msg_index == w.msg_index;
    ASSERT_TRUE(same) << label << ": op " << i << " differs: proc "
                      << g.proc << " vs " << w.proc << ", start "
                      << g.start.us() << " vs " << w.start.us() << ", peer "
                      << g.peer << " vs " << w.peer << ", msg "
                      << g.msg_index << " vs " << w.msg_index;
  }
}

enum class Family { kRing, kHalo2D, kAllgather, kAllToAll, kRandomSelf };

std::string family_name(Family f) {
  switch (f) {
    case Family::kRing: return "ring";
    case Family::kHalo2D: return "halo2d";
    case Family::kAllgather: return "allgather";
    case Family::kAllToAll: return "all_to_all";
    case Family::kRandomSelf: return "random_self";
  }
  return "?";
}

/// The processor counts each family is checked at, 2 up to 4096.
std::vector<int> family_procs(Family f) {
  switch (f) {
    case Family::kRing: return {2, 3, 31, 512, 4096};
    case Family::kHalo2D: return {4, 9, 64, 1024, 4096};
    case Family::kAllgather: return {2, 5, 64, 1024};
    case Family::kAllToAll: return {2, 3, 8, 24};
    case Family::kRandomSelf: return {2, 13, 200, 1000, 4096};
  }
  return {};
}

/// The family's communication steps at `procs` (every round, for the
/// allgather).  Bytes are the builder's own, uniform per step.
std::vector<pattern::CommPattern> family_steps(Family f, int procs,
                                               util::Rng& rng) {
  std::vector<pattern::CommPattern> steps;
  switch (f) {
    case Family::kRing:
      steps.push_back(pattern::ring(procs, Bytes{96}));
      break;
    case Family::kHalo2D: {
      stencil::StencilConfig cfg;
      cfg.partition = stencil::Partition::kTiles2D;
      cfg.procs = procs;
      cfg.n = 16 * static_cast<int>(std::lround(std::sqrt(procs)));
      steps.push_back(stencil::halo_pattern(cfg));
      break;
    }
    case Family::kAllgather: {
      const auto program = collective::allgather_doubling(procs, Bytes{256});
      for (std::size_t i = 0; i < program.size(); ++i) {
        if (const auto* comm = std::get_if<CommStep>(&program.step(i))) {
          steps.push_back(comm->pattern);
        }
      }
      break;
    }
    case Family::kAllToAll:
      steps.push_back(pattern::all_to_all(procs, Bytes{50}));
      break;
    case Family::kRandomSelf: {
      // Sparse enough that many processors have nothing to receive, so
      // the first round is wide; self-messages never reach the network.
      auto pat = pattern::random_pattern(
          rng, procs, static_cast<std::size_t>(procs) * 3 / 2 + 3, Bytes{1},
          Bytes{2048});
      for (int i = 0; i < procs / 8 + 1; ++i) {
        const auto p = static_cast<ProcId>(
            rng.below(static_cast<std::uint64_t>(procs)));
        pat.add(p, p, Bytes{64});
      }
      steps.push_back(std::move(pat));
      break;
    }
  }
  return steps;
}

pattern::CommPattern with_mixed_bytes(const pattern::CommPattern& pat,
                                      util::Rng& rng) {
  pattern::CommPattern out{pat.procs()};
  for (const auto& m : pat.messages()) {
    out.add(m.src, m.dst, Bytes{1 + rng.below(4096)}, m.tag);
  }
  return out;
}

enum class Net { kFlat, kTorus, kFatTree };

std::string net_name(Net net) {
  switch (net) {
    case Net::kFlat: return "flat";
    case Net::kTorus: return "torus";
    case Net::kFatTree: return "fattree";
  }
  return "?";
}

/// nullptr for flat; otherwise a torus whose grid is exactly `procs`, or
/// a two-level fat-tree of 8-port leaves with 3 us per hop.
std::unique_ptr<network::NetworkModel> make_net(Net net, int procs) {
  switch (net) {
    case Net::kFlat:
      return nullptr;
    case Net::kTorus: {
      int rows = static_cast<int>(std::sqrt(procs));
      while (procs % rows != 0) --rows;
      return network::NetworkModel::create(
          network::TopologySpec::torus(rows, procs / rows));
    }
    case Net::kFatTree: {
      auto spec = network::TopologySpec::fat_tree({8, (procs + 7) / 8}, {1, 2});
      spec.per_hop = Time{3.0};
      return network::NetworkModel::create(spec);
    }
  }
  return nullptr;
}

class WorstCaseOracle : public ::testing::TestWithParam<Family> {};

TEST_P(WorstCaseOracle, EventDrivenLoopMatchesRoundScan) {
  const Family family = GetParam();
  RoundStats stats;
  std::size_t runs = 0;
  for (const int procs : family_procs(family)) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      util::Rng rng{seed * 1000003 + static_cast<std::uint64_t>(procs)};
      const auto steps = family_steps(family, procs, rng);
      const auto params = loggp::presets::meiko_cs2(procs);
      // Every (network, bytes) pair below 1000 processors.  From 1000 up,
      // one pair per seed (flat mixed, torus uniform, fat-tree mixed)
      // keeps the O(P)-per-round reference cheap.
      for (const Net net : {Net::kFlat, Net::kTorus, Net::kFatTree}) {
        for (const bool mixed : {false, true}) {
          const auto combo = static_cast<std::uint64_t>(net) * 2 + mixed;
          if (procs >= 1000 && combo != (seed - 1) * 2 + seed % 2) continue;
          const auto model = make_net(net, procs);
          WorstCaseOptions opts;
          opts.seed = seed * 7 + combo;
          opts.net = model.get();
          const WorstCaseSimulator sim{params, opts};
          std::vector<Time> ready;
          for (int p = 0; p < procs; ++p) {
            ready.push_back(Time{rng.uniform(0.0, 40.0)});
          }
          for (std::size_t r = 0; r < steps.size(); ++r) {
            const auto pat = mixed ? with_mixed_bytes(steps[r], rng) : steps[r];
            const std::string label =
                family_name(family) + " P=" + std::to_string(procs) +
                " seed=" + std::to_string(seed) + " " + net_name(net) +
                (mixed ? " mixed" : " uniform") + " step " +
                std::to_string(r);
            const CommTrace want =
                round_scan_reference(pat, ready, params, opts, stats);
            const CommTrace got = sim.run(pat, ready);
            expect_same_ops(want, got, label);
            // The FinishOnlySink instantiation the program simulator uses.
            CommSimScratch scratch;
            FinishOnlySink sink;
            sink.reset(procs);
            sim.run_into(pat, ready, sink, scratch);
            EXPECT_EQ(sink.finish_times(), want.finish_times()) << label;
            EXPECT_EQ(sink.op_count(), want.ops().size()) << label;
            ++runs;
            // Allgather rounds enter at the clocks the last one left.
            ready = want.finish_times();
          }
        }
      }
    }
  }
  EXPECT_GT(runs, 0u);
  // Every family is cyclic, so each one exercises the deadlock break.
  // The sparse random steps also open with a wide round: every processor
  // with sends and nothing to receive sends at once (~700 at P = 4096).
  EXPECT_GT(stats.deadlock_rounds, 0u);
  if (family == Family::kRandomSelf) {
    EXPECT_GE(stats.max_senders, 256u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, WorstCaseOracle,
    ::testing::Values(Family::kRing, Family::kHalo2D, Family::kAllgather,
                      Family::kAllToAll, Family::kRandomSelf),
    [](const ::testing::TestParamInfo<Family>& family) {
      return family_name(family.param);
    });

}  // namespace
}  // namespace logsim::core
