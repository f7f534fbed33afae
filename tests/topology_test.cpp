// Tests for the topology-aware network backends (ISSUE 10 tentpole):
// TopologySpec structure/routing/validation, the io text format, the
// NetworkModel cost backends, and the bracket property -- per topology,
// the standard-schedule prediction and the worst-case prediction must
// bracket the packet-level DES makespan on contention-heavy patterns
// (hotspot incast, nearest-neighbour stencil), and a non-flat Testbed
// must measure no faster than the flat one.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <variant>
#include <vector>

#include "cannon/cannon.hpp"
#include "core/comm_sim.hpp"
#include "core/program_sim.hpp"
#include "core/worst_case.hpp"
#include "io/topology_io.hpp"
#include "loggp/params.hpp"
#include "machine/testbed.hpp"
#include "network/network_model.hpp"
#include "network/packet_net.hpp"
#include "pattern/builders.hpp"

namespace logsim {
namespace {

using network::NetworkModel;
using network::topology_kind_name;
using network::TopologySpec;

// --- TopologySpec structure ----------------------------------------------

TEST(TopologySpec, CapacityPerKind) {
  EXPECT_EQ(TopologySpec::flat().capacity(), 0);
  EXPECT_EQ(TopologySpec::mesh(3, 4).capacity(), 12);
  EXPECT_EQ(TopologySpec::torus(4, 4).capacity(), 16);
  EXPECT_EQ(TopologySpec::torus(4, 2, 2).capacity(), 16);
  EXPECT_EQ(TopologySpec::fat_tree({4, 4}, {1, 2}).capacity(), 16);
}

TEST(TopologySpec, ValidateMatchesShapeToProcs) {
  EXPECT_TRUE(TopologySpec::flat().validate(1000).ok());
  // Grids must match exactly (ids are coordinates)...
  EXPECT_TRUE(TopologySpec::mesh(3, 4).validate(12).ok());
  EXPECT_FALSE(TopologySpec::mesh(3, 4).validate(11).ok());
  EXPECT_FALSE(TopologySpec::mesh(3, 4).validate(13).ok());
  // ...fat-trees only need capacity >= procs.
  EXPECT_TRUE(TopologySpec::fat_tree({4, 4}, {1, 1}).validate(10).ok());
  EXPECT_FALSE(TopologySpec::fat_tree({4, 4}, {1, 1}).validate(17).ok());
}

TEST(TopologySpec, TorusHopsWrapAround) {
  const TopologySpec torus = TopologySpec::torus(4, 4);
  EXPECT_EQ(torus.hops(0, 0), 0);
  EXPECT_EQ(torus.hops(0, 3), 1);   // row wrap
  EXPECT_EQ(torus.hops(0, 12), 1);  // column wrap
  EXPECT_EQ(torus.hops(0, 15), 2);
  const TopologySpec mesh = TopologySpec::mesh(4, 4);
  EXPECT_EQ(mesh.hops(0, 3), 3);  // no wrap
  EXPECT_EQ(mesh.hops(0, 15), 6);
  const TopologySpec mesh34 = TopologySpec::mesh(3, 4);  // ids row-major
  EXPECT_EQ(mesh34.hops(0, 4), 1);   // one row down
  EXPECT_EQ(mesh34.hops(0, 11), 5);  // corner to corner: 2 + 3
  EXPECT_EQ(mesh34.hops(11, 0), 5);  // symmetric
  const TopologySpec t3 = TopologySpec::torus(2, 2, 2);
  EXPECT_EQ(t3.hops(0, 7), 3);  // one hop per dimension
}

TEST(TopologySpec, CannonRotationsAreSingleHopOnTorus) {
  // Every rotation message of Cannon's algorithm is nearest-neighbour on
  // the matching q x q torus.
  const auto program = cannon::build_cannon_program(
      cannon::CannonConfig{.n = 96, .block = 12, .q = 4});
  const TopologySpec torus = TopologySpec::torus(4, 4);
  std::size_t messages = 0;
  for (std::size_t s = 0; s < program.size(); ++s) {
    if (const auto* c = std::get_if<core::CommStep>(&program.step(s))) {
      for (const auto& m : c->pattern.messages()) {
        EXPECT_EQ(torus.hops(m.src, m.dst), 1);
        ++messages;
      }
    }
  }
  EXPECT_GT(messages, 0u);
}

TEST(TopologySpec, FatTreeHopsAreTwiceTheLcaLevel) {
  // down={4,4}: leaves 0..15 in groups of 4 under each bottom switch.
  const TopologySpec ft = TopologySpec::fat_tree({4, 4}, {1, 2});
  EXPECT_EQ(ft.hops(0, 0), 0);
  EXPECT_EQ(ft.hops(0, 3), 2);   // same bottom switch: up 1, down 1
  EXPECT_EQ(ft.hops(0, 4), 4);   // different bottom switch: via the root
  EXPECT_EQ(ft.hops(13, 2), 4);
}

TEST(TopologySpec, RouteLengthEqualsHops) {
  const TopologySpec specs[] = {
      TopologySpec::mesh(3, 4),
      TopologySpec::torus(4, 3),
      TopologySpec::torus(2, 3, 2),
      TopologySpec::fat_tree({3, 4}, {1, 2}),
  };
  for (const TopologySpec& spec : specs) {
    const int procs = static_cast<int>(spec.capacity());
    std::vector<int> path;
    for (int s = 0; s < procs; ++s) {
      for (int d = 0; d < procs; ++d) {
        path.clear();
        spec.append_route(s, d, path);
        EXPECT_EQ(path.size(), static_cast<std::size_t>(spec.hops(s, d)))
            << topology_kind_name(spec.kind) << " " << s << "->" << d;
        if (s != d) {
          ASSERT_FALSE(path.empty());
          EXPECT_EQ(path.back(), d);
        }
      }
    }
  }
}

TEST(TopologySpec, FlatRouteIsOneCrossbarHop) {
  const TopologySpec flat = TopologySpec::flat();
  std::vector<int> path;
  flat.append_route(0, 5, path);
  EXPECT_EQ(path, (std::vector<int>{5}));
  path.clear();
  flat.append_route(3, 3, path);
  EXPECT_TRUE(path.empty());
}

TEST(TopologySpec, FatTreeSwitchIdsFollowProcessors) {
  // 16 leaves, 4 bottom switches, 2 root replicas: 22 nodes at procs=16.
  const TopologySpec ft = TopologySpec::fat_tree({4, 4}, {1, 2});
  EXPECT_EQ(ft.node_count(16), 16 + 4 + 2);
  std::vector<int> path;
  ft.append_route(0, 4, path);
  ASSERT_EQ(path.size(), 4u);
  EXPECT_GE(path[0], 16);  // up: bottom switch
  EXPECT_GE(path[1], 16);  // up: root replica
  EXPECT_GE(path[2], 16);  // down: bottom switch
  EXPECT_EQ(path[3], 4);
}

TEST(TopologySpec, HashAndEqualityDistinguishShapes) {
  const TopologySpec a = TopologySpec::torus(4, 4);
  TopologySpec b = TopologySpec::torus(4, 4);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.hash(), b.hash());
  b.per_hop = Time{2.0};
  EXPECT_NE(a, b);
  EXPECT_NE(a.hash(), b.hash());
  EXPECT_NE(TopologySpec::torus(4, 4).hash(), TopologySpec::mesh(4, 4).hash());
  EXPECT_NE(TopologySpec::fat_tree({4, 4}, {1, 1}).hash(),
            TopologySpec::fat_tree({4, 4}, {1, 2}).hash());
  EXPECT_NE(TopologySpec::flat().hash(), TopologySpec::torus(1, 1).hash());
}

// --- io text format -------------------------------------------------------

TEST(TopologyIo, ParsesEveryKind) {
  const auto flat = io::parse_topology("flat");
  ASSERT_TRUE(flat.ok());
  EXPECT_TRUE(flat->is_flat());

  const auto mesh = io::parse_topology("mesh:3x4");
  ASSERT_TRUE(mesh.ok());
  EXPECT_EQ(*mesh, TopologySpec::mesh(3, 4));

  const auto torus = io::parse_topology("torus:4x4");
  ASSERT_TRUE(torus.ok());
  EXPECT_EQ(*torus, TopologySpec::torus(4, 4));

  const auto torus3 = io::parse_topology("torus:4x2x2");
  ASSERT_TRUE(torus3.ok());
  EXPECT_EQ(*torus3, TopologySpec::torus(4, 2, 2));

  const auto ft = io::parse_topology("fattree:4,4/1,2");
  ASSERT_TRUE(ft.ok());
  EXPECT_EQ(*ft, TopologySpec::fat_tree({4, 4}, {1, 2}));
}

TEST(TopologyIo, OptionsOverrideCostKnobs) {
  const auto spec = io::parse_topology("torus:4x4;hop=2.5;linkG=0.05");
  ASSERT_TRUE(spec.ok()) << spec.status().to_string();
  EXPECT_DOUBLE_EQ(spec->per_hop.us(), 2.5);
  EXPECT_DOUBLE_EQ(spec->link_G, 0.05);
}

TEST(TopologyIo, ToTextRoundTripsExactly) {
  TopologySpec custom = TopologySpec::fat_tree({4, 4}, {1, 2});
  custom.per_hop = Time{2.5};
  custom.link_G = 0.05;
  const TopologySpec specs[] = {
      TopologySpec::flat(),          TopologySpec::mesh(3, 4),
      TopologySpec::torus(4, 4),     TopologySpec::torus(4, 2, 2),
      TopologySpec::fat_tree({8}, {1}), custom,
  };
  for (const TopologySpec& spec : specs) {
    const std::string text = io::to_text(spec);
    const auto back = io::parse_topology(text);
    ASSERT_TRUE(back.ok()) << text << ": " << back.status().to_string();
    EXPECT_EQ(*back, spec) << text;
  }
}

TEST(TopologyIo, MalformedSpecsAreInvalidInput) {
  const char* bad[] = {
      "",            "hypercube:4",   "mesh",        "mesh:0x4",
      "mesh:4",      "mesh:4x-2",     "torus:axb",   "torus:2x2x2x2",
      "fattree:",    "fattree:4,0/1", "fattree:4/1,2",
      "torus:4x4;hop=abc",            "torus:4x4;volts=9",
      "flat;linkG=-1",
  };
  for (const char* text : bad) {
    const auto spec = io::parse_topology(text);
    EXPECT_FALSE(spec.ok()) << "accepted: " << text;
    if (!spec.ok()) {
      EXPECT_EQ(spec.status().code(), ErrorCode::kInvalidInput) << text;
    }
  }
}

// --- NetworkModel backends ------------------------------------------------

TEST(NetworkModelTest, FactoryNeverNullAndFlatIsFlat) {
  const auto flat = NetworkModel::create(TopologySpec::flat());
  ASSERT_NE(flat, nullptr);
  EXPECT_TRUE(flat->is_flat());
  EXPECT_STREQ(flat->name(), "flat-loggp");
  const auto torus = NetworkModel::create(TopologySpec::torus(4, 4));
  ASSERT_NE(torus, nullptr);
  EXPECT_FALSE(torus->is_flat());
  const auto ft = NetworkModel::create(TopologySpec::fat_tree({4, 4}, {1, 2}));
  ASSERT_NE(ft, nullptr);
  EXPECT_STREQ(ft->name(), "fattree");
}

TEST(NetworkModelTest, LatencyChargesExtraHopsOnly) {
  TopologySpec spec = TopologySpec::torus(4, 4);
  spec.per_hop = Time{2.0};
  const auto net = NetworkModel::create(spec);
  // Neighbour: 1 hop, no extra.  Corner: 2 hops, one extra per_hop.
  EXPECT_DOUBLE_EQ(net->latency(0, 1, Bytes{100}).us(), 0.0);
  EXPECT_DOUBLE_EQ(net->latency(0, 5, Bytes{100}).us(), 2.0);
  EXPECT_DOUBLE_EQ(net->latency(3, 3, Bytes{100}).us(), 0.0);
}

TEST(NetworkModelTest, ScatterSlowsFromFlatToTorusToMesh) {
  // A flat broadcast from processor 0 pays more hops on a torus than on
  // the crossbar, and more again on the mesh, which has no wraparound.
  const auto pat = pattern::flat_broadcast(16, Bytes{112});
  const loggp::Params params = loggp::presets::meiko_cs2(16);
  auto makespan = [&](TopologySpec spec) {
    spec.per_hop = Time{4.0};
    const auto net = NetworkModel::create(spec);
    core::CommSimOptions opts;
    opts.net = net.get();
    return core::CommSimulator{params, opts}.run(pat).makespan().us();
  };
  const double flat = makespan(TopologySpec::flat());
  const double torus = makespan(TopologySpec::torus(4, 4));
  const double mesh = makespan(TopologySpec::mesh(4, 4));
  EXPECT_LE(flat, torus);
  EXPECT_LE(torus, mesh);
}

TEST(NetworkModelTest, StepDelaysWorstCaseDominatesStandard) {
  const loggp::Params params = loggp::presets::meiko_cs2(16);
  const auto pat = pattern::gather(16, Bytes{2048});
  for (const TopologySpec& spec :
       {TopologySpec::torus(4, 4), TopologySpec::fat_tree({4, 4}, {1, 2})}) {
    const auto net = NetworkModel::create(spec);
    std::vector<Time> standard;
    std::vector<Time> worst;
    net->step_delays(pat, params, /*worst_case=*/false, standard);
    net->step_delays(pat, params, /*worst_case=*/true, worst);
    ASSERT_EQ(standard.size(), pat.size());
    ASSERT_EQ(worst.size(), pat.size());
    bool any_contention = false;
    for (std::size_t i = 0; i < pat.size(); ++i) {
      EXPECT_GE(standard[i].us(), 0.0);
      EXPECT_LE(standard[i].us(), worst[i].us());
      if (worst[i].us() > standard[i].us()) any_contention = true;
    }
    // A 15-into-1 incast must show bandwidth sharing somewhere.
    EXPECT_TRUE(any_contention) << topology_kind_name(spec.kind);
  }
}

TEST(NetworkModelTest, SelfMessagesCostNothing) {
  const auto net = NetworkModel::create(TopologySpec::torus(4, 4));
  pattern::CommPattern pat{16};
  pat.add(5, 5, Bytes{65536});
  std::vector<Time> delays;
  net->step_delays(pat, loggp::presets::meiko_cs2(16), false, delays);
  ASSERT_EQ(delays.size(), 1u);
  EXPECT_DOUBLE_EQ(delays[0].us(), 0.0);
}

TEST(NetworkModelTest, LinkGOverrideScalesSharingTerm) {
  // Same incast, link_G doubled: the sharing term doubles, so the delay
  // of every contended message strictly grows.
  const loggp::Params params = loggp::presets::meiko_cs2(16);
  const auto pat = pattern::gather(16, Bytes{4096});
  TopologySpec base = TopologySpec::torus(4, 4);
  base.link_G = params.G;
  TopologySpec doubled = base;
  doubled.link_G = 2.0 * params.G;
  std::vector<Time> d1;
  std::vector<Time> d2;
  NetworkModel::create(base)->step_delays(pat, params, false, d1);
  NetworkModel::create(doubled)->step_delays(pat, params, false, d2);
  bool grew = false;
  for (std::size_t i = 0; i < pat.size(); ++i) {
    EXPECT_LE(d1[i].us(), d2[i].us());
    if (d2[i].us() > d1[i].us()) grew = true;
  }
  EXPECT_TRUE(grew);
}

// --- the bracket property -------------------------------------------------
//
// Per topology, the standard-schedule prediction (optimistic sharing) and
// the worst-case prediction (full serialization) should bracket the
// packet-level DES makespan on patterns whose cost is contention-
// dominated.  The DES is configured to agree with the LogGP preset where
// the models overlap: o = software_overhead, G = us_per_byte, and the
// same per-hop router latency.

struct BracketTimes {
  double standard = 0.0;
  double packet = 0.0;
  double worst = 0.0;
};

BracketTimes bracket(const pattern::CommPattern& pat, TopologySpec spec) {
  const loggp::Params params =
      loggp::presets::meiko_cs2(static_cast<int>(pat.procs()));
  const auto net = NetworkModel::create(spec);

  core::CommSimOptions sopts;
  sopts.net = net.get();
  const double standard =
      core::CommSimulator{params, sopts}.run(pat).makespan().us();

  core::WorstCaseOptions wopts;
  wopts.net = net.get();
  const double worst =
      core::WorstCaseSimulator{params, wopts}.run(pat).makespan().us();

  network::PacketNetConfig cfg;
  cfg.packet_bytes = 512;
  cfg.software_overhead = params.o;
  // Same G_link convention as NetworkModel::step_delays: a link_G override
  // is the wire's serialization rate, otherwise the machine's G.
  cfg.us_per_byte = spec.link_G > 0 ? spec.link_G : params.G;
  cfg.topology = spec;
  const double packet = network::PacketNetwork{cfg}.run(pat).makespan.us();

  return {standard, packet, worst};
}

pattern::CommPattern hotspot_incast(int procs, Bytes bytes) {
  pattern::CommPattern pat{procs};
  for (int p = 1; p < procs; ++p) pat.add(p, 0, bytes);
  return pat;
}

/// 5-point stencil halo exchange on the rows x cols grid (torus wrap).
pattern::CommPattern stencil_exchange(int rows, int cols, Bytes bytes) {
  pattern::CommPattern pat{rows * cols};
  auto id = [&](int r, int c) {
    return ((r + rows) % rows) * cols + (c + cols) % cols;
  };
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      pat.add(id(r, c), id(r - 1, c), bytes);
      pat.add(id(r, c), id(r + 1, c), bytes);
      pat.add(id(r, c), id(r, c - 1), bytes);
      pat.add(id(r, c), id(r, c + 1), bytes);
    }
  }
  return pat;
}

TEST(TopologyBracket, HotspotOnTorus) {
  const auto t = bracket(hotspot_incast(16, Bytes{4096}),
                         TopologySpec::torus(4, 4));
  EXPECT_LE(t.standard, t.packet);
  EXPECT_LE(t.packet, t.worst);
}

TEST(TopologyBracket, HotspotOnFatTree) {
  const auto t = bracket(hotspot_incast(16, Bytes{4096}),
                         TopologySpec::fat_tree({4, 4}, {1, 2}));
  EXPECT_LE(t.standard, t.packet);
  EXPECT_LE(t.packet, t.worst);
}

// Nearest-neighbour stencils have little link sharing, so the DES only
// rises above the (software-cost-inclusive) standard prediction when the
// wire is the bottleneck: link_G = 2 x the machine's G puts the exchange
// in that serialization-dominated regime.

TEST(TopologyBracket, StencilOnTorus) {
  TopologySpec spec = TopologySpec::torus(4, 4);
  spec.link_G = 0.06;
  const auto t = bracket(stencil_exchange(4, 4, Bytes{4096}), spec);
  EXPECT_LE(t.standard, t.packet);
  EXPECT_LE(t.packet, t.worst);
}

TEST(TopologyBracket, StencilOnFatTree) {
  TopologySpec spec = TopologySpec::fat_tree({4, 4}, {1, 2});
  spec.link_G = 0.06;
  const auto t = bracket(stencil_exchange(4, 4, Bytes{4096}), spec);
  EXPECT_LE(t.standard, t.packet);
  EXPECT_LE(t.packet, t.worst);
}

TEST(TopologyBracket, FlatModelMatchesBareSimulatorExactly) {
  // The FlatLogGP backend must not perturb the simulation at all: same
  // makespan bit-for-bit as running with no NetworkModel.
  const auto pat = pattern::all_to_all(8, Bytes{1024});
  const loggp::Params params = loggp::presets::meiko_cs2(8);
  const network::FlatLogGP flat;
  core::CommSimOptions opts;
  opts.net = &flat;
  const auto with = core::CommSimulator{params, opts}.run(pat);
  const auto without = core::CommSimulator{params}.run(pat);
  EXPECT_DOUBLE_EQ(with.makespan().us(), without.makespan().us());
}

// --- program-level wiring -------------------------------------------------

/// One compute step (uniform work) followed by one comm step.
core::StepProgram two_step_program(int procs, core::CostTable& costs,
                                   pattern::CommPattern comm, Time op_cost) {
  core::StepProgram program{procs};
  const core::OpId op = costs.register_op("work");
  costs.set_cost(op, 16, op_cost);
  core::ComputeStep comp;
  for (int p = 0; p < procs; ++p) {
    comp.items.push_back(core::WorkItem{p, op, 16, {}});
  }
  program.add_compute(std::move(comp));
  program.add_comm(std::move(comm));
  return program;
}

TEST(TopologyProgram, NonFlatNetSlowsCommOnly) {
  // The topology adds communication delay but must leave the computation
  // estimate untouched.
  core::CostTable costs;
  const core::StepProgram program = two_step_program(
      16, costs, hotspot_incast(16, Bytes{8192}), Time{100.0});

  const loggp::Params params = loggp::presets::meiko_cs2(16);
  const core::ProgramResult flat =
      core::ProgramSimulator{params}.run(program, costs);

  const auto net = NetworkModel::create(TopologySpec::torus(4, 4));
  core::ProgramSimOptions opts;
  opts.net = net.get();
  const core::ProgramResult shaped =
      core::ProgramSimulator{params, opts}.run(program, costs);

  EXPECT_GT(shaped.total.us(), flat.total.us());
  ASSERT_EQ(shaped.comp.size(), flat.comp.size());
  for (std::size_t p = 0; p < flat.comp.size(); ++p) {
    EXPECT_DOUBLE_EQ(shaped.comp[p].us(), flat.comp[p].us());
  }
}

// --- testbed --------------------------------------------------------------

TEST(TopologyTestbed, NonFlatMeasuresNoFasterThanFlat) {
  core::CostTable costs;
  const core::StepProgram program = two_step_program(
      16, costs, hotspot_incast(16, Bytes{4096}), Time{50.0});

  machine::TestbedConfig flat_cfg = machine::TestbedConfig::meiko_cs2(16);
  machine::TestbedConfig torus_cfg = flat_cfg;
  torus_cfg.topology = network::TopologySpec::torus(4, 4);

  const auto flat = machine::Testbed{flat_cfg}.run(program, costs);
  const auto torus = machine::Testbed{torus_cfg}.run(program, costs);
  EXPECT_GE(torus.total_with_cache.us(), flat.total_with_cache.us());

  // And the non-flat run is deterministic.
  const auto again = machine::Testbed{torus_cfg}.run(program, costs);
  EXPECT_DOUBLE_EQ(again.total_with_cache.us(), torus.total_with_cache.us());
}

}  // namespace
}  // namespace logsim
