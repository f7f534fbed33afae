#include "machine/testbed.hpp"

#include <cassert>
#include <cmath>
#include <memory>

#include "core/comm_sim.hpp"
#include "network/packet_net.hpp"
#include "util/rng.hpp"

namespace logsim::machine {

TestbedConfig TestbedConfig::meiko_cs2(int procs) {
  TestbedConfig cfg;
  cfg.net = loggp::presets::meiko_cs2(procs);
  return cfg;
}

Time TestbedResult::comp_max() const {
  Time t = Time::zero();
  for (Time c : comp) t = max(t, c);
  return t;
}

Time TestbedResult::comm_max() const {
  Time t = Time::zero();
  for (Time c : comm) t = max(t, c);
  return t;
}

Time TestbedResult::stall_max() const {
  Time t = Time::zero();
  for (Time c : stall) t = max(t, c);
  return t;
}

Testbed::Testbed(TestbedConfig cfg) : cfg_(cfg) { assert(cfg_.net.valid()); }

TestbedResult Testbed::run(const core::StepProgram& program,
                           const core::CostTable& costs) const {
  const auto n = static_cast<std::size_t>(program.procs());
  TestbedResult r;
  r.proc_end.assign(n, Time::zero());
  r.comp.assign(n, Time::zero());
  r.comm.assign(n, Time::zero());
  r.stall.assign(n, Time::zero());
  std::vector<Time>& clock = r.proc_end;

  util::Rng rng{cfg_.seed};
  std::vector<CacheModel> caches(n, CacheModel{cfg_.cache});

  // Reused across comm steps: the Testbed only consumes finish times, so
  // it records into the cheap sink with a shared simulation scratch.
  core::CommSimScratch scratch;
  core::FinishOnlySink sink;
  const std::vector<Time> no_msg_ready;
  std::vector<Time> entry_clock;

  for (std::size_t step = 0; step < program.size(); ++step) {
    const auto& entry = program.step(step);
    if (const auto* cs = std::get_if<core::ComputeStep>(&entry)) {
      for (std::size_t i = 0; i < cs->items.size(); ++i) {
        const core::WorkItem& item = cs->items[i];
        const auto p = static_cast<std::size_t>(item.proc);
        const Time base = costs.cost(item.op, item.block_size) +
                          cfg_.iter_overhead;
        Time stall = Time::zero();
        if (cfg_.cache_enabled) {
          const Bytes bb{static_cast<std::uint64_t>(item.block_size) *
                         static_cast<std::uint64_t>(item.block_size) * 8};
          for (std::int64_t uid : cs->touched(i)) {
            stall += caches[p].access(uid, bb);
          }
        }
        clock[p] += base + stall;
        r.comp[p] += base;
        r.stall[p] += stall;
      }
    } else {
      const auto& pattern = std::get<core::CommStep>(entry).pattern;
      entry_clock.assign(clock.begin(), clock.end());

      // Self-messages: local memory copies, charged to the owner before it
      // engages the network; the fresh version invalidates the cache line.
      for (const auto& m : pattern.messages()) {
        if (m.src != m.dst) continue;
        const auto p = static_cast<std::size_t>(m.src);
        clock[p] += Time{static_cast<double>(m.bytes.count()) *
                         cfg_.local_copy_per_byte};
        if (cfg_.cache_enabled) caches[p].invalidate(m.tag);
      }

      if (pattern.size() > pattern.self_message_count()) {
        if (!cfg_.topology.is_flat()) {
          // Topology run: the packet-level DES routes every message over
          // the shared TopologySpec, serializing rivals through FIFO link
          // queues -- contention the flat LogGP replay cannot see.  The
          // half-normal latency jitter is then applied per processor on
          // top of the DES finish time (late only, like the flat path's
          // per-message hook; drawn in processor order for determinism).
          network::PacketNetConfig pn;
          pn.packet_bytes = cfg_.packet_bytes;
          pn.software_overhead = cfg_.net.o;
          // Same G_link convention as NetworkModel::step_delays: a spec
          // that overrides the per-link rate drives the DES wires too.
          pn.us_per_byte = cfg_.topology.link_G > 0 ? cfg_.topology.link_G
                                                    : cfg_.net.G;
          pn.topology = cfg_.topology;
          util::Rng jitter_rng{rng.next()};
          const network::PacketNetResult net_res =
              network::PacketNetwork{pn}.run(pattern, clock);
          for (std::size_t p = 0; p < n; ++p) {
            Time f = net_res.proc_finish[p];
            if (f > clock[p]) {
              f += Time{std::abs(jitter_rng.normal(
                            0.0, cfg_.latency_jitter_sd)) *
                        cfg_.net.L.us()};
              clock[p] = f;
            }
          }
        } else {
          core::CommSimOptions opts;
          opts.seed = rng.next();
          // Half-normal jitter on the latency: messages only arrive late,
          // never early (L is the model's expected arrival).
          auto jitter_rng = std::make_shared<util::Rng>(rng.next());
          const double sd = cfg_.latency_jitter_sd;
          const Time latency = cfg_.net.L;
          opts.extra_latency = [jitter_rng, sd, latency](std::size_t) {
            return Time{std::abs(jitter_rng->normal(0.0, sd)) * latency.us()};
          };
          const core::CommSimulator sim{cfg_.net, opts};
          sink.reset(program.procs());
          sim.run_into(pattern, clock, no_msg_ready, sink, scratch);
          const std::vector<Time>& finish = sink.finish_times();
          for (std::size_t p = 0; p < n; ++p) {
            if (finish[p] > Time::zero()) clock[p] = finish[p];
          }
        }
        if (cfg_.cache_enabled) {
          for (const auto& m : pattern.messages()) {
            if (m.src != m.dst) {
              caches[static_cast<std::size_t>(m.dst)].invalidate(m.tag);
            }
          }
        }
      }
      for (std::size_t p = 0; p < n; ++p) {
        r.comm[p] += clock[p] - entry_clock[p];
      }
    }
  }

  r.total_with_cache = Time::zero();
  r.total_without_cache = Time::zero();
  for (std::size_t p = 0; p < n; ++p) {
    r.total_with_cache = max(r.total_with_cache, clock[p]);
    r.total_without_cache = max(r.total_without_cache, clock[p] - r.stall[p]);
    r.cache_hits += caches[p].hits();
    r.cache_misses += caches[p].misses();
  }
  return r;
}

}  // namespace logsim::machine
