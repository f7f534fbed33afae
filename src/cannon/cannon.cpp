#include "cannon/cannon.hpp"

#include <cassert>

#include "ops/ge_ops.hpp"
#include "pattern/canonical.hpp"
#include "pattern/comm_pattern.hpp"

namespace logsim::cannon {

namespace {

/// Basic-block uid spaces for the three matrices (distinct so the cache
/// model sees A, B and C as different data).
std::int64_t a_uid(int i, int k, int nb) {
  return static_cast<std::int64_t>(i) * nb + k;
}
std::int64_t b_uid(int k, int j, int nb) {
  return static_cast<std::int64_t>(nb) * nb + static_cast<std::int64_t>(k) * nb + j;
}
std::int64_t c_uid(int i, int j, int nb) {
  return 2LL * nb * nb + static_cast<std::int64_t>(i) * nb + j;
}

}  // namespace

core::StepProgram build_cannon_program(const CannonConfig& cfg) {
  CannonScheduleInfo info;
  return build_cannon_program(cfg, info);
}

core::StepProgram build_cannon_program(const CannonConfig& cfg,
                                       CannonScheduleInfo& info) {
  assert(cfg.valid());
  const int q = cfg.q;
  const int s = cfg.tile();
  const int nb = cfg.grid();
  const Bytes sb = cfg.superblock_bytes();
  info = CannonScheduleInfo{};
  info.rounds = static_cast<std::size_t>(q);

  core::StepProgram program{cfg.procs()};

  auto add_message = [&](pattern::CommPattern& pat, ProcId src, ProcId dst,
                         std::int64_t tag) {
    if (src == dst) return;  // zero-hop rotation: data stays put
    pat.add(src, dst, sb, tag);
    ++info.network_messages;
    info.network_bytes += sb;
  };

  // --- initial skew: A row r rotated left r hops, B column c up c hops.
  // One hop per comm step keeps every transfer nearest-neighbour (the
  // torus has no longer links), so the skew takes q-1 steps.
  for (int hop = 0; hop < q - 1; ++hop) {
    pattern::CommPattern pat{cfg.procs()};
    for (int r = 0; r < q; ++r) {
      for (int c = 0; c < q; ++c) {
        // A superblock still travelling if its row index exceeds the hops
        // done so far; same for B's column index.
        if (r > hop) {
          add_message(pat, torus_proc(r, c, q),
                      torus_proc(r, (c - 1 + q) % q, q),
                      a_uid(r * s, ((c + hop) % q) * s, nb));
        }
        if (c > hop) {
          add_message(pat, torus_proc(r, c, q),
                      torus_proc((r - 1 + q) % q, c, q),
                      b_uid(((r + hop) % q) * s, c * s, nb));
        }
      }
    }
    if (!pat.empty()) {
      program.add_comm(std::move(pat));
      ++info.skew_steps;
    }
  }

  // --- q rounds of multiply + rotate ----------------------------------
  for (int t = 0; t < q; ++t) {
    core::ComputeStep step;
    for (int r = 0; r < q; ++r) {
      for (int c = 0; c < q; ++c) {
        const ProcId proc = torus_proc(r, c, q);
        // After the skew and t rotations, processor (r,c) holds
        // A superblock (r, r+c+t) and B superblock (r+c+t, c).
        const int ak = ((r + c + t) % q) * s;
        const int bk = ak;
        for (int ii = 0; ii < s; ++ii) {
          for (int kk = 0; kk < s; ++kk) {
            for (int jj = 0; jj < s; ++jj) {
              step.add({proc, ops::kOp4, cfg.block},
                       {c_uid(r * s + ii, c * s + jj, nb),
                        a_uid(r * s + ii, ak + kk, nb),
                        b_uid(bk + kk, c * s + jj, nb)});
              ++info.multiply_items;
            }
          }
        }
      }
    }
    program.add_compute(std::move(step));

    if (t == q - 1) break;  // last round: no rotation needed
    pattern::CommPattern pat{cfg.procs()};
    for (int r = 0; r < q; ++r) {
      for (int c = 0; c < q; ++c) {
        const int ak = ((r + c + t) % q) * s;
        add_message(pat, torus_proc(r, c, q),
                    torus_proc(r, (c - 1 + q) % q, q), a_uid(r * s, ak, nb));
        add_message(pat, torus_proc(r, c, q),
                    torus_proc((r - 1 + q) % q, c, q), b_uid(ak, c * s, nb));
      }
    }
    if (!pat.empty()) program.add_comm(std::move(pat));
  }
  program.intern_patterns(pattern::PatternInterner::global());
  return program;
}

}  // namespace logsim::cannon
