#include "ge/blocked_ge.hpp"

#include <cassert>

#include "ge/multicast.hpp"
#include "ops/ge_ops.hpp"
#include "pattern/canonical.hpp"
#include "pattern/comm_pattern.hpp"

namespace logsim::ge {

core::StepProgram build_ge_program(const GeConfig& cfg,
                                   const layout::Layout& map) {
  GeScheduleInfo info;
  return build_ge_program(cfg, map, info);
}

core::StepProgram build_ge_program(const GeConfig& cfg,
                                   const layout::Layout& map,
                                   GeScheduleInfo& info) {
  assert(cfg.valid());
  const int nb = cfg.grid();
  const int procs = map.procs();
  const Bytes bb = cfg.block_bytes();
  info = GeScheduleInfo{};

  core::StepProgram program{procs};
  auto owner = [&](int i, int j) { return map.owner(i, j, nb); };
  Multicast mc{procs};

  for (int k = 0; k < nb; ++k) {
    // --- level 3k+1: factor the diagonal block -------------------------
    {
      core::ComputeStep step;
      step.add({owner(k, k), ops::kOp1, cfg.block}, {block_uid(k, k, nb)});
      ++info.op_counts[ops::kOp1];
      program.add_compute(std::move(step));
      ++info.levels;
    }
    if (k == nb - 1) break;  // last step has no panels or interior

    // Communicate the factored diagonal block to every panel owner.
    {
      pattern::CommPattern pat{procs};
      for (int j = k + 1; j < nb; ++j) mc.add_consumer(owner(k, j));
      for (int i = k + 1; i < nb; ++i) mc.add_consumer(owner(i, k));
      mc.emit(owner(k, k), block_uid(k, k, nb), bb, pat, info);
      program.add_comm(std::move(pat));
    }

    // --- level 3k+2: panel updates --------------------------------------
    {
      core::ComputeStep step;
      for (int j = k + 1; j < nb; ++j) {
        step.add({owner(k, j), ops::kOp2, cfg.block},
                 {block_uid(k, j, nb), block_uid(k, k, nb)});
        ++info.op_counts[ops::kOp2];
      }
      for (int i = k + 1; i < nb; ++i) {
        step.add({owner(i, k), ops::kOp3, cfg.block},
                 {block_uid(i, k, nb), block_uid(k, k, nb)});
        ++info.op_counts[ops::kOp3];
      }
      program.add_compute(std::move(step));
      ++info.levels;
    }

    // Communicate panel results to the interior owners: the row-panel
    // block A[k][j] flows down its column, the column-panel block A[i][k]
    // flows right along its row.
    {
      pattern::CommPattern pat{procs};
      for (int j = k + 1; j < nb; ++j) {
        for (int i = k + 1; i < nb; ++i) mc.add_consumer(owner(i, j));
        mc.emit(owner(k, j), block_uid(k, j, nb), bb, pat, info);
      }
      for (int i = k + 1; i < nb; ++i) {
        for (int j = k + 1; j < nb; ++j) mc.add_consumer(owner(i, j));
        mc.emit(owner(i, k), block_uid(i, k, nb), bb, pat, info);
      }
      program.add_comm(std::move(pat));
    }

    // --- level 3k+3: interior (Schur complement) updates ----------------
    {
      core::ComputeStep step;
      for (int i = k + 1; i < nb; ++i) {
        for (int j = k + 1; j < nb; ++j) {
          step.add({owner(i, j), ops::kOp4, cfg.block},
                   {block_uid(i, j, nb), block_uid(i, k, nb),
                    block_uid(k, j, nb)});
          ++info.op_counts[ops::kOp4];
        }
      }
      program.add_compute(std::move(step));
      ++info.levels;
    }
    // Interior results stay put (owner-computes): no communication step.
  }
  program.intern_patterns(pattern::PatternInterner::global());
  return program;
}

}  // namespace logsim::ge
