#include "ge/left_looking.hpp"

#include <cassert>

#include "ge/reference.hpp"
#include "ops/ge_ops.hpp"
#include "ops/kernels.hpp"
#include "pattern/canonical.hpp"
#include "pattern/comm_pattern.hpp"

namespace logsim::ge {

core::StepProgram build_ge_left_looking(const GeConfig& cfg, int procs) {
  GeScheduleInfo info;
  return build_ge_left_looking(cfg, procs, info);
}

core::StepProgram build_ge_left_looking(const GeConfig& cfg, int procs,
                                        GeScheduleInfo& info) {
  assert(cfg.valid());
  const int nb = cfg.grid();
  const Bytes bb = cfg.block_bytes();
  info = GeScheduleInfo{};

  core::StepProgram program{procs};
  auto owner = [&](int col) { return static_cast<ProcId>(col % procs); };

  for (int k = 0; k < nb; ++k) {
    const ProcId me = owner(k);

    // Gather every previous panel block the column update reads.  No
    // caching across steps: each consumer column re-fetches (the
    // left-looking communication redundancy).
    if (k > 0) {
      pattern::CommPattern pat{procs};
      for (int j = 0; j < k; ++j) {
        const ProcId src = owner(j);
        for (int i = j; i < nb; ++i) {  // A[j][j] and the L panel below it
          pat.add(src, me, bb, block_uid(i, j, nb));
          if (src == me) {
            ++info.self_messages;
          } else {
            ++info.network_messages;
          }
        }
      }
      program.add_comm(std::move(pat));
    }

    core::ComputeStep step;
    for (int j = 0; j < k; ++j) {
      step.add({me, ops::kOp2, cfg.block},
               {block_uid(j, k, nb), block_uid(j, j, nb)});
      ++info.op_counts[ops::kOp2];
      for (int i = j + 1; i < nb; ++i) {
        step.add({me, ops::kOp4, cfg.block},
                 {block_uid(i, k, nb), block_uid(i, j, nb),
                  block_uid(j, k, nb)});
        ++info.op_counts[ops::kOp4];
      }
    }
    step.add({me, ops::kOp1, cfg.block}, {block_uid(k, k, nb)});
    ++info.op_counts[ops::kOp1];
    for (int i = k + 1; i < nb; ++i) {
      step.add({me, ops::kOp3, cfg.block},
               {block_uid(i, k, nb), block_uid(k, k, nb)});
      ++info.op_counts[ops::kOp3];
    }
    program.add_compute(std::move(step));
    ++info.levels;
  }
  program.intern_patterns(pattern::PatternInterner::global());
  return program;
}

// --- numeric reference ------------------------------------------------------

namespace {

ops::Matrix take(const ops::Matrix& a, int bi, int bj, int b) {
  ops::Matrix out{static_cast<std::size_t>(b), static_cast<std::size_t>(b)};
  for (int i = 0; i < b; ++i) {
    for (int j = 0; j < b; ++j) {
      out(static_cast<std::size_t>(i), static_cast<std::size_t>(j)) =
          a(static_cast<std::size_t>(bi * b + i),
            static_cast<std::size_t>(bj * b + j));
    }
  }
  return out;
}

void put(ops::Matrix& a, int bi, int bj, int b, const ops::Matrix& blk) {
  for (int i = 0; i < b; ++i) {
    for (int j = 0; j < b; ++j) {
      a(static_cast<std::size_t>(bi * b + i),
        static_cast<std::size_t>(bj * b + j)) =
          blk(static_cast<std::size_t>(i), static_cast<std::size_t>(j));
    }
  }
}

}  // namespace

void factor_blocked_left(ops::Matrix& a, int block) {
  assert(a.square());
  const int n = static_cast<int>(a.rows());
  assert(n % block == 0);
  const int nb = n / block;

  for (int k = 0; k < nb; ++k) {
    // Apply every previous transformation to block column k.
    for (int j = 0; j < k; ++j) {
      const ops::Matrix diag = take(a, j, j, block);
      ops::Matrix bjk = take(a, j, k, block);
      ops::solve_unit_lower_left(diag, bjk);  // Op2
      put(a, j, k, block, bjk);
      for (int i = j + 1; i < nb; ++i) {
        const ops::Matrix lij = take(a, i, j, block);
        ops::Matrix bik = take(a, i, k, block);
        ops::gemm_subtract(bik, lij, bjk);  // Op4
        put(a, i, k, block, bik);
      }
    }
    // Factor the diagonal block and scale the column below it.
    ops::Matrix diag = take(a, k, k, block);
    ops::lu_nopivot_inplace(diag);  // Op1
    put(a, k, k, block, diag);
    for (int i = k + 1; i < nb; ++i) {
      ops::Matrix bik = take(a, i, k, block);
      ops::solve_upper_right(diag, bik);  // Op3
      put(a, i, k, block, bik);
    }
  }
}

double left_looking_residual(const ops::Matrix& a, int block) {
  ops::Matrix plain = a;
  ops::Matrix left = a;
  factor_unblocked(plain);
  factor_blocked_left(left, block);
  return plain.max_abs_diff(left);
}

}  // namespace logsim::ge
