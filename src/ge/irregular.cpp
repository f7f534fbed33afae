#include "ge/irregular.hpp"

#include <cassert>
#include <cmath>

#include "ge/multicast.hpp"
#include "ge/reference.hpp"
#include "ops/ge_ops.hpp"
#include "ops/kernels.hpp"
#include "pattern/canonical.hpp"
#include "pattern/comm_pattern.hpp"

namespace logsim::ge {

namespace {

Bytes block_bytes(const IrregularGeConfig& cfg, int i, int j) {
  return Bytes{static_cast<std::uint64_t>(cfg.extent(i)) *
               static_cast<std::uint64_t>(cfg.extent(j)) *
               static_cast<std::uint64_t>(cfg.elem_bytes)};
}

}  // namespace

int effective_size(int d1, int d2, int d3) {
  const double volume = static_cast<double>(d1) * d2 * d3;
  return std::max(1, static_cast<int>(std::lround(std::cbrt(volume))));
}

core::StepProgram build_ge_program_irregular(const IrregularGeConfig& cfg,
                                             const layout::Layout& map) {
  GeScheduleInfo info;
  return build_ge_program_irregular(cfg, map, info);
}

core::StepProgram build_ge_program_irregular(const IrregularGeConfig& cfg,
                                             const layout::Layout& map,
                                             GeScheduleInfo& info) {
  assert(cfg.valid());
  const int nb = cfg.grid();
  const int procs = map.procs();
  info = GeScheduleInfo{};

  core::StepProgram program{procs};
  auto owner = [&](int i, int j) { return map.owner(i, j, nb); };
  Multicast mc{procs};

  for (int k = 0; k < nb; ++k) {
    const int ek = cfg.extent(k);
    {
      core::ComputeStep step;
      step.add({owner(k, k), ops::kOp1, effective_size(ek, ek, ek)},
               {block_uid(k, k, nb)});
      ++info.op_counts[ops::kOp1];
      program.add_compute(std::move(step));
      ++info.levels;
    }
    if (k == nb - 1) break;

    {
      pattern::CommPattern pat{procs};
      for (int j = k + 1; j < nb; ++j) mc.add_consumer(owner(k, j));
      for (int i = k + 1; i < nb; ++i) mc.add_consumer(owner(i, k));
      mc.emit(owner(k, k), block_uid(k, k, nb), block_bytes(cfg, k, k), pat,
              info);
      program.add_comm(std::move(pat));
    }

    {
      core::ComputeStep step;
      for (int j = k + 1; j < nb; ++j) {
        step.add({owner(k, j), ops::kOp2,
                  effective_size(ek, ek, cfg.extent(j))},
                 {block_uid(k, j, nb), block_uid(k, k, nb)});
        ++info.op_counts[ops::kOp2];
      }
      for (int i = k + 1; i < nb; ++i) {
        step.add({owner(i, k), ops::kOp3,
                  effective_size(cfg.extent(i), ek, ek)},
                 {block_uid(i, k, nb), block_uid(k, k, nb)});
        ++info.op_counts[ops::kOp3];
      }
      program.add_compute(std::move(step));
      ++info.levels;
    }

    {
      pattern::CommPattern pat{procs};
      for (int j = k + 1; j < nb; ++j) {
        for (int i = k + 1; i < nb; ++i) mc.add_consumer(owner(i, j));
        mc.emit(owner(k, j), block_uid(k, j, nb), block_bytes(cfg, k, j), pat,
                info);
      }
      for (int i = k + 1; i < nb; ++i) {
        for (int j = k + 1; j < nb; ++j) mc.add_consumer(owner(i, j));
        mc.emit(owner(i, k), block_uid(i, k, nb), block_bytes(cfg, i, k), pat,
                info);
      }
      program.add_comm(std::move(pat));
    }

    {
      core::ComputeStep step;
      for (int i = k + 1; i < nb; ++i) {
        for (int j = k + 1; j < nb; ++j) {
          step.add({owner(i, j), ops::kOp4,
                    effective_size(cfg.extent(i), ek, cfg.extent(j))},
                   {block_uid(i, j, nb), block_uid(i, k, nb),
                    block_uid(k, j, nb)});
          ++info.op_counts[ops::kOp4];
        }
      }
      program.add_compute(std::move(step));
      ++info.levels;
    }
  }
  program.intern_patterns(pattern::PatternInterner::global());
  return program;
}

// --- numeric reference ----------------------------------------------------

namespace {

ops::Matrix extract(const ops::Matrix& a, int r0, int c0, int rows, int cols) {
  ops::Matrix out{static_cast<std::size_t>(rows), static_cast<std::size_t>(cols)};
  for (int i = 0; i < rows; ++i) {
    for (int j = 0; j < cols; ++j) {
      out(static_cast<std::size_t>(i), static_cast<std::size_t>(j)) =
          a(static_cast<std::size_t>(r0 + i), static_cast<std::size_t>(c0 + j));
    }
  }
  return out;
}

void store(ops::Matrix& a, int r0, int c0, const ops::Matrix& blk) {
  for (std::size_t i = 0; i < blk.rows(); ++i) {
    for (std::size_t j = 0; j < blk.cols(); ++j) {
      a(static_cast<std::size_t>(r0) + i, static_cast<std::size_t>(c0) + j) =
          blk(i, j);
    }
  }
}

}  // namespace

void factor_blocked_irregular(ops::Matrix& a, int block) {
  assert(a.square());
  const int n = static_cast<int>(a.rows());
  const IrregularGeConfig cfg{.n = n, .block = block};
  const int nb = cfg.grid();
  auto base = [&](int idx) { return idx * block; };

  for (int k = 0; k < nb; ++k) {
    const int ek = cfg.extent(k);
    ops::Matrix diag = extract(a, base(k), base(k), ek, ek);
    ops::lu_nopivot_inplace(diag);
    store(a, base(k), base(k), diag);

    for (int j = k + 1; j < nb; ++j) {
      ops::Matrix blk = extract(a, base(k), base(j), ek, cfg.extent(j));
      ops::solve_unit_lower_left(diag, blk);
      store(a, base(k), base(j), blk);
    }
    for (int i = k + 1; i < nb; ++i) {
      ops::Matrix blk = extract(a, base(i), base(k), cfg.extent(i), ek);
      ops::solve_upper_right(diag, blk);
      store(a, base(i), base(k), blk);
    }
    for (int i = k + 1; i < nb; ++i) {
      const ops::Matrix left = extract(a, base(i), base(k), cfg.extent(i), ek);
      for (int j = k + 1; j < nb; ++j) {
        ops::Matrix blk =
            extract(a, base(i), base(j), cfg.extent(i), cfg.extent(j));
        const ops::Matrix top =
            extract(a, base(k), base(j), ek, cfg.extent(j));
        ops::gemm_subtract(blk, left, top);
        store(a, base(i), base(j), blk);
      }
    }
  }
}

double irregular_residual(const ops::Matrix& a, int block) {
  ops::Matrix plain = a;
  ops::Matrix blocked = a;
  factor_unblocked(plain);
  factor_blocked_irregular(blocked, block);
  return plain.max_abs_diff(blocked);
}

}  // namespace logsim::ge
