#include "trisolve/trisolve.hpp"

#include <cassert>
#include <vector>

#include "pattern/canonical.hpp"
#include "pattern/comm_pattern.hpp"
#include "util/rng.hpp"

namespace logsim::trisolve {

core::CostTable trisolve_cost_table(int block, double us_per_madd) {
  core::CostTable table;
  [[maybe_unused]] const core::OpId solve = table.register_op("TrsvDiag");
  [[maybe_unused]] const core::OpId update = table.register_op("GemvUpdate");
  assert(solve == kSolve && update == kUpdate);
  const double b = static_cast<double>(block);
  table.set_cost(kSolve, block, Time{us_per_madd * b * b / 2.0});
  table.set_cost(kUpdate, block, Time{us_per_madd * b * b});
  return table;
}

core::StepProgram build_trisolve_program(const TriSolveConfig& cfg) {
  TriSolveInfo info;
  return build_trisolve_program(cfg, info);
}

core::StepProgram build_trisolve_program(const TriSolveConfig& cfg,
                                         TriSolveInfo& info) {
  assert(cfg.valid());
  info = TriSolveInfo{};
  const int nb = cfg.grid();
  core::StepProgram program{cfg.procs};
  auto owner = [&](int row) {
    return static_cast<ProcId>(row % cfg.procs);
  };
  const Bytes x_bytes{static_cast<std::uint64_t>(cfg.block) *
                      static_cast<std::uint64_t>(cfg.elem_bytes)};
  // Block uids: x segments get ids 0..nb-1 (r_i aliases x_i's slot: the
  // update rewrites the same vector block the solve later consumes).
  for (int j = 0; j < nb; ++j) {
    {
      core::ComputeStep step;
      step.add({owner(j), kSolve, cfg.block}, {j});
      ++info.solves;
      program.add_compute(std::move(step));
    }
    if (j == nb - 1) break;

    {
      pattern::CommPattern pat{cfg.procs};
      std::vector<bool> seen(static_cast<std::size_t>(cfg.procs), false);
      for (int i = j + 1; i < nb; ++i) {
        const ProcId dst = owner(i);
        if (!seen[static_cast<std::size_t>(dst)]) {
          seen[static_cast<std::size_t>(dst)] = true;
          pat.add(owner(j), dst, x_bytes, /*tag=*/j);
          if (dst != owner(j)) ++info.network_messages;
        }
      }
      program.add_comm(std::move(pat));
    }

    {
      core::ComputeStep step;
      for (int i = j + 1; i < nb; ++i) {
        step.add({owner(i), kUpdate, cfg.block}, {i, j});
        ++info.updates;
      }
      program.add_compute(std::move(step));
    }
  }
  program.intern_patterns(pattern::PatternInterner::global());
  return program;
}

// --- numeric reference ----------------------------------------------------

ops::Matrix forward_substitute(const ops::Matrix& l, const ops::Matrix& b) {
  assert(l.square() && l.rows() == b.rows() && b.cols() == 1);
  const std::size_t n = l.rows();
  ops::Matrix x = b;
  for (std::size_t i = 0; i < n; ++i) {
    double v = x(i, 0);
    for (std::size_t j = 0; j < i; ++j) v -= l(i, j) * x(j, 0);
    x(i, 0) = v / l(i, i);
  }
  return x;
}

ops::Matrix forward_substitute_blocked(const ops::Matrix& l,
                                       const ops::Matrix& b, int block) {
  assert(l.square() && b.cols() == 1);
  const int n = static_cast<int>(l.rows());
  assert(n % block == 0);
  const int nb = n / block;
  ops::Matrix r = b;  // running residual; becomes x block by block

  for (int j = 0; j < nb; ++j) {
    // Solve the diagonal block: x_j = L_jj^-1 r_j.
    for (int ii = 0; ii < block; ++ii) {
      const auto gi = static_cast<std::size_t>(j * block + ii);
      double v = r(gi, 0);
      for (int kk = 0; kk < ii; ++kk) {
        const auto gk = static_cast<std::size_t>(j * block + kk);
        v -= l(gi, gk) * r(gk, 0);
      }
      r(gi, 0) = v / l(gi, gi);
    }
    // Broadcast x_j (implicit) and update every later block row.
    for (int i = j + 1; i < nb; ++i) {
      for (int ii = 0; ii < block; ++ii) {
        const auto gi = static_cast<std::size_t>(i * block + ii);
        double v = r(gi, 0);
        for (int kk = 0; kk < block; ++kk) {
          const auto gk = static_cast<std::size_t>(j * block + kk);
          v -= l(gi, gk) * r(gk, 0);
        }
        r(gi, 0) = v;
      }
    }
  }
  return r;
}

double trisolve_residual(std::uint64_t seed, std::size_t n, int block) {
  util::Rng rng{seed};
  ops::Matrix l = ops::Matrix::random(rng, n, n, -1.0, 1.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) l(i, j) = 0.0;
    l(i, i) = 2.0 + static_cast<double>(n);  // well conditioned
  }
  const ops::Matrix b = ops::Matrix::random(rng, n, 1);
  return forward_substitute(l, b).max_abs_diff(
      forward_substitute_blocked(l, b, block));
}

}  // namespace logsim::trisolve
