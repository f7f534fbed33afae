#include "stencil/stencil.hpp"

#include <cassert>
#include <cmath>

#include "pattern/canonical.hpp"
#include "pattern/comm_pattern.hpp"

namespace logsim::stencil {

namespace {

int isqrt(int v) {
  int q = static_cast<int>(std::lround(std::sqrt(static_cast<double>(v))));
  while (q * q > v) --q;
  while ((q + 1) * (q + 1) <= v) ++q;
  return q;
}

int tile_edge_for_cells(std::int64_t cells) {
  return std::max(1, static_cast<int>(std::lround(
                         std::sqrt(static_cast<double>(cells)))));
}

}  // namespace

bool StencilConfig::valid() const {
  if (n <= 0 || iterations < 0 || procs <= 0 || elem_bytes <= 0) return false;
  if (partition == Partition::kStrips1D) {
    return n % procs == 0;
  }
  const int q = isqrt(procs);
  return q * q == procs && n % q == 0;
}

core::CostTable stencil_cost_table(const StencilConfig& cfg,
                                   double update_us_per_cell) {
  assert(cfg.valid());
  core::CostTable table;
  [[maybe_unused]] const core::OpId id = table.register_op("stencil5");
  assert(id == kStencilOp);
  std::int64_t cells;
  if (cfg.partition == Partition::kStrips1D) {
    cells = static_cast<std::int64_t>(cfg.n / cfg.procs) * cfg.n;
  } else {
    const int q = isqrt(cfg.procs);
    cells = static_cast<std::int64_t>(cfg.n / q) * (cfg.n / q);
  }
  const int edge = tile_edge_for_cells(cells);
  table.set_cost(kStencilOp, edge,
                 Time{static_cast<double>(cells) * update_us_per_cell});
  return table;
}

pattern::CommPattern halo_pattern(const StencilConfig& cfg) {
  assert(cfg.valid());
  pattern::CommPattern halo{cfg.procs};
  if (cfg.partition == Partition::kStrips1D) {
    const Bytes row_bytes{static_cast<std::uint64_t>(cfg.n) *
                          static_cast<std::uint64_t>(cfg.elem_bytes)};
    for (int p = 0; p + 1 < cfg.procs; ++p) {
      halo.add(p, p + 1, row_bytes, /*tag=*/p);      // my bottom row down
      halo.add(p + 1, p, row_bytes, /*tag=*/p + 1);  // their top row up
    }
  } else {
    const int q = isqrt(cfg.procs);
    const Bytes edge_bytes{static_cast<std::uint64_t>(cfg.n / q) *
                           static_cast<std::uint64_t>(cfg.elem_bytes)};
    auto id = [q](int r, int c) { return static_cast<ProcId>(r * q + c); };
    for (int r = 0; r < q; ++r) {
      for (int c = 0; c < q; ++c) {
        const ProcId me = id(r, c);
        if (r + 1 < q) {
          halo.add(me, id(r + 1, c), edge_bytes, me);
          halo.add(id(r + 1, c), me, edge_bytes, id(r + 1, c));
        }
        if (c + 1 < q) {
          halo.add(me, id(r, c + 1), edge_bytes, me);
          halo.add(id(r, c + 1), me, edge_bytes, id(r, c + 1));
        }
      }
    }
  }
  return halo;
}

core::StepProgram build_stencil_program(const StencilConfig& cfg) {
  StencilScheduleInfo info;
  return build_stencil_program(cfg, info);
}

core::StepProgram build_stencil_program(const StencilConfig& cfg,
                                        StencilScheduleInfo& info) {
  assert(cfg.valid());
  info = StencilScheduleInfo{};
  core::StepProgram program{cfg.procs};

  // Build one iteration's halo pattern and compute step, then repeat.
  pattern::CommPattern halo = halo_pattern(cfg);
  core::ComputeStep update;
  std::vector<std::int64_t> touched;  // one item's blocks, reused

  if (cfg.partition == Partition::kStrips1D) {
    info.tile_rows = cfg.n / cfg.procs;
    info.tile_cols = cfg.n;
    for (int p = 0; p < cfg.procs; ++p) {
      touched = {p};
      if (p > 0) touched.push_back(p - 1);
      if (p + 1 < cfg.procs) touched.push_back(p + 1);
      update.add(
          {p, kStencilOp,
           tile_edge_for_cells(static_cast<std::int64_t>(info.tile_rows) *
                               info.tile_cols)},
          touched);
    }
  } else {
    const int q = isqrt(cfg.procs);
    info.tile_rows = cfg.n / q;
    info.tile_cols = cfg.n / q;
    auto id = [q](int r, int c) { return static_cast<ProcId>(r * q + c); };
    for (int r = 0; r < q; ++r) {
      for (int c = 0; c < q; ++c) {
        const ProcId me = id(r, c);
        touched = {me};
        if (r + 1 < q) touched.push_back(id(r + 1, c));
        if (r > 0) touched.push_back(id(r - 1, c));
        if (c + 1 < q) touched.push_back(id(r, c + 1));
        if (c > 0) touched.push_back(id(r, c - 1));
        update.add({me, kStencilOp,
                    tile_edge_for_cells(
                        static_cast<std::int64_t>(info.tile_rows) *
                        info.tile_cols)},
                   touched);
      }
    }
  }

  info.halo_messages_per_iter = halo.size();
  info.halo_bytes_per_iter = halo.network_bytes();

  for (int it = 0; it < cfg.iterations; ++it) {
    if (!halo.empty()) program.add_comm(core::CommStep{halo});
    program.add_compute(update);
  }
  program.intern_patterns(pattern::PatternInterner::global());
  return program;
}

}  // namespace logsim::stencil
