#include "network/topology_spec.hpp"

#include <cmath>

#include "util/hash.hpp"

namespace logsim::network {

namespace {

/// prod(v[0..level)) with int64 arithmetic; level <= v.size().
std::int64_t level_prod(const std::vector<int>& v, std::size_t level) {
  std::int64_t prod = 1;
  for (std::size_t i = 0; i < level; ++i) prod *= v[i];
  return prod;
}

}  // namespace

const char* topology_kind_name(TopologyKind kind) {
  switch (kind) {
    case TopologyKind::kFlat: return "flat";
    case TopologyKind::kMesh2D: return "mesh";
    case TopologyKind::kTorus2D: return "torus2d";
    case TopologyKind::kTorus3D: return "torus3d";
    case TopologyKind::kFatTree: return "fattree";
  }
  return "?";
}

TopologySpec TopologySpec::flat() { return TopologySpec{}; }

TopologySpec TopologySpec::mesh(int rows, int cols) {
  TopologySpec s;
  s.kind = TopologyKind::kMesh2D;
  s.dims = {rows, cols, 1};
  return s;
}

TopologySpec TopologySpec::torus(int rows, int cols) {
  TopologySpec s;
  s.kind = TopologyKind::kTorus2D;
  s.dims = {rows, cols, 1};
  return s;
}

TopologySpec TopologySpec::torus(int rows, int cols, int depth) {
  TopologySpec s;
  s.kind = TopologyKind::kTorus3D;
  s.dims = {rows, cols, depth};
  return s;
}

TopologySpec TopologySpec::fat_tree(std::vector<int> down,
                                    std::vector<int> up) {
  TopologySpec s;
  s.kind = TopologyKind::kFatTree;
  s.down = std::move(down);
  s.up = std::move(up);
  return s;
}

std::int64_t TopologySpec::capacity() const {
  switch (kind) {
    case TopologyKind::kFlat:
      return 0;
    case TopologyKind::kMesh2D:
    case TopologyKind::kTorus2D:
    case TopologyKind::kTorus3D:
      return static_cast<std::int64_t>(dims[0]) * dims[1] * dims[2];
    case TopologyKind::kFatTree:
      return level_prod(down, down.size());
  }
  return 0;
}

Status TopologySpec::validate(int procs) const {
  if (!(per_hop >= Time::zero()) || std::isnan(per_hop.us()) ||
      per_hop.is_infinite()) {
    return Status::invalid_input("topology per-hop latency must be finite and >= 0");
  }
  if (!(link_G >= 0.0) || std::isnan(link_G) || std::isinf(link_G)) {
    return Status::invalid_input("topology link G must be finite and >= 0");
  }
  switch (kind) {
    case TopologyKind::kFlat:
      return Status{};
    case TopologyKind::kMesh2D:
    case TopologyKind::kTorus2D:
    case TopologyKind::kTorus3D: {
      const bool three_d = kind == TopologyKind::kTorus3D;
      if (dims[0] < 1 || dims[1] < 1 || dims[2] < 1) {
        return Status::invalid_input("grid extents must all be >= 1");
      }
      if (!three_d && dims[2] != 1) {
        return Status::invalid_input("2-D grid must have depth 1");
      }
      if (capacity() != procs) {
        return Status::invalid_input(
            "grid capacity " + std::to_string(capacity()) +
            " does not match processor count " + std::to_string(procs));
      }
      return Status{};
    }
    case TopologyKind::kFatTree: {
      if (down.empty() || down.size() != up.size()) {
        return Status::invalid_input(
            "fat-tree needs matching non-empty down/up level counts");
      }
      if (down.size() > 16) {
        return Status::invalid_input("fat-tree deeper than 16 levels");
      }
      std::int64_t cap = 1;
      std::int64_t replicas = 1;
      for (std::size_t i = 0; i < down.size(); ++i) {
        if (down[i] < 1 || up[i] < 1) {
          return Status::invalid_input(
              "fat-tree level counts must all be >= 1");
        }
        cap *= down[i];
        replicas *= up[i];
        if (cap > kMaxSimProcs || replicas > kMaxSimProcs) {
          return Status::invalid_input("fat-tree capacity overflows");
        }
      }
      if (cap < procs) {
        return Status::invalid_input(
            "fat-tree capacity " + std::to_string(cap) +
            " is smaller than processor count " + std::to_string(procs));
      }
      return Status{};
    }
  }
  return Status::internal("unknown topology kind");
}

std::int64_t TopologySpec::node_count(int procs) const {
  if (kind != TopologyKind::kFatTree) {
    const std::int64_t cap = capacity();
    return cap > procs ? cap : procs;
  }
  // Hosts occupy [0, capacity); level-j switches follow, one block per
  // level: (capacity / prod(down[0..j])) groups x prod(up[0..j]) replicas.
  std::int64_t total = capacity();
  for (std::size_t j = 1; j <= down.size(); ++j) {
    total += (capacity() / level_prod(down, j)) * level_prod(up, j);
  }
  return total;
}

int TopologySpec::hops(ProcId src, ProcId dst) const {
  if (src == dst) return 0;
  switch (kind) {
    case TopologyKind::kFlat:
      return 1;  // crossbar: one dedicated link
    case TopologyKind::kMesh2D:
    case TopologyKind::kTorus2D:
    case TopologyKind::kTorus3D: {
      const bool wrap = kind != TopologyKind::kMesh2D;
      const int extents[3] = {dims[2], dims[1], dims[0]};  // inner first
      int a = src, b = dst, total = 0;
      for (const int extent : extents) {
        const int ca = a % extent, cb = b % extent;
        a /= extent;
        b /= extent;
        const int d = ca > cb ? ca - cb : cb - ca;
        total += wrap ? (d < extent - d ? d : extent - d) : d;
      }
      return total;
    }
    case TopologyKind::kFatTree: {
      std::int64_t a = src, b = dst;
      int level = 0;
      while (a != b && level < static_cast<int>(down.size())) {
        a /= down[static_cast<std::size_t>(level)];
        b /= down[static_cast<std::size_t>(level)];
        ++level;
      }
      return 2 * level;
    }
  }
  return 0;
}

void TopologySpec::append_route(ProcId src, ProcId dst,
                                std::vector<int>& path) const {
  if (src == dst) return;
  switch (kind) {
    case TopologyKind::kFlat:
      path.push_back(dst);  // crossbar: one dedicated hop
      return;
    case TopologyKind::kMesh2D:
    case TopologyKind::kTorus2D:
    case TopologyKind::kTorus3D: {
      const bool wrap = kind != TopologyKind::kMesh2D;
      const int depth = dims[2], cols = dims[1], rows = dims[0];
      int layer = src % depth, col = (src / depth) % cols,
          row = src / (depth * cols);
      const int tl = dst % depth, tc = (dst / depth) % cols,
                tr = dst / (depth * cols);
      auto step_toward = [wrap](int cur, int target, int extent) {
        const int forward = (target - cur + extent) % extent;
        const int backward = (cur - target + extent) % extent;
        if (!wrap) return target > cur ? 1 : -1;  // mesh: direct direction
        return forward <= backward ? 1 : -1;      // torus: shorter way round
      };
      auto node = [&] { return (row * cols + col) * depth + layer; };
      // Dimension order, innermost extent first: for the 2-D shapes this
      // is the historical "columns first, then rows" walk.
      while (layer != tl) {
        layer = (layer + step_toward(layer, tl, depth) + depth) % depth;
        path.push_back(node());
      }
      while (col != tc) {
        col = (col + step_toward(col, tc, cols) + cols) % cols;
        path.push_back(node());
      }
      while (row != tr) {
        row = (row + step_toward(row, tr, rows) + rows) % rows;
        path.push_back(node());
      }
      return;
    }
    case TopologyKind::kFatTree: {
      // LCA level: the lowest level whose group contains both endpoints.
      int lca = 0;
      {
        std::int64_t a = src, b = dst;
        while (a != b && lca < static_cast<int>(down.size())) {
          a /= down[static_cast<std::size_t>(lca)];
          b /= down[static_cast<std::size_t>(lca)];
          ++lca;
        }
      }
      const std::int64_t cap = capacity();
      // switch_id(level j >= 1, group, replica): hosts occupy [0, cap),
      // then one contiguous block per level.
      auto switch_id = [&](int j, std::int64_t group, std::int64_t replica) {
        std::int64_t base = cap;
        for (int i = 1; i < j; ++i) {
          base += (cap / level_prod(down, static_cast<std::size_t>(i))) *
                  level_prod(up, static_cast<std::size_t>(i));
        }
        const std::int64_t replicas =
            level_prod(up, static_cast<std::size_t>(j));
        return static_cast<int>(base + group * replicas + replica);
      };
      // Uplink replica choice is source-derived (deterministic, spreads
      // sources across parallel uplinks) and reused on the way down: the
      // switch picked at the top fixes the descent.
      for (int j = 1; j <= lca; ++j) {
        const std::int64_t group =
            src / level_prod(down, static_cast<std::size_t>(j));
        const std::int64_t replica =
            src % level_prod(up, static_cast<std::size_t>(j));
        path.push_back(switch_id(j, group, replica));
      }
      for (int j = lca - 1; j >= 1; --j) {
        const std::int64_t group =
            dst / level_prod(down, static_cast<std::size_t>(j));
        const std::int64_t replica =
            src % level_prod(up, static_cast<std::size_t>(j));
        path.push_back(switch_id(j, group, replica));
      }
      path.push_back(dst);
      return;
    }
  }
}

std::uint64_t TopologySpec::hash() const {
  util::Hasher h;
  h.mix_u64(static_cast<std::uint64_t>(kind));
  h.mix_u64(dims.size());
  for (const int d : dims) h.mix_i64(d);
  for (const auto* levels : {&down, &up}) {
    h.mix_u64(levels->size());
    for (const int x : *levels) h.mix_i64(x);
  }
  h.mix_double(per_hop.us());
  h.mix_double(link_G);
  return h.digest();
}

}  // namespace logsim::network
