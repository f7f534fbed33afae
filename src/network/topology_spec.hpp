#pragma once
// One shared description of the interconnect shape, consumed by BOTH the
// analytic predictor backends (network::NetworkModel) and the packet-level
// DES ground truth (network::PacketNetwork) -- so the two can never
// disagree about what the network looks like (ISSUE 10 satellite: the old
// PacketNetConfig mesh_rows/mesh_cols/torus fields and loggp::Topology
// each described the shape separately).
//
// Supported shapes:
//   flat      -- the paper's contention-free LogGP network (no topology)
//   mesh      -- 2-D mesh, row-major processor ids, no wrap-around
//   torus2d/3d-- dimension-order routed tori with wrap-around links
//   fat-tree  -- SimGrid-style parameterization: per level (bottom-most
//                first) a down-link count d[i] (children per switch) and an
//                up-link count u[i] (parallel uplinks / switch replication).
//                Leaf capacity is prod(d[i]).
//
// Routing is deterministic and shared: append_route() emits the node path
// a message follows (dimension-order for mesh/torus; up to the lowest
// common ancestor level and back down for fat-tree, with the uplink
// replica chosen by the source id).  Fat-tree switches are modelled as
// real nodes with ids past the processor range so link-level serialization
// falls out of the same machinery in the DES.

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "fault/status.hpp"
#include "util/types.hpp"

namespace logsim::network {

enum class TopologyKind : std::uint8_t {
  kFlat = 0,
  kMesh2D,
  kTorus2D,
  kTorus3D,
  kFatTree,
};

/// Stable lowercase name ("flat", "mesh", "torus2d", "torus3d", "fattree").
[[nodiscard]] const char* topology_kind_name(TopologyKind kind);

struct TopologySpec {
  TopologyKind kind = TopologyKind::kFlat;

  /// Grid extents for mesh/torus: {rows, cols, depth}.  depth is 1 for the
  /// 2-D shapes.  Processor id = (row * cols + col) * depth + layer --
  /// row-major, matching the historical PacketNetwork layout for the 2-D
  /// case.
  std::array<int, 3> dims = {0, 0, 1};

  /// Fat-tree level descriptors, bottom-most level first.
  std::vector<int> down;  ///< children per switch at each level
  std::vector<int> up;    ///< parallel uplinks / switch replicas per level

  /// Extra latency charged per switch hop beyond the first (the first hop
  /// is already covered by the LogGP L term): extra = (hops - 1) * per_hop.
  Time per_hop{1.5};

  /// Gap per byte on a shared link, used by the bandwidth-sharing term;
  /// 0 means "use the machine's LogGP G".
  double link_G = 0.0;

  // --- factories ---------------------------------------------------------
  [[nodiscard]] static TopologySpec flat();
  [[nodiscard]] static TopologySpec mesh(int rows, int cols);
  [[nodiscard]] static TopologySpec torus(int rows, int cols);
  [[nodiscard]] static TopologySpec torus(int rows, int cols, int depth);
  [[nodiscard]] static TopologySpec fat_tree(std::vector<int> down,
                                             std::vector<int> up);

  [[nodiscard]] bool is_flat() const { return kind == TopologyKind::kFlat; }

  /// Processor capacity implied by the shape: rows*cols*depth for grids,
  /// prod(down) for fat-trees, 0 for flat (any count fits).
  [[nodiscard]] std::int64_t capacity() const;

  /// Structural sanity plus "does `procs` fit this shape".  Grids must
  /// match the processor count exactly (ids are coordinates); fat-trees
  /// must have capacity >= procs.
  [[nodiscard]] Status validate(int procs) const;

  /// Total routable node count including fat-tree switches (processors
  /// occupy [0, procs); switch ids follow).
  [[nodiscard]] std::int64_t node_count(int procs) const;

  /// Switch hops between two processors (0 for self / flat; Manhattan or
  /// wrapped Manhattan for grids; 2 * LCA-level for fat-trees).
  [[nodiscard]] int hops(ProcId src, ProcId dst) const;

  /// Appends the node path of a src -> dst message, excluding src and
  /// ending with dst (empty only for src == dst; flat appends just {dst},
  /// one dedicated crossbar hop).  Intermediate entries are processor ids
  /// for grids and switch ids for fat-trees.  The path length equals
  /// hops(src, dst).
  void append_route(ProcId src, ProcId dst, std::vector<int>& path) const;

  /// Structural hash (util::Hasher), the companion to operator==.
  [[nodiscard]] std::uint64_t hash() const;

  friend bool operator==(const TopologySpec&, const TopologySpec&) = default;
};

}  // namespace logsim::network
