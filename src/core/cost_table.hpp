#pragma once
// Basic-operation cost table.
//
// The paper's computation model: data is split into equal-sized basic
// blocks that can only be operated on by a finite set of basic operations
// whose running times are "calculated separately" per block size (their
// Figure 6) and then consumed by the program simulator.  This class is
// that table: op x block-size -> microseconds, with piecewise-linear
// interpolation for block sizes between calibration points.

#include <string>
#include <vector>

#include "fault/status.hpp"
#include "util/types.hpp"

namespace logsim::core {

using OpId = int;

class CostTable {
 public:
  /// Registers a named operation; returns its id (dense, 0-based).
  OpId register_op(std::string name);

  /// Records the cost of `op` on a `block_size` x `block_size` block.
  /// Multiple calls for the same (op, size) overwrite.
  void set_cost(OpId op, int block_size, Time cost);

  /// Cost lookup.  Exact match when `block_size` is a calibration point;
  /// otherwise linear interpolation between neighbours, clamped at the
  /// extremes.  Precondition: the op has at least one calibration point
  /// (use cost_checked() at untrusted boundaries); a release build returns
  /// zero for an uncalibrated op instead of undefined behaviour.
  [[nodiscard]] Time cost(OpId op, int block_size) const;

  /// Boundary-safe cost lookup: an out-of-range op or an op with no
  /// calibration points yields an invalid-input Status instead of tripping
  /// the debug assert (or, historically, dereferencing an empty vector).
  [[nodiscard]] Result<Time> cost_checked(OpId op, int block_size) const;

  /// True when `op` is registered and has at least one calibration point,
  /// i.e. cost() is safe to call.
  [[nodiscard]] bool has_calibration(OpId op) const {
    return op >= 0 && op < op_count() &&
           !ops_[static_cast<std::size_t>(op)].points.empty();
  }

  [[nodiscard]] int op_count() const { return static_cast<int>(ops_.size()); }
  [[nodiscard]] const std::string& name(OpId op) const;
  /// Id of a registered name, or -1.
  [[nodiscard]] OpId find(const std::string& name) const;

  /// All calibration block sizes recorded for `op`, ascending.
  [[nodiscard]] std::vector<int> block_sizes(OpId op) const;

  /// Structural equality: same ops (names, order) with the same
  /// calibration points.  The prediction cache keys on this -- two
  /// programs that differ only in their cost tables must never share an
  /// entry (the serving layer takes a table from every request).
  [[nodiscard]] friend bool operator==(const CostTable&,
                                       const CostTable&) = default;

 private:
  struct Point {
    int block;
    Time cost;

    [[nodiscard]] friend bool operator==(const Point&, const Point&) = default;
  };
  struct OpEntry {
    std::string name;
    std::vector<Point> points;  // sorted by block

    [[nodiscard]] friend bool operator==(const OpEntry&,
                                         const OpEntry&) = default;
  };
  std::vector<OpEntry> ops_;
};

}  // namespace logsim::core
