#include "core/cost_table.hpp"

#include <algorithm>
#include <cassert>

namespace logsim::core {

OpId CostTable::register_op(std::string name) {
  ops_.push_back(OpEntry{std::move(name), {}});
  return static_cast<OpId>(ops_.size() - 1);
}

void CostTable::set_cost(OpId op, int block_size, Time cost) {
  auto& points = ops_.at(static_cast<std::size_t>(op)).points;
  const auto it = std::lower_bound(
      points.begin(), points.end(), block_size,
      [](const Point& a, int b) { return a.block < b; });
  if (it != points.end() && it->block == block_size) {
    it->cost = cost;
  } else {
    points.insert(it, Point{block_size, cost});
  }
}

Time CostTable::cost(OpId op, int block_size) const {
  const auto& points = ops_.at(static_cast<std::size_t>(op)).points;
  assert(!points.empty() && "cost table has no calibration for this op");
  if (points.empty()) {
    // Release-build backstop: historically this fell through to an empty
    // front() dereference.  Boundaries reject uncalibrated ops up front
    // (cost_checked / validate_inputs), so this is belt-and-braces.
    return Time::zero();
  }
  const auto it = std::lower_bound(
      points.begin(), points.end(), block_size,
      [](const Point& a, int b) { return a.block < b; });
  if (it != points.end() && it->block == block_size) return it->cost;
  if (it == points.begin()) return points.front().cost;  // clamp left
  if (it == points.end()) return points.back().cost;     // clamp right
  const auto& hi = *it;
  const auto& lo = *(it - 1);
  const double frac = static_cast<double>(block_size - lo.block) /
                      static_cast<double>(hi.block - lo.block);
  return lo.cost + (hi.cost - lo.cost) * frac;
}

Result<Time> CostTable::cost_checked(OpId op, int block_size) const {
  if (op < 0 || op >= op_count()) {
    return Status::invalid_input("op id " + std::to_string(op) +
                                 " out of range (have " +
                                 std::to_string(op_count()) + " ops)");
  }
  const auto& entry = ops_[static_cast<std::size_t>(op)];
  if (entry.points.empty()) {
    return Status::invalid_input("op '" + entry.name +
                                 "' has no calibration points");
  }
  if (block_size < 1) {
    return Status::invalid_input("block size " + std::to_string(block_size) +
                                 " must be positive");
  }
  return cost(op, block_size);
}

const std::string& CostTable::name(OpId op) const {
  return ops_.at(static_cast<std::size_t>(op)).name;
}

OpId CostTable::find(const std::string& name) const {
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    if (ops_[i].name == name) return static_cast<OpId>(i);
  }
  return -1;
}

std::vector<int> CostTable::block_sizes(OpId op) const {
  std::vector<int> out;
  for (const auto& pt : ops_.at(static_cast<std::size_t>(op)).points) {
    out.push_back(pt.block);
  }
  return out;
}

}  // namespace logsim::core
