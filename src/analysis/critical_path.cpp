#include "analysis/critical_path.hpp"

#include <unordered_map>
#include <unordered_set>
#include <variant>
#include <vector>

#include "loggp/cost.hpp"

namespace logsim::analysis {

ProgramBounds analyze_program(const core::StepProgram& program,
                              const core::CostTable& costs,
                              const loggp::Params& params) {
  ProgramBounds bounds;

  std::vector<Time> work(static_cast<std::size_t>(program.procs()),
                         Time::zero());
  // Availability of each block's latest value along the dependency chain:
  // one map ignoring communication (provable bound), one charging a
  // point-to-point time per producer->consumer comm step (estimate).
  std::unordered_map<std::int64_t, Time> avail_dep;
  std::unordered_map<std::int64_t, Time> avail_lat;

  auto lookup = [](const std::unordered_map<std::int64_t, Time>& m,
                   std::int64_t uid) {
    const auto it = m.find(uid);
    return it == m.end() ? Time::zero() : it->second;
  };

  for (std::size_t s = 0; s < program.size(); ++s) {
    const auto& entry = program.step(s);
    if (const auto* cs = std::get_if<core::ComputeStep>(&entry)) {
      for (std::size_t i = 0; i < cs->items.size(); ++i) {
        const core::WorkItem& item = cs->items[i];
        const auto touched = cs->touched(i);
        const Time cost = costs.cost(item.op, item.block_size);
        work[static_cast<std::size_t>(item.proc)] += cost;

        Time start_dep = Time::zero();
        Time start_lat = Time::zero();
        for (std::int64_t uid : touched) {
          start_dep = max(start_dep, lookup(avail_dep, uid));
          start_lat = max(start_lat, lookup(avail_lat, uid));
        }
        if (!touched.empty()) {
          avail_dep[touched[0]] = start_dep + cost;
          avail_lat[touched[0]] = start_lat + cost;
        }
        bounds.dependency_bound = max(bounds.dependency_bound, start_dep + cost);
        bounds.latency_estimate = max(bounds.latency_estimate, start_lat + cost);
      }
    } else {
      const auto& pat = std::get<core::CommStep>(entry).pattern;
      // Charge each transferred block one contention-free p2p time in the
      // latency-aware chain (once per step even when multicast).
      std::unordered_set<std::int64_t> charged;
      for (const auto& m : pat.messages()) {
        if (m.src == m.dst) continue;
        if (!charged.insert(m.tag).second) continue;
        const auto it = avail_lat.find(m.tag);
        if (it != avail_lat.end()) {
          it->second += loggp::point_to_point(m.bytes, params);
          bounds.latency_estimate = max(bounds.latency_estimate, it->second);
        }
      }
    }
  }

  for (Time w : work) bounds.work_bound = max(bounds.work_bound, w);
  return bounds;
}

}  // namespace logsim::analysis
