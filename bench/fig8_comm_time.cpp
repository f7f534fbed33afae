// Figure 8: communication time alone vs block size -- the paper's claim
// is that the measured value falls between the standard and the
// worst-case simulations.  A point counts as inside only when
// std <= measured <= worst, with no allowance.

#include <iostream>

#include <logsim/logsim.hpp>

#include "ge_sweep.hpp"

using namespace logsim;
using bench::SweepPoint;

namespace {

void report(const bench::SweepResult& sweep) {
  std::cout << "--- layout: " << sweep.layout << " ---\n";
  util::Table table{{"block", "measured(s)", "simulated std(s)",
                     "simulated worst(s)", "inside band"}};
  int inside = 0;
  for (const auto& pt : sweep.points) {
    const bool in = pt.simulated_comm_standard <= pt.measured_comm &&
                    pt.measured_comm <= pt.simulated_comm_worst;
    inside += in ? 1 : 0;
    table.add_row({std::to_string(pt.block), util::fmt(pt.measured_comm, 3),
                   util::fmt(pt.simulated_comm_standard, 3),
                   util::fmt(pt.simulated_comm_worst, 3), in ? "yes" : "NO"});
  }
  std::cout << table;

  util::LineChart chart{72, 14};
  chart.set_title("communication time vs block size (" + sweep.layout + ")");
  chart.set_axis_labels("block size", "seconds");
  chart.add_series("measured", 'M', sweep.blocks(),
                   sweep.column(&SweepPoint::measured_comm));
  chart.add_series("simulated std", 's', sweep.blocks(),
                   sweep.column(&SweepPoint::simulated_comm_standard));
  chart.add_series("simulated worst", 'w', sweep.blocks(),
                   sweep.column(&SweepPoint::simulated_comm_worst));
  std::cout << chart.render();
  std::cout << inside << "/" << sweep.points.size()
            << " points bracketed by the two simulations "
            << "(paper: measured falls between standard and worst case)\n\n";
}

}  // namespace

int main() {
  std::cout << "=== Figure 8: communication time, N=" << bench::kMatrixN
            << ", P=" << bench::kProcs << " ===\n\n";
  report(bench::run_sweep(layout::DiagonalMap{bench::kProcs}));
  report(bench::run_sweep(layout::RowCyclic{bench::kProcs}));
  return 0;
}
