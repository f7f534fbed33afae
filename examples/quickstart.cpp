// Quickstart: predict the running time of a tiny alternating parallel
// program under the LogGP model.
//
//   $ ./quickstart
//
// Walks the whole public API surface in ~80 lines: machine parameters,
// a communication pattern, the two communication-simulation algorithms,
// a step program with computation, and the predictor facade.

#include <iostream>

#include <logsim/core.hpp>

using namespace logsim;

int main() {
  // 1. Pick a machine.  Presets ship for the paper's Meiko CS-2; any
  //    LogGP parameter set works.
  const loggp::Params machine = loggp::presets::meiko_cs2(/*procs=*/4);
  std::cout << "machine: " << machine.to_string() << "\n\n";

  // 2. Describe one communication step as a directed graph of messages.
  //    Processor 0 scatters 1 KiB to everyone; 3 answers 1 with 256 B.
  pattern::CommPattern step{4};
  step.add(0, 1, Bytes{1024});
  step.add(0, 2, Bytes{1024});
  step.add(0, 3, Bytes{1024});
  step.add(3, 1, Bytes{256});

  // 3. Derive the send/receive sequence every processor executes.
  const core::CommSimulator standard{machine};
  const core::CommTrace trace = standard.run(step);
  std::cout << "standard algorithm (receives have priority):\n";
  for (int p = 0; p < step.procs(); ++p) {
    std::cout << "  P" << p << ":";
    for (const auto& op : trace.ops_of(p)) {
      std::cout << (op.kind == loggp::OpKind::kSend ? "  send->" : "  recv<-")
                << "P" << op.peer << "@" << util::fmt(op.start.us(), 1);
    }
    std::cout << '\n';
  }
  std::cout << "  step completes after " << util::fmt(trace.makespan().us(), 2)
            << " us\n";

  // 4. The worst-case (overestimation) variant bounds the step from above.
  const Time worst = core::WorstCaseSimulator{machine}.run(step).makespan();
  std::cout << "  worst-case bound: " << util::fmt(worst.us(), 2) << " us\n\n";

  // 5. Full programs alternate computation and communication.  Computation
  //    costs come from a per-operation, per-block-size cost table.
  core::CostTable costs;
  const core::OpId kWork = costs.register_op("work");
  costs.set_cost(kWork, 32, Time{500.0});  // one 32x32-block op: 500 us

  //    Each work item names its processor, op and block size; add() files
  //    the ids of the blocks it touches (here its own block) in the step.
  core::StepProgram program{4};
  core::ComputeStep compute;
  for (ProcId p = 0; p < 4; ++p) compute.add({p, kWork, 32}, {p});
  program.add_compute(compute);
  program.add_comm(step);

  // 6. Predict.  The result carries both schedules and a per-processor
  //    breakdown into computation and communication time.
  const core::Prediction prediction =
      core::Predictor{machine}.predict_or_die(program, costs);
  std::cout << "program prediction:\n"
            << "  total (standard):   " << util::fmt(prediction.total().us(), 1)
            << " us\n"
            << "  total (worst case): "
            << util::fmt(prediction.total_worst().us(), 1) << " us\n"
            << "  computation:        " << util::fmt(prediction.comp().us(), 1)
            << " us\n"
            << "  communication:      " << util::fmt(prediction.comm().us(), 1)
            << " us\n";
  return 0;
}
