#pragma once
// The program-level simulator: follows the control flow of a StepProgram,
// accumulating per-processor computation time from the cost table and
// running one LogGP communication simulation per CommStep with the
// processors' current clocks as ready times (paper Section 1: "simulate
// the program execution by following the control flow of the original
// program, estimate the computation running time, and determine the
// sequence of send and receive operations").

#include <chrono>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/comm_sim.hpp"
#include "core/cost_table.hpp"
#include "core/step_cache.hpp"
#include "core/step_program.hpp"
#include "core/worst_case.hpp"
#include "fault/cancel.hpp"
#include "fault/status.hpp"
#include "loggp/params.hpp"
#include "obs/sim_trace.hpp"
#include "util/types.hpp"

namespace logsim::core {

struct ProgramSimOptions {
  /// Use the overestimation algorithm of Section 4.2 for every CommStep.
  bool worst_case = false;
  /// Topology backend (borrowed; see network/network_model.hpp).  nullptr
  /// or a flat model keeps the plain LogGP path bit-identical.  A non-flat
  /// model adds per-message topology delays to every comm step and
  /// disables the step cache for the run: cached finish times would not
  /// carry the topology term, and the canonical relabeling the cache keys
  /// on is not sound under absolute-id-dependent message costs.
  const network::NetworkModel* net = nullptr;
  /// Base seed; each comm step derives its own stream deterministically.
  std::uint64_t seed = 1;
  /// Optional per-work-item surcharge, invoked once per item in program
  /// order.  Hook point for the cache-model extension: the callback may
  /// keep per-processor cache state and return the stall time to add.
  std::function<Time(const WorkItem&)> compute_overhead;
  /// Optional comm-step memoization (borrowed; may be shared across
  /// simulators and threads).  Hits replay stored finish times through the
  /// canonical permutation, bit-identical to simulating; see
  /// core/step_cache.hpp for the key discipline.  nullptr disables.
  StepCache* step_cache = nullptr;
  /// Optional simulated-machine timeline recorder (borrowed, not thread-
  /// safe: one recorder per traced run).  When set, the simulator records
  /// one slice per (step, processor) in simulated time -- the paper's
  /// Figs 4-5 view -- cleared at the start of the run.  Recording is
  /// cache-transparent: the slices are bit-identical with the step cache
  /// on or off.  nullptr (the default) records nothing.
  obs::SimTraceRecorder* sim_trace = nullptr;
  /// Cooperative cancellation, polled between simulation steps; the
  /// default token is inert.  Only run_checked() honours it.
  fault::CancelToken cancel;
  /// Wall-clock deadline, also polled between steps; time_point::max()
  /// (the default) disables it.  Only run_checked() honours it.
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();
};

struct ProgramResult {
  Time total;                    ///< max over processors of final clock
  std::vector<Time> proc_end;    ///< final clock per processor
  std::vector<Time> comp;        ///< per-proc sum of computation time
  std::vector<Time> comm;        ///< per-proc residence in comm steps
  std::size_t comm_ops = 0;      ///< network sends+receives simulated

  [[nodiscard]] Time comp_max() const;
  [[nodiscard]] Time comm_max() const;
};

/// Boundary validation establishing the simulator preconditions that the
/// hot path only assert()s: valid LogGP parameters, every work item
/// referencing an in-range processor / calibrated op / positive block
/// size, and every comm step sized to the program.  Returns the first
/// violation as an invalid-input Status.
[[nodiscard]] Status validate_inputs(const StepProgram& program,
                                     const CostTable& costs,
                                     const loggp::Params& params);

class ProgramSimulator {
 public:
  ProgramSimulator(loggp::Params params, ProgramSimOptions opts = {});

  [[nodiscard]] ProgramResult run(const StepProgram& program,
                                  const CostTable& costs) const;

  /// Like run(), but polls the options' cancel token and deadline between
  /// steps, returning a kCancelled / kTimeout Status instead of finishing.
  /// Does NOT re-validate inputs; see validate_inputs() for the boundary
  /// check that establishes run()'s preconditions.
  [[nodiscard]] Result<ProgramResult> run_checked(const StepProgram& program,
                                                  const CostTable& costs) const;

  [[nodiscard]] const loggp::Params& params() const { return params_; }

 private:
  loggp::Params params_;
  ProgramSimOptions opts_;
};

}  // namespace logsim::core
