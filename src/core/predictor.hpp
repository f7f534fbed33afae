#pragma once
// High-level prediction facade: the entry point a library user calls to
// get the paper's deliverable -- predicted total / computation /
// communication time for a blocked parallel program, with both the
// standard and the worst-case communication schedules.
//
// API shape: predict() is THE entry point and returns Result<Prediction>.
// It compiles its inputs (compile(), or takes a CompiledProgram) and
// honours the options' cancel token / deadline between simulation steps,
// so invalid input, cancellation and deadline expiry come back as a
// Status -- never an assert or a hang.  predict_or_die() is the thin
// convenience for tests, examples and benches that know their inputs are
// good: it unwraps the Result and dies (Result::value's logic_error) on
// failure.

#include "core/program_sim.hpp"

namespace logsim::core {

struct Prediction {
  ProgramResult standard;    ///< Figure-2 algorithm per comm step
  ProgramResult worst_case;  ///< Section-4.2 overestimation per comm step

  /// The paper's headline numbers.
  [[nodiscard]] Time total() const { return standard.total; }
  [[nodiscard]] Time total_worst() const { return worst_case.total; }
  [[nodiscard]] Time comp() const { return standard.comp_max(); }
  [[nodiscard]] Time comm() const { return standard.comm_max(); }
  [[nodiscard]] Time comm_worst() const { return worst_case.comm_max(); }
};

class Predictor {
 public:
  explicit Predictor(loggp::Params params, ProgramSimOptions opts = {});

  /// Runs both communication schedules over the program.  Validates the
  /// inputs first and polls the options' cancel token / deadline between
  /// simulation steps.  When the options carry a sim_trace recorder it
  /// captures the standard-schedule run (the paper's Figs 4-5 view); the
  /// worst-case pass never touches it.
  [[nodiscard]] Result<Prediction> predict(const StepProgram& program,
                                           const CostTable& costs) const;
  /// predict() without a second validation walk.
  [[nodiscard]] Result<Prediction> predict(
      const CompiledProgram& compiled) const;

  /// predict() for callers with known-good inputs and no stop controls:
  /// unwraps the Result, terminating via Result::value()'s logic_error if
  /// the prediction failed.  Tests, examples and benches only.
  [[nodiscard]] Prediction predict_or_die(const StepProgram& program,
                                          const CostTable& costs) const;

  /// Runs only the requested schedule.
  [[nodiscard]] ProgramResult predict_standard(const StepProgram& program,
                                               const CostTable& costs) const;
  [[nodiscard]] ProgramResult predict_worst_case(const StepProgram& program,
                                                 const CostTable& costs) const;

  [[nodiscard]] const loggp::Params& params() const { return params_; }

 private:
  loggp::Params params_;
  ProgramSimOptions opts_;
};

}  // namespace logsim::core
