#include "core/predictor.hpp"

#include "obs/trace.hpp"

namespace logsim::core {

Predictor::Predictor(loggp::Params params, ProgramSimOptions opts)
    : params_(params), opts_(std::move(opts)) {}

Result<Prediction> Predictor::predict(const StepProgram& program,
                                      const CostTable& costs) const {
  Result<CompiledProgram> compiled = compile(program, costs, params_);
  if (!compiled.ok()) {
    return Status{compiled.status()}.with_context(
        "while validating prediction inputs");
  }
  return predict(*compiled);
}

Result<Prediction> Predictor::predict(const CompiledProgram& compiled) const {
  obs::Span span{obs::TraceSession::global(), "predict", "core"};
  const StepProgram& program = compiled.program();
  const CostTable& costs = compiled.costs();
  if (!params_.valid()) {  // compile() checked its params, maybe not these
    return validate_inputs(program, costs, params_)
        .with_context("while validating prediction inputs");
  }
  ProgramSimOptions std_opts = opts_;
  std_opts.worst_case = false;
  Result<ProgramResult> standard =
      ProgramSimulator{params_, std::move(std_opts)}.run_checked(program,
                                                                 costs);
  if (!standard.ok()) {
    return Status{standard.status()}.with_context("in the standard schedule");
  }
  ProgramSimOptions worst_opts = opts_;
  worst_opts.worst_case = true;
  // The recorder (if any) now holds the standard run; detach it so the
  // worst-case pass neither clears nor overwrites it.
  worst_opts.sim_trace = nullptr;
  Result<ProgramResult> worst =
      ProgramSimulator{params_, std::move(worst_opts)}.run_checked(program,
                                                                   costs);
  if (!worst.ok()) {
    return Status{worst.status()}.with_context("in the worst-case schedule");
  }
  return Prediction{std::move(standard).value(), std::move(worst).value()};
}

Prediction Predictor::predict_or_die(const StepProgram& program,
                                     const CostTable& costs) const {
  return predict(program, costs).value();
}

ProgramResult Predictor::predict_standard(const StepProgram& program,
                                          const CostTable& costs) const {
  ProgramSimOptions o = opts_;
  o.worst_case = false;
  return ProgramSimulator{params_, std::move(o)}.run(program, costs);
}

ProgramResult Predictor::predict_worst_case(const StepProgram& program,
                                            const CostTable& costs) const {
  ProgramSimOptions o = opts_;
  o.worst_case = true;
  return ProgramSimulator{params_, std::move(o)}.run(program, costs);
}

}  // namespace logsim::core
