#include "frontend/program_builder.hpp"

#include <cassert>
#include <string>
#include <utility>

namespace logsim::frontend {

ProgramBuilder::ProgramBuilder(int procs)
    : procs_(procs < 1 ? 1 : procs),
      program_(procs_),
      pending_comm_(procs_) {
  assert(procs >= 1);
  if (procs < 1) {
    record_error(Status::invalid_input(
        "ProgramBuilder needs at least one processor, got " +
        std::to_string(procs)));
  }
}

void ProgramBuilder::record_error(Status status) {
  if (status_.ok()) status_ = std::move(status);  // first error wins
}

ProgramBuilder::Proc ProgramBuilder::on(ProcId p) {
  assert(p >= 0 && p < procs_);
  if (p < 0 || p >= procs_) {
    record_error(Status::invalid_input(
        "ProgramBuilder::on(" + std::to_string(p) +
        "): processor out of range [0, " + std::to_string(procs_) + ")"));
    return Proc{this, kNoProc};  // inert handle: records nothing
  }
  return Proc{this, p};
}

ProgramBuilder::Proc& ProgramBuilder::Proc::compute(
    core::OpId op, int block_size, std::vector<std::int64_t> touched) {
  if (proc_ == kNoProc) return *this;
  if (block_size < 1) {
    owner_->record_error(Status::invalid_input(
        "compute block size " + std::to_string(block_size) +
        " must be positive (processor " + std::to_string(proc_) + ")"));
    return *this;
  }
  owner_->pending_compute_.add({proc_, op, block_size}, touched);
  return *this;
}

ProgramBuilder::Proc& ProgramBuilder::Proc::store(ProcId dst, Bytes bytes,
                                                  std::int64_t tag) {
  assert(dst >= 0 && dst < owner_->procs_);
  if (proc_ == kNoProc) return *this;
  if (dst < 0 || dst >= owner_->procs_) {
    owner_->record_error(Status::invalid_input(
        "store destination " + std::to_string(dst) +
        " out of range [0, " + std::to_string(owner_->procs_) +
        ") (source processor " + std::to_string(proc_) + ")"));
    return *this;
  }
  owner_->pending_comm_.add(proc_, dst, bytes, tag);
  return *this;
}

void ProgramBuilder::step() {
  if (!pending_compute_.items.empty()) {
    program_.add_compute(std::move(pending_compute_));
    pending_compute_ = core::ComputeStep{};
  }
  if (!pending_comm_.empty()) {
    program_.add_comm(std::move(pending_comm_));
    pending_comm_ = pattern::CommPattern{procs_};
  }
  ++steps_;
}

core::StepProgram ProgramBuilder::build() {
  assert(status_.ok() && "ProgramBuilder recorded an error; use build_checked");
  step();
  core::StepProgram out = std::move(program_);
  program_ = core::StepProgram{procs_};
  steps_ = 0;
  status_ = Status{};
  return out;
}

Result<core::StepProgram> ProgramBuilder::build_checked() {
  if (!status_.ok()) {
    Status st = std::move(status_);
    status_ = Status{};
    return st.with_context("while building a step program");
  }
  return build();
}

}  // namespace logsim::frontend
