#pragma once
// Simulated-machine timeline recorder: the paper's per-processor view
// (Figs 4-5) for a whole predicted program.
//
// Wall-clock tracing (obs/trace.hpp) shows where the *predictor* spends
// time; this recorder shows where the *simulated program* spends time.
// core::ProgramSimulator, when handed a SimTraceRecorder through
// ProgramSimOptions::sim_trace, records one slice per (step, processor):
// the processor's simulated entry clock to its simulated exit clock, for
// compute and communication steps alike.  Timestamps are simulated
// microseconds, so the recorded timeline is fully deterministic -- and
// identical whether or not the comm-step cache served the step, mirroring
// the cache's bit-identical guarantee (tests assert this).
//
// The recorder is single-simulation state: not thread-safe, one recorder
// per traced prediction.  A Predictor records only the standard schedule
// (the paper's Fig-4 view); batch users attach one via
// runtime::PredictJob::sim_trace to select which job of a batch to trace.
// The Chrome exporter renders the slices as a second trace "process" with
// one track per simulated processor.

#include <cstdint>
#include <vector>

#include "util/types.hpp"

namespace logsim::obs {

/// One contiguous interval of simulated activity on one processor.
struct SimSlice {
  const char* kind = "";     ///< "comp" or "comm" (static strings)
  std::uint32_t proc = 0;    ///< simulated processor id
  std::uint64_t step = 0;    ///< program step index
  double start_us = 0.0;     ///< simulated time
  double end_us = 0.0;       ///< simulated time
};

class SimTraceRecorder {
 public:
  /// Drops all slices and per-step scratch (the simulator calls this at
  /// the start of a run, so a reused recorder holds exactly one run).
  void clear();

  /// Opens step `step` over a `procs`-processor machine; subsequent note()
  /// calls merge into per-processor extents until end_step().
  void begin_step(const char* kind, std::uint64_t step, std::size_t procs);

  /// Records that `proc` was busy in the open step over [start, end].
  /// Multiple notes for one processor merge to [min start, max end]: a
  /// compute step's work items on one processor become one slice.
  void note(ProcId proc, Time start, Time end);

  /// Flushes the open step's merged extents as slices, processor order.
  void end_step();

  [[nodiscard]] const std::vector<SimSlice>& slices() const {
    return slices_;
  }
  /// Highest processor count seen (sizes the exporter's track metadata).
  [[nodiscard]] std::size_t procs() const { return procs_; }
  [[nodiscard]] bool empty() const { return slices_.empty(); }

 private:
  std::vector<SimSlice> slices_;
  std::size_t procs_ = 0;

  // Open-step merge scratch, grow-only across steps.
  const char* kind_ = "";
  std::uint64_t step_ = 0;
  std::vector<double> first_start_;
  std::vector<double> last_end_;
  std::vector<char> seen_;
  std::vector<ProcId> touched_;
};

}  // namespace logsim::obs
