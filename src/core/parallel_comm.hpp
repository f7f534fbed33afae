#pragma once
// Finish-times dispatcher for one standard-schedule communication step.
//
// ParallelCommSimulator picks one of CommSimulator's two finish-times
// engines from inputs it can see:
//
//   * on a flat network, at P >= kDenseMinProcs, a step whose network
//     messages all carry the same byte count runs the dense ordered-ties
//     scan (CommSimulator::run_dense_into) over the whole pattern, falling
//     back to the seeded heap loop when the scan's density budget bails;
//   * every other step runs the seeded heap loop (CommSimulator::run_into).
//
// Either way the result equals CommSimulator::run_into with a
// FinishOnlySink, bit-for-bit.  The uniform-bytes gate is the soundness
// argument, not a heuristic (pattern/canonical.hpp): under it the
// standard schedule's finish times are independent of the tie-break
// policy, so the scan's lowest-processor-first order yields the very
// times the seeded rng order does.  A non-flat network adds delays keyed
// on absolute processor ids, which that argument does not survive.
//
// The class is named for a component-parallel path it no longer has
// (DESIGN.md §13.3 says why that path was removed).  The name stays, as do
// ParallelCommOptions::net, run_into(pattern, ready, seed, sink) and
// pattern::ComponentSplit::analyze (read for the pattern.components
// figure), because logbench/cpp/sweeps.cpp compiles against them and the
// benchmark must build unchanged on both sides of an A/B comparison.

#include <cstdint>
#include <vector>

#include "core/comm_sim.hpp"
#include "core/comm_sink.hpp"
#include "core/sim_scratch.hpp"
#include "loggp/params.hpp"
#include "pattern/comm_pattern.hpp"
#include "util/types.hpp"

namespace logsim::core {

struct ParallelCommOptions {
  /// Topology backend (borrowed), same contract as CommSimOptions::net.  A
  /// non-flat model forces the heap loop (see the file comment).
  const network::NetworkModel* net = nullptr;
};

/// What a run did -- exposed for tests and benches.
struct ParallelRunInfo {
  /// True when the dense ordered-ties scan produced the result; false
  /// when the heap loop did (gated off, or the scan bailed).
  bool dense = false;
};

class ParallelCommSimulator {
 public:
  /// Smallest processor count at which the dense scan is tried; smaller
  /// steps run the heap loop.  A speed choice only: results are the same.
  static constexpr int kDenseMinProcs = 2048;

  explicit ParallelCommSimulator(loggp::Params params,
                                 ParallelCommOptions opts = {});

  /// Simulates `pattern` with per-processor ready times into `sink`,
  /// resetting it first.  `seed` drives the heap loop's tie-break stream;
  /// a seed per call lets one warmed instance serve every step of a
  /// program run.  Not const and not thread-safe: the scratch lives in the
  /// simulator (use one instance per calling thread).
  ParallelRunInfo run_into(const pattern::CommPattern& pattern,
                           const std::vector<Time>& ready, std::uint64_t seed,
                           FinishOnlySink& sink);

  [[nodiscard]] const loggp::Params& params() const { return params_; }

 private:
  loggp::Params params_;
  ParallelCommOptions opts_;
  CommSimScratch scratch_;
};

}  // namespace logsim::core
