#pragma once
// Collective-communication schedules expressed as StepPrograms.
//
// Prior LogGP work (Karp et al., "Optimal broadcast and summation in the
// LogP model") derived collectives analytically; here they are *programs*
// fed to the same simulator that handles irregular patterns, which lets
// us (a) cross-check the simulator against the closed forms and (b)
// explore segmented/pipelined variants no closed form covers.  Segments
// pipeline naturally because the program simulator carries per-processor
// clocks across steps.
//
// All builders emit pure communication programs except reduce, whose
// combining work needs a cost: reduce returns the program together with a
// self-contained cost table.

#include <cstdint>

#include "core/cost_table.hpp"
#include "core/step_program.hpp"
#include "pattern/comm_pattern.hpp"
#include "util/types.hpp"

namespace logsim::collective {

enum class BcastAlgorithm {
  kFlat,         ///< root sends to every destination directly
  kBinomial,     ///< log2(P) doubling rounds
  kChainPipeline ///< linear chain, segments pipelined hop by hop
};

/// Broadcast `bytes` from processor 0 to everyone.  With `segments` > 1
/// the payload is split into equal parts that travel independently
/// (trailing remainder goes to the last segment).
[[nodiscard]] core::StepProgram broadcast(int procs, Bytes bytes,
                                          BcastAlgorithm algorithm,
                                          int segments = 1);

/// Binomial-tree reduction to processor 0.  Every arriving message is
/// folded into the local value by a "combine" work item costing
/// combine_us_per_byte * bytes.
struct ReducePlan {
  core::StepProgram program;
  core::CostTable costs;
};
[[nodiscard]] ReducePlan reduce_binomial(int procs, Bytes bytes,
                                         double combine_us_per_byte);

/// Ring allgather: after P-1 steps every processor holds every
/// processor's `bytes`-sized contribution.
[[nodiscard]] core::StepProgram allgather_ring(int procs, Bytes bytes);

/// Recursive-doubling allgather: ceil(log2 P) exchange rounds where round
/// r pairs i with i XOR 2^r and moves the 2^r blocks accumulated so far.
/// Unlike allgather_ring's P-1 steps this stays buildable at mega-scale
/// (P = 65536..1M is 16..20 comm steps); partners >= P are skipped so
/// non-power-of-two machines degrade gracefully.
[[nodiscard]] core::StepProgram allgather_doubling(int procs, Bytes bytes);

/// One dissemination-barrier round: every processor i sends to
/// (i + 2^round) mod P.  The edge set is a union of gcd(P, 2^round)
/// disjoint cycles (a P = 1M round 6 is 64 independent rings), the
/// multi-component case of the dense-scan timing rows in
/// bench/perf_regression --p-sweep.
[[nodiscard]] pattern::CommPattern dissemination_round(int procs, int round,
                                                       Bytes bytes);

/// Total payload received per processor in a program (test helper for
/// delivery accounting).
[[nodiscard]] std::vector<Bytes> received_bytes(const core::StepProgram& p);

}  // namespace logsim::collective
