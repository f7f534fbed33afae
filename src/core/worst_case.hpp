#pragma once
// The paper's overestimation ("worst-case") algorithm (Section 4.2).
//
// To bound the communication time from above, each processor first waits
// for ALL the messages it has to receive and only afterwards starts
// transmitting its own.  Every processor is assumed to know its expected
// receive count.  Rounds alternate: processors whose counter reached zero
// send all their messages; then every destination performs the matching
// receives.  The paper notes this schedule cannot occur in a real Split-C
// execution (active-message stores do not announce counts) -- it exists
// purely to upper-bound the LogGP communication time.
//
// If the pattern's processor graph has a cycle, every processor on the
// cycle waits forever; the algorithm then "performs randomly some message
// transmissions in order to break the deadlock".
//
// The rounds are event-driven: a round touches only the processors it
// sends from and drains, plus one O(log P) order-statistic draw when it is
// a deadlock break.  With M network messages a step costs
// O((P + M) log P): O(P) setup, an O(log P) tree update per processor
// that runs out of sends, and a sort of each round's drained
// destinations.  No round scans all P processors, which matters on cyclic
// patterns (halos, rings, pairwise exchanges): there most rounds are
// deadlock breaks releasing one message.

#include <cstdint>

#include "core/comm_sink.hpp"
#include "core/sim_scratch.hpp"
#include "core/trace.hpp"
#include "loggp/params.hpp"
#include "pattern/comm_pattern.hpp"
#include "util/types.hpp"

namespace logsim::network {
class NetworkModel;
}  // namespace logsim::network

namespace logsim::core {

struct WorstCaseOptions {
  /// Seed for the random deadlock-breaking transmission choice.
  std::uint64_t seed = 1;
  /// Topology backend (borrowed), same contract as CommSimOptions::net.
  /// The worst-case pass asks step_delays() for the pessimistic share
  /// factor, keeping the standard/worst pair a bracket per topology.
  const network::NetworkModel* net = nullptr;
};

class WorstCaseSimulator {
 public:
  explicit WorstCaseSimulator(loggp::Params params, WorstCaseOptions opts = {});

  [[nodiscard]] CommTrace run(const pattern::CommPattern& pattern) const;
  [[nodiscard]] CommTrace run(const pattern::CommPattern& pattern,
                              const std::vector<Time>& ready) const;

  /// Zero-allocation hot path, mirroring CommSimulator::run_into(): emits
  /// into a caller-supplied sink with caller-supplied scratch.  Traces are
  /// bit-identical to run()'s, including the deadlock-break rng stream.
  /// The library instantiates Sink = CommTrace and Sink = FinishOnlySink.
  template <CommSink Sink>
  void run_into(const pattern::CommPattern& pattern,
                const std::vector<Time>& ready, Sink& sink,
                CommSimScratch& scratch) const;

  [[nodiscard]] const loggp::Params& params() const { return params_; }

 private:
  loggp::Params params_;
  WorstCaseOptions opts_;
};

}  // namespace logsim::core
