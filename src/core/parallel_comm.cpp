#include "core/parallel_comm.hpp"

#include <cassert>

#include "network/network_model.hpp"

namespace logsim::core {

namespace {

/// True when every network message carries the same byte count; stops at
/// the first mismatch.  Self-messages are skipped, as the simulators do.
bool uniform_network_bytes(const pattern::CommPattern& pattern) {
  const Bytes* first = nullptr;
  for (const auto& m : pattern.messages()) {
    if (m.src == m.dst) continue;
    if (first == nullptr) {
      first = &m.bytes;
    } else if (m.bytes != *first) {
      return false;
    }
  }
  return true;
}

}  // namespace

ParallelCommSimulator::ParallelCommSimulator(loggp::Params params,
                                             ParallelCommOptions opts)
    : params_(params), opts_(opts) {
  assert(params_.valid());
}

ParallelRunInfo ParallelCommSimulator::run_into(
    const pattern::CommPattern& pattern, const std::vector<Time>& ready,
    std::uint64_t seed, FinishOnlySink& sink) {
  ParallelRunInfo info;
  sink.reset(pattern.procs());
  const bool flat = opts_.net == nullptr || opts_.net->is_flat();
  if (flat && pattern.procs() >= kDenseMinProcs &&
      uniform_network_bytes(pattern)) {
    info.dense =
        CommSimulator{params_}.run_dense_into(pattern, ready, sink, scratch_);
    if (info.dense) return info;
    sink.reset(pattern.procs());  // the scan bailed part-way through
  }
  static const std::vector<Time> no_msg_ready;
  CommSimOptions o;
  o.seed = seed;
  o.net = opts_.net;
  CommSimulator{params_, o}.run_into(pattern, ready, no_msg_ready, sink,
                                     scratch_);
  return info;
}

}  // namespace logsim::core
