#include "collective/collective.hpp"

#include <cassert>
#include <variant>
#include <vector>

#include "pattern/canonical.hpp"
#include "pattern/comm_pattern.hpp"

namespace logsim::collective {

namespace {

/// Splits `bytes` into `segments` near-equal parts (remainder on the last).
std::vector<Bytes> split(Bytes bytes, int segments) {
  assert(segments >= 1);
  const std::uint64_t base = bytes.count() / static_cast<std::uint64_t>(segments);
  std::vector<Bytes> out(static_cast<std::size_t>(segments), Bytes{base});
  out.back() = Bytes{bytes.count() -
                     base * static_cast<std::uint64_t>(segments - 1)};
  return out;
}

core::StepProgram broadcast_flat(int procs, const std::vector<Bytes>& segs) {
  core::StepProgram program{procs};
  for (std::size_t s = 0; s < segs.size(); ++s) {
    pattern::CommPattern pat{procs};
    for (int d = 1; d < procs; ++d) {
      pat.add(0, d, segs[s], static_cast<std::int64_t>(s));
    }
    program.add_comm(std::move(pat));
  }
  program.intern_patterns(pattern::PatternInterner::global());
  return program;
}

core::StepProgram broadcast_binomial(int procs, const std::vector<Bytes>& segs) {
  core::StepProgram program{procs};
  for (std::size_t s = 0; s < segs.size(); ++s) {
    for (int stride = 1; stride < procs; stride <<= 1) {
      pattern::CommPattern pat{procs};
      for (int q = 0; q < stride && q < procs; ++q) {
        if (q + stride < procs) {
          pat.add(q, q + stride, segs[s], static_cast<std::int64_t>(s));
        }
      }
      program.add_comm(std::move(pat));
    }
  }
  program.intern_patterns(pattern::PatternInterner::global());
  return program;
}

core::StepProgram broadcast_chain(int procs, const std::vector<Bytes>& segs) {
  core::StepProgram program{procs};
  const int segments = static_cast<int>(segs.size());
  // Time step t: hop i forwards segment t - i (classic pipeline wavefront).
  for (int t = 0; t < segments + procs - 2; ++t) {
    pattern::CommPattern pat{procs};
    for (int hop = 0; hop < procs - 1; ++hop) {
      const int seg = t - hop;
      if (seg >= 0 && seg < segments) {
        pat.add(hop, hop + 1, segs[static_cast<std::size_t>(seg)], seg);
      }
    }
    if (!pat.empty()) program.add_comm(std::move(pat));
  }
  program.intern_patterns(pattern::PatternInterner::global());
  return program;
}

}  // namespace

core::StepProgram broadcast(int procs, Bytes bytes, BcastAlgorithm algorithm,
                            int segments) {
  assert(procs >= 1);
  const auto segs = split(bytes, segments);
  switch (algorithm) {
    case BcastAlgorithm::kFlat: return broadcast_flat(procs, segs);
    case BcastAlgorithm::kBinomial: return broadcast_binomial(procs, segs);
    case BcastAlgorithm::kChainPipeline: return broadcast_chain(procs, segs);
  }
  return core::StepProgram{procs};
}

ReducePlan reduce_binomial(int procs, Bytes bytes, double combine_us_per_byte) {
  ReducePlan plan{core::StepProgram{procs}, core::CostTable{}};
  const core::OpId combine = plan.costs.register_op("combine");
  plan.costs.set_cost(combine, 1,
                      Time{static_cast<double>(bytes.count()) *
                           combine_us_per_byte});

  // Mirror of the binomial broadcast: largest stride first; the receiver
  // folds the arriving partial sum into its own.
  int top = 1;
  while (top < procs) top <<= 1;
  for (int stride = top >> 1; stride >= 1; stride >>= 1) {
    pattern::CommPattern pat{procs};
    core::ComputeStep fold;
    for (int q = 0; q < stride; ++q) {
      if (q + stride < procs) {
        pat.add(q + stride, q, bytes, q + stride);
        fold.add({q, combine, 1}, {q});
      }
    }
    if (!pat.empty()) {
      plan.program.add_comm(std::move(pat));
      plan.program.add_compute(std::move(fold));
    }
  }
  plan.program.intern_patterns(pattern::PatternInterner::global());
  return plan;
}

core::StepProgram allgather_ring(int procs, Bytes bytes) {
  core::StepProgram program{procs};
  // Round r: processor i forwards the chunk originated by (i - r + P) % P.
  for (int r = 0; r < procs - 1; ++r) {
    pattern::CommPattern pat{procs};
    for (int i = 0; i < procs; ++i) {
      const int origin = (i - r + procs) % procs;
      pat.add(i, (i + 1) % procs, bytes, origin);
    }
    program.add_comm(std::move(pat));
  }
  program.intern_patterns(pattern::PatternInterner::global());
  return program;
}

core::StepProgram allgather_doubling(int procs, Bytes bytes) {
  assert(procs >= 1);
  core::StepProgram program{procs};
  // Round r: exchange with i XOR 2^r, shipping the 2^r blocks gathered in
  // earlier rounds.  64-bit strides keep the shifts defined all the way to
  // the 2^31 processor ceiling.
  for (std::int64_t stride = 1; stride < procs; stride <<= 1) {
    pattern::CommPattern pat{procs};
    const Bytes chunk{bytes.count() * static_cast<std::uint64_t>(stride)};
    for (std::int64_t i = 0; i < procs; ++i) {
      const std::int64_t partner = i ^ stride;
      if (partner < procs) {
        pat.add(static_cast<ProcId>(i), static_cast<ProcId>(partner), chunk,
                i);
      }
    }
    program.add_comm(std::move(pat));
  }
  program.intern_patterns(pattern::PatternInterner::global());
  return program;
}

pattern::CommPattern dissemination_round(int procs, int round, Bytes bytes) {
  assert(procs >= 1 && round >= 0);
  pattern::CommPattern pat{procs};
  if (round >= 62) return pat;
  const std::int64_t stride = (std::int64_t{1} << round) %
                              static_cast<std::int64_t>(procs);
  if (stride == 0) return pat;  // every edge would be a self-message
  for (std::int64_t i = 0; i < procs; ++i) {
    const std::int64_t dst = (i + stride) % procs;
    pat.add(static_cast<ProcId>(i), static_cast<ProcId>(dst), bytes, i);
  }
  return pat;
}

std::vector<Bytes> received_bytes(const core::StepProgram& p) {
  std::vector<Bytes> out(static_cast<std::size_t>(p.procs()), Bytes{0});
  for (std::size_t s = 0; s < p.size(); ++s) {
    if (const auto* c = std::get_if<core::CommStep>(&p.step(s))) {
      for (const auto& m : c->pattern.messages()) {
        if (m.src != m.dst) {
          out[static_cast<std::size_t>(m.dst)] += m.bytes;
        }
      }
    }
  }
  return out;
}

}  // namespace logsim::collective
