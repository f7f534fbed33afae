#include "extensions/overlap_sim.hpp"

#include <cassert>
#include <unordered_map>
#include <variant>

#include "core/comm_sim.hpp"
#include "core/worst_case.hpp"

namespace logsim::ext {

OverlapProgramSimulator::OverlapProgramSimulator(loggp::Params params,
                                                 core::ProgramSimOptions opts)
    : params_(params), opts_(std::move(opts)) {
  assert(params_.valid());
}

core::ProgramResult OverlapProgramSimulator::run(
    const core::StepProgram& program, const core::CostTable& costs) const {
  const auto n = static_cast<std::size_t>(program.procs());
  core::ProgramResult result;
  result.proc_end.assign(n, Time::zero());
  result.comp.assign(n, Time::zero());
  result.comm.assign(n, Time::zero());
  std::vector<Time>& clock = result.proc_end;

  // State of the most recent compute step, consulted when the next comm
  // step computes per-processor injection readiness.
  std::vector<Time> entry(n, Time::zero());
  std::vector<Time> full(n, Time::zero());
  // block uid -> completion offset (relative to the producing processor's
  // step entry) of the item that produced it in the last compute step.
  std::unordered_map<std::int64_t, Time> producer_offset;
  std::vector<Time> running(n, Time::zero());

  // Reused across comm steps: finish-times-only sink (this simulator never
  // consumes full traces), shared simulation scratch, and the per-step
  // ready / msg_ready buffers.
  core::CommSimScratch scratch;
  core::FinishOnlySink sink;
  std::vector<Time> ready;
  std::vector<Time> msg_ready;

  for (std::size_t step = 0; step < program.size(); ++step) {
    const auto& s = program.step(step);
    if (const auto* cs = std::get_if<core::ComputeStep>(&s)) {
      entry = clock;
      std::fill(full.begin(), full.end(), Time::zero());
      std::fill(running.begin(), running.end(), Time::zero());
      producer_offset.clear();
      for (std::size_t i = 0; i < cs->items.size(); ++i) {
        const core::WorkItem& item = cs->items[i];
        const auto touched = cs->touched(i);
        const auto p = static_cast<std::size_t>(item.proc);
        Time dt = costs.cost(item.op, item.block_size);
        if (opts_.compute_overhead) dt += opts_.compute_overhead(item, touched);
        running[p] += dt;
        if (!touched.empty()) producer_offset[touched[0]] = running[p];
      }
      full = running;
      for (std::size_t p = 0; p < n; ++p) {
        result.comp[p] += full[p];
        clock[p] = entry[p] + full[p];  // provisional; comm may pull back
      }
    } else {
      const auto& pat = std::get<core::CommStep>(s).pattern;
      if (pat.size() == pat.self_message_count()) continue;

      // Injection readiness: each message may enter the network once the
      // item producing its block is done; a pure receiver overlaps
      // receives with its residual computation entirely.  The worst-case
      // simulator has no per-message hook, so it conservatively waits for
      // the sender's last producing item.
      ready.assign(entry.begin(), entry.end());
      msg_ready.assign(pat.size(), Time::zero());
      const auto& msgs = pat.messages();
      for (std::size_t i = 0; i < msgs.size(); ++i) {
        const auto& m = msgs[i];
        if (m.src == m.dst) continue;
        const auto p = static_cast<std::size_t>(m.src);
        const auto it = producer_offset.find(m.tag);
        // Unknown producer: conservatively wait for the whole step.
        const Time off = it != producer_offset.end() ? it->second : full[p];
        msg_ready[i] = entry[p] + off;
        if (opts_.worst_case) ready[p] = max(ready[p], msg_ready[i]);
      }

      const std::uint64_t step_seed = opts_.seed * 0x100000001b3ULL +
                                      static_cast<std::uint64_t>(step);
      sink.reset(program.procs());
      if (opts_.worst_case) {
        core::WorstCaseSimulator{params_, core::WorstCaseOptions{step_seed}}
            .run_into(pat, ready, sink, scratch);
      } else {
        core::CommSimOptions std_opts;
        std_opts.seed = step_seed;
        core::CommSimulator{params_, std_opts}.run_into(pat, ready, msg_ready,
                                                        sink, scratch);
      }
      result.comm_ops += sink.op_count();

      const std::vector<Time>& finish = sink.finish_times();
      for (std::size_t p = 0; p < n; ++p) {
        const Time compute_done = entry[p] + full[p];
        const Time leave =
            finish[p] > Time::zero() ? max(compute_done, finish[p])
                                     : compute_done;
        // Only the communication time not hidden behind computation counts.
        if (leave > compute_done) result.comm[p] += leave - compute_done;
        clock[p] = leave;
      }
      // A block sent here was produced before; it cannot be produced again
      // for the next comm step.  A subsequent comm step (no compute in
      // between) must not re-enter before this one's exit either.
      producer_offset.clear();
      entry = clock;
      std::fill(full.begin(), full.end(), Time::zero());
    }
  }

  result.total = Time::zero();
  for (Time t : clock) result.total = max(result.total, t);
  return result;
}

}  // namespace logsim::ext
