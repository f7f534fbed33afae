#include "core/program_sim.hpp"

#include <cassert>
#include <string>
#include <utility>
#include <variant>

#include "core/parallel_comm.hpp"
#include "network/network_model.hpp"
#include "obs/trace.hpp"

namespace logsim::core {

Time ProgramResult::comp_max() const {
  Time t = Time::zero();
  for (Time c : comp) t = max(t, c);
  return t;
}

Time ProgramResult::comm_max() const {
  Time t = Time::zero();
  for (Time c : comm) t = max(t, c);
  return t;
}

Status validate_inputs(const StepProgram& program, const CostTable& costs,
                       const loggp::Params& params) {
  if (!params.valid()) {
    return Status::invalid_input("invalid LogGP parameters " +
                                 params.to_string());
  }
  if (program.procs() < 1) {
    return Status::invalid_input("program needs at least one processor");
  }
  for (std::size_t s = 0; s < program.size(); ++s) {
    const auto& entry = program.step(s);
    const std::string where = " in step " + std::to_string(s);
    if (const auto* cs = std::get_if<ComputeStep>(&entry)) {
      for (const auto& item : cs->items) {
        if (item.proc < 0 || item.proc >= program.procs()) {
          return Status::invalid_input(
              "work item processor " + std::to_string(item.proc) +
              " out of range [0, " + std::to_string(program.procs()) + ")" +
              where);
        }
        if (item.op < 0 || item.op >= costs.op_count()) {
          return Status::invalid_input("work item references unregistered op " +
                                       std::to_string(item.op) + where);
        }
        if (!costs.has_calibration(item.op)) {
          return Status::invalid_input("op '" + costs.name(item.op) +
                                       "' has no calibration points" + where);
        }
        if (item.block_size < 1) {
          return Status::invalid_input("work item block size " +
                                       std::to_string(item.block_size) +
                                       " must be positive" + where);
        }
      }
    } else {
      const auto& pattern = std::get<CommStep>(entry).pattern;
      if (pattern.procs() != program.procs()) {
        return Status::invalid_input(
            "comm step over " + std::to_string(pattern.procs()) +
            " processors inside a " + std::to_string(program.procs()) +
            "-processor program" + where);
      }
      if (!pattern.valid()) {
        return Status::invalid_input("message endpoint out of range" + where);
      }
    }
  }
  return Status{};
}

ProgramSimulator::ProgramSimulator(loggp::Params params, ProgramSimOptions opts)
    : params_(params), opts_(std::move(opts)) {
  assert(params_.valid());
}

ProgramResult ProgramSimulator::run(const StepProgram& program,
                                    const CostTable& costs) const {
  Result<ProgramResult> result = run_checked(program, costs);
  assert(result.ok() && "use run_checked() with cancel/deadline options");
  if (!result.ok()) return ProgramResult{};
  return std::move(result).value();
}

Result<ProgramResult> ProgramSimulator::run_checked(const StepProgram& program,
                                                    const CostTable& costs) const {
  const auto n = static_cast<std::size_t>(program.procs());
  ProgramResult result;
  result.proc_end.assign(n, Time::zero());
  result.comp.assign(n, Time::zero());
  result.comm.assign(n, Time::zero());

  // Stop controls are polled at step boundaries: steps are coarse (one
  // whole compute phase or LogGP communication round), so the poll cost is
  // negligible and a cancelled sweep still unwinds through normal returns.
  const bool check_cancel = opts_.cancel.armed();
  const bool check_deadline =
      opts_.deadline != std::chrono::steady_clock::time_point::max();

  std::vector<Time>& clock = result.proc_end;

  // Hot-path state reused across every comm step of this run: the
  // simulators record into a finish-times-only sink (no caller here ever
  // consumes full traces) and keep grow-only scratch, so after the first
  // comm step the per-step simulations allocate nothing.
  FinishOnlySink sink;
  ParallelCommSimulator comm_sim{params_, ParallelCommOptions{opts_.net}};
  CommSimScratch worst_scratch;

  // A non-flat topology invalidates the step cache wholesale (see the
  // option's comment), so the cache branch is gated off for the whole run
  // rather than per step.
  const bool topo = opts_.net != nullptr && !opts_.net->is_flat();
  StepCache* const step_cache = topo ? nullptr : opts_.step_cache;

  // Step-cache state, equally reused (grow-only): the canonicalizer's
  // relabel maps plus the canonical-order ready/finish buffers.  A warmed
  // cache hit therefore costs a pattern walk and a map probe, no heap.
  pattern::Canonicalizer canonicalizer;
  std::vector<Time> canon_ready;
  std::vector<Time> canon_finish;

  // Observability, both timelines.  Wall-clock spans go to the global
  // trace session (one relaxed load per step when disabled); the optional
  // recorder captures the simulated-machine timeline and is cleared here
  // so a retried job records exactly one run.
  obs::TraceSession& tracer = obs::TraceSession::global();
  obs::SimTraceRecorder* const recorder = opts_.sim_trace;
  if (recorder != nullptr) recorder->clear();

  for (std::size_t step = 0; step < program.size(); ++step) {
    if (check_cancel && opts_.cancel.cancelled()) {
      return Status::cancelled("simulation cancelled before step " +
                               std::to_string(step) + "/" +
                               std::to_string(program.size()));
    }
    if (check_deadline && std::chrono::steady_clock::now() >= opts_.deadline) {
      return Status::timeout("simulation deadline expired before step " +
                             std::to_string(step) + "/" +
                             std::to_string(program.size()));
    }
    const auto& entry = program.step(step);
    if (const auto* cs = std::get_if<ComputeStep>(&entry)) {
      obs::Span span{tracer, "sim.comp_step", "core", step};
      if (recorder != nullptr) recorder->begin_step("comp", step, n);
      for (const auto& item : cs->items) {
        Time dt = costs.cost(item.op, item.block_size);
        if (opts_.compute_overhead) dt += opts_.compute_overhead(item);
        const auto p = static_cast<std::size_t>(item.proc);
        const Time before = clock[p];
        clock[p] += dt;
        result.comp[p] += dt;
        if (recorder != nullptr) recorder->note(item.proc, before, clock[p]);
      }
      if (recorder != nullptr) recorder->end_step();
    } else {
      const auto& comm = std::get<CommStep>(entry);
      const auto& pattern = comm.pattern;
      if (pattern.size() == pattern.self_message_count()) {
        continue;  // only local copies: free under the plain LogGP model
      }
      obs::Span span{tracer, "sim.comm_step", "core", step};
      if (recorder != nullptr) recorder->begin_step("comm", step, n);
      const std::uint64_t step_seed = opts_.seed * 0x100000001b3ULL +
                                      static_cast<std::uint64_t>(step);

      CommStepQuery query;
      std::size_t participants = 0;
      if (step_cache != nullptr) {
        // Interned steps carry their canonicalization from build time
        // (steps are immutable once added), so the per-run cost of a
        // warmed hit is O(participants) -- no walk over the messages.
        // Un-interned patterns (hand-built programs, transform outputs)
        // fall back to analyzing here.
        std::uint64_t canonical_hash = 0;
        bool uniform = true;
        const std::vector<ProcId>* to = nullptr;
        const std::vector<ProcId>* from = nullptr;
        if (comm.canon != nullptr && !comm.from_canonical.empty()) {
          canonical_hash = comm.canon->hash;
          uniform = comm.canon->uniform_bytes;
          to = &comm.to_canonical;
          from = &comm.from_canonical;
          query.canon = comm.canon;
        } else {
          canonicalizer.analyze(pattern);
          canonical_hash = canonicalizer.hash();
          uniform = canonicalizer.uniform_bytes();
          to = &canonicalizer.to_canonical();
          from = &canonicalizer.from_canonical();
          if (comm.canon != nullptr && comm.canon->hash == canonical_hash) {
            query.canon = comm.canon;
          }
        }
        participants = from->size();
        canon_ready.resize(participants);
        for (std::size_t c = 0; c < participants; ++c) {
          canon_ready[c] = clock[static_cast<std::size_t>((*from)[c])];
        }
        // Relabel/seed sharing is only sound for uniform-byte steps under
        // the standard schedule (see core/step_cache.hpp); everything else
        // keys on the exact (seed, permutation) pair.
        query.exact = opts_.worst_case || !uniform;
        query.worst_case = opts_.worst_case;
        query.seed = step_seed;
        query.pattern = &pattern;
        query.to_canonical = to;
        query.from_canonical = from;
        query.ready = &canon_ready;
        query.params = &params_;
        query.key_hash =
            comm_step_key_hash(canonical_hash, canon_ready, params_,
                               query.worst_case, query.exact, step_seed, *from);

        std::size_t cached_ops = 0;
        if (step_cache->lookup(query, canon_finish, cached_ops)) {
          result.comm_ops += cached_ops;
          for (std::size_t c = 0; c < participants; ++c) {
            const auto p = static_cast<std::size_t>((*from)[c]);
            const Time f = canon_finish[c];
            if (f > Time::zero()) {
              result.comm[p] += f - clock[p];
              if (recorder != nullptr) recorder->note((*from)[c], clock[p], f);
              clock[p] = f;
            }
          }
          if (recorder != nullptr) recorder->end_step();
          continue;
        }
      }

      if (opts_.worst_case) {
        sink.reset(program.procs());
        WorstCaseSimulator{params_, WorstCaseOptions{step_seed, opts_.net}}.run_into(
            pattern, clock, sink, worst_scratch);
      } else {
        // Standard schedule: the dispatcher runs the dense scan where it
        // is sound (bit-identical to scalar) and the scalar Figure-2 loop
        // otherwise; it resets the sink.
        comm_sim.run_into(pattern, clock, step_seed, sink);
      }
      result.comm_ops += sink.op_count();
      const std::vector<Time>& finish = sink.finish_times();
      if (step_cache != nullptr) {
        const auto& from = *query.from_canonical;
        canon_finish.resize(participants);
        for (std::size_t c = 0; c < participants; ++c) {
          canon_finish[c] = finish[static_cast<std::size_t>(from[c])];
        }
        query.ops = sink.op_count();
        step_cache->insert(query, canon_finish);
      }
      for (std::size_t p = 0; p < n; ++p) {
        if (finish[p] > Time::zero()) {
          // Residence in the comm phase = exit clock - entry clock.
          result.comm[p] += finish[p] - clock[p];
          if (recorder != nullptr) {
            recorder->note(static_cast<ProcId>(p), clock[p], finish[p]);
          }
          clock[p] = finish[p];
        }
      }
      if (recorder != nullptr) recorder->end_step();
    }
  }

  result.total = Time::zero();
  for (Time t : clock) result.total = max(result.total, t);
  return result;
}

}  // namespace logsim::core
