#pragma once
// StepCache: THE comm-step memoization interface -- the single documented
// contract between the program simulator (which consumes it) and the
// runtime (whose runtime::SharedStepCache implements it).
//
// One GE block-size sweep re-simulates the same LogGP communication steps
// thousands of times: the per-iteration pivot broadcast is the identical
// pattern rotated by one processor, and neighbouring sweep configurations
// share most steps outright.  ProgramSimulator can route every comm step
// through a StepCache: before simulating, it canonicalizes the pattern
// (pattern::Canonicalizer) and looks up the step's key; on a hit it applies
// the stored per-processor finish times through the canonical permutation
// instead of simulating.
//
// Ownership and construction (all knobs in one place):
//   * core::ProgramSimOptions::step_cache borrows a StepCache; nullptr (the
//     default) bypasses memoization entirely.  The simulator never owns or
//     constructs a cache.
//   * runtime::SharedStepCache is the (only) implementation: sharded,
//     thread-safe, byte-budgeted.  Construct it directly with a Config, or
//     from the environment with runtime::SharedStepCache::config_from_env().
//   * runtime::BatchPredictor::Config::step_cache shares one instance
//     across all workers of a batch.
//   * Environment / CLI switches, honoured by logsim_cli, the benches and
//     the sweep drivers:
//       LOGSIM_STEP_CACHE=0        disable (runtime::step_cache_env_enabled)
//       LOGSIM_STEP_CACHE_SHARDS=N lock shards      (default 16)
//       LOGSIM_STEP_CACHE_MB=N     byte budget in MiB (default 64)
//       --no-step-cache            per-invocation CLI/bench equivalent
//     Predictions are bit-identical with the cache on or off.
//
// Key anatomy (DESIGN.md section 10):
//   * the canonical pattern hash (relabel-invariant structure),
//   * the LogGP parameters,
//   * the schedule (standard vs worst-case),
//   * the participants' ready times in canonical order, bitwise -- cached
//     finish times are stored as the ABSOLUTE values the simulator
//     produced; rebasing to relative times is NOT bit-exact in floating
//     point, so a hit requires bitwise-identical ready times;
//   * and, for `exact` keys only, the seed plus the canonical->original
//     permutation.
//
// `exact` is forced for (a) the worst-case simulator, whose sender
// collection order and deadlock-break RNG are proc-id-dependent, and
// (b) standard-sim steps whose network messages have mixed byte sizes,
// where tie-breaking makes finish times seed- and relabel-dependent (see
// pattern/canonical.hpp).  Uniform-byte standard steps are shared across
// relabelings and seeds -- the empirically verified safe regime.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "loggp/params.hpp"
#include "pattern/canonical.hpp"
#include "pattern/comm_pattern.hpp"
#include "util/types.hpp"

namespace logsim::core {

/// One lookup/insert request.  All pointers borrow from the caller and are
/// only valid for the duration of the call.
struct CommStepQuery {
  /// comm_step_key_hash() of the fields below; routes and buckets.
  std::uint64_t key_hash = 0;
  /// The original (uncanonicalized) pattern, for collision verification.
  const pattern::CommPattern* pattern = nullptr;
  /// Original proc -> canonical id (kNoProc for non-participants).  Null
  /// for an interned step: `canon` then stands in for the pattern.
  const std::vector<ProcId>* to_canonical = nullptr;
  /// Canonical id -> original proc; size == participant count.
  const std::vector<ProcId>* from_canonical = nullptr;
  /// Shared canonical form when the step was interned (may be null; the
  /// cache materializes its own copy on insert if so).
  std::shared_ptr<const pattern::CanonicalPattern> canon;
  /// Participants' ready times in canonical order.
  const std::vector<Time>* ready = nullptr;
  const loggp::Params* params = nullptr;
  /// Per-step simulation seed; part of the key only when `exact`.
  std::uint64_t seed = 0;
  bool worst_case = false;
  /// Key includes seed + permutation (no relabel sharing); see above.
  bool exact = false;
  /// Insert only: network sends+receives the simulation performed.
  std::size_t ops = 0;
};

/// Hash of the comm-step key described above.  Callers must pass the same
/// `exact` discipline to lookup and insert.
[[nodiscard]] std::uint64_t comm_step_key_hash(
    std::uint64_t canonical_hash, const std::vector<Time>& ready,
    const loggp::Params& params, bool worst_case, bool exact,
    std::uint64_t seed, const std::vector<ProcId>& from_canonical);

/// Abstract cache consumed by ProgramSimulator (implemented by
/// runtime::SharedStepCache).  Implementations must be thread-safe and
/// must verify candidate entries against the full query before reporting
/// a hit -- a 64-bit collision must degrade to a miss, never corrupt a
/// prediction.
class StepCache {
 public:
  virtual ~StepCache() = default;

  /// On hit: fills `finish` with the participants' absolute finish times
  /// in canonical order, sets `ops`, and returns true.  `finish` is reused
  /// caller scratch (assign, never fresh allocation on warmed capacity).
  [[nodiscard]] virtual bool lookup(const CommStepQuery& query,
                                    std::vector<Time>& finish,
                                    std::size_t& ops) = 0;

  /// Stores the result of a simulated step; `finish` in canonical order.
  virtual void insert(const CommStepQuery& query,
                      const std::vector<Time>& finish) = 0;
};

}  // namespace logsim::core
