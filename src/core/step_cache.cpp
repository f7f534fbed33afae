#include "core/step_cache.hpp"

#include "util/hash.hpp"

namespace logsim::core {

std::uint64_t comm_step_key_hash(std::uint64_t canonical_hash,
                                 const std::vector<Time>& ready,
                                 const loggp::Params& params, bool worst_case,
                                 bool exact, std::uint64_t seed,
                                 const std::vector<ProcId>& from_canonical) {
  util::Hasher h;
  h.mix_u64(canonical_hash);
  h.mix_double(params.L.us());
  h.mix_double(params.o.us());
  h.mix_double(params.g.us());
  h.mix_double(params.G);
  h.mix_i64(params.P);
  h.mix_u64(worst_case ? 1 : 0);
  h.mix_u64(ready.size());
  for (const Time t : ready) h.mix_double(t.us());
  if (exact) {
    h.mix_u64(2);  // exact-key tag: seed + permutation follow
    h.mix_u64(seed);
    for (const ProcId p : from_canonical) h.mix_i64(p);
  }
  return h.digest();
}

}  // namespace logsim::core
