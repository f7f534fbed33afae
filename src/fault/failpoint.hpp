#pragma once
// Failpoint injection framework: named, deterministically seeded fault
// sites threaded through the io layer, the prediction and step caches,
// the batch predictor and the serving layer, so tests (and operators
// chasing a production incident) can force transient errors, scheduling
// delays and allocation failures at exact points.
//
// Sites are configured from a spec string, normally via the environment:
//
//   LOGSIM_FAILPOINTS=io.load:err@0.1,batch.job:delay@50ms,cache.lookup:err@1#3
//
// Grammar (comma-separated list):
//   <site>:err[@p][#n]     return a transient Status with probability p
//                          (default 1), at most n times (default unlimited)
//   <site>:delay@<dur>[#n] sleep for <dur> ("50ms", "200us", "1s")
//   <site>:alloc[@p][#n]   throw std::bad_alloc
//
// Determinism: every site owns an independent RNG stream seeded from
// (seed, fnv1a(site)), and draws are serialized per site, so the sequence
// of fire/no-fire decisions at a site depends only on the seed and the
// site's evaluation index -- never on cross-site interleaving.
//
// Instrumented code calls fault::failpoint("site.name"); the fast path is
// one relaxed atomic load when no failpoints are configured.

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "fault/status.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace logsim::fault {

struct FailpointSpec {
  enum class Kind { kError, kDelay, kAllocFail };
  Kind kind = Kind::kError;
  double probability = 1.0;          ///< chance of firing per evaluation
  Time delay = Time::zero();         ///< kDelay: wall-clock sleep
  std::int64_t max_fires = -1;       ///< -1 = unlimited
};

class FailpointRegistry {
 public:
  FailpointRegistry() = default;

  /// Process-wide registry; configured once from LOGSIM_FAILPOINTS /
  /// LOGSIM_FAILPOINT_SEED on first access.
  static FailpointRegistry& global();

  /// Replaces the configuration with `spec` (see grammar above); an empty
  /// spec disarms every site.  Errors leave the registry unchanged.
  Status configure(const std::string& spec, std::uint64_t seed = 1);

  /// Reads LOGSIM_FAILPOINTS (absent/empty = disarm) and
  /// LOGSIM_FAILPOINT_SEED (default 1).
  Status configure_from_env();

  /// Disarms and forgets every site, including its counters.
  void clear();

  /// True when at least one site is configured (lock-free).
  [[nodiscard]] bool armed() const {
    return armed_.load(std::memory_order_relaxed);
  }

  /// Evaluates `site`: returns a transient error Status, sleeps, or throws
  /// std::bad_alloc when the site fires; returns ok otherwise (including
  /// for unconfigured sites).
  Status evaluate(std::string_view site);

  /// Times `site` was evaluated / actually fired (0 for unknown sites).
  [[nodiscard]] std::uint64_t evaluations(std::string_view site) const;
  [[nodiscard]] std::uint64_t fires(std::string_view site) const;
  /// Total fires across all sites (for metrics gauges).
  [[nodiscard]] std::uint64_t total_fires() const;

  /// Configured site names, sorted (for diagnostics).
  [[nodiscard]] std::vector<std::string> sites() const;

 private:
  struct Site {
    FailpointSpec spec;
    util::Rng rng{1};
    std::uint64_t evaluations = 0;
    std::uint64_t fires = 0;
  };

  std::atomic<bool> armed_{false};
  mutable std::mutex mu_;
  std::map<std::string, Site, std::less<>> sites_;
};

/// Evaluates `site` against the global registry.  Near-zero cost when no
/// failpoints are configured.
inline Status failpoint(std::string_view site) {
  FailpointRegistry& registry = FailpointRegistry::global();
  if (!registry.armed()) return Status{};
  return registry.evaluate(site);
}

}  // namespace logsim::fault
