#pragma once
// Text format for whole step programs plus their cost tables, so the CLI
// can predict programs authored or dumped outside the library:
//
//   # comment
//   procs 4
//   op stencil5              # registers op id 0, then 1, ...
//   cost 0 16 250.5          # cost <op-id> <block-size> <microseconds>
//   compute                  # opens a ComputeStep
//   item 0 0 16 7 9          # item <proc> <op> <block> [touched uids...]
//   comm                     # opens a CommStep (closing the previous step)
//   msg 0 1 1024 7           # msg <src> <dst> <bytes> [tag]
//
// Sections end at the next section keyword or EOF.  Declarations (procs/
// op/cost) must precede the first section.  A '#' starts a comment, at the
// start of a line or after its fields; any other trailing token is an
// error, never dropped.
//
// Untrusted boundary: every malformation is a line-numbered invalid-input
// Status.  Beyond per-line syntax, the parser checks cross-references that
// used to be caught only by debug asserts downstream: every item's op must
// end up calibrated (>= 1 cost point), processor ids must be in range, a
// block size must fit an int, and cost values must be finite.

#include <cstddef>
#include <string>

#include "core/cost_table.hpp"
#include "core/step_program.hpp"
#include "fault/status.hpp"

namespace logsim::io {

struct ProgramBundle {
  core::StepProgram program{1};
  core::CostTable costs;
};

struct ProgramParseOptions {
  /// Resource guard for hostile processor counts.
  int max_procs = 1 << 20;
  /// Resource guard for oversized payloads: inputs longer than this many
  /// bytes are rejected up front with an invalid-input Status instead of
  /// being parsed (and allocated) without bound.  load_program() checks the
  /// file size before reading, so a truncated-length or hostile wire
  /// payload never reaches memory.  The serving layer passes its own
  /// (smaller) frame limit through here.
  std::size_t max_bytes = 64ull << 20;
};

/// Errors carry the 1-based line via Status::line().
[[nodiscard]] Result<ProgramBundle> parse_program(
    const std::string& text, const ProgramParseOptions& options = {});
[[nodiscard]] Result<ProgramBundle> load_program(
    const std::string& path, const ProgramParseOptions& options = {});

/// Serializes program + costs into the same format (round-trips).
[[nodiscard]] std::string to_text(const core::StepProgram& program,
                                  const core::CostTable& costs);

}  // namespace logsim::io
