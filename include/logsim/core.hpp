#pragma once
// logsim/core.hpp -- the simulation core.
//
// Everything needed to build a StepProgram by hand and predict it: the
// basic types and utilities, the event-driven LogGP engine, communication
// patterns and their canonical forms, the per-step simulators and the
// Predictor facade.  Algorithm builders (GE, Cannon, ...) live in
// logsim/programs.hpp, the hardened batch runtime in logsim/runtime.hpp.

#include "core/comm_sim.hpp"        // IWYU pragma: export
#include "core/cost_table.hpp"      // IWYU pragma: export
#include "core/parallel_comm.hpp"   // IWYU pragma: export
#include "core/predictor.hpp"       // IWYU pragma: export
#include "core/program_sim.hpp"     // IWYU pragma: export
#include "core/step_cache.hpp"      // IWYU pragma: export
#include "core/step_program.hpp"    // IWYU pragma: export
#include "core/trace.hpp"           // IWYU pragma: export
#include "core/worst_case.hpp"      // IWYU pragma: export
#include "des/simulator.hpp"        // IWYU pragma: export
#include "loggp/cost.hpp"           // IWYU pragma: export
#include "loggp/params.hpp"         // IWYU pragma: export
#include "network/network_model.hpp"   // IWYU pragma: export
#include "network/topology_spec.hpp"   // IWYU pragma: export
#include "pattern/builders.hpp"     // IWYU pragma: export
#include "pattern/canonical.hpp"    // IWYU pragma: export
#include "pattern/comm_pattern.hpp" // IWYU pragma: export
#include "pattern/component_split.hpp" // IWYU pragma: export
#include "util/ascii_chart.hpp"     // IWYU pragma: export
#include "util/csv.hpp"             // IWYU pragma: export
#include "util/rng.hpp"             // IWYU pragma: export
#include "util/stats.hpp"           // IWYU pragma: export
#include "util/table.hpp"           // IWYU pragma: export
#include "util/types.hpp"           // IWYU pragma: export
