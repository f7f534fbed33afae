#pragma once
// logsim -- umbrella public header.
//
// Execution-driven prediction of parallel program running times under the
// LogGP model, reproducing Rugina & Schauser, "Predicting the Running
// Times of Parallel Programs by Simulation" (IPPS 1998).
//
// Typical use:
//   #include <logsim/logsim.hpp>
//   using namespace logsim;
//   auto params  = loggp::presets::meiko_cs2(8);
//   auto layout  = layout::DiagonalMap{8};
//   auto program = ge::build_ge_program({.n = 960, .block = 48}, layout);
//   auto costs   = ops::analytic_cost_table();
//   auto pred    = core::Predictor{params}.predict_or_die(program, costs);
//   // pred.total(), pred.comm(), pred.comm_worst(), ...
//
// This header aggregates the whole public API.  Code that only needs one
// layer should include the narrower module header instead:
//   <logsim/core.hpp>      simulation core: types, patterns, simulators,
//                          Predictor
//   <logsim/fault.hpp>     Status/Result, cancellation, failpoints
//   <logsim/obs.hpp>       tracing, profiling, metrics, trace exporters
//   <logsim/runtime.hpp>   BatchPredictor, caches, pool
//   <logsim/programs.hpp>  GE / Cannon / stencil / trisolve builders,
//                          layouts, op models, frontend, transforms
//   <logsim/analysis.hpp>  trace analysis, bounds, fitting, search,
//                          testbed, packet network, extensions
//   <logsim/serve.hpp>     the TCP serving layer: daemon, client, wire
//                          codecs

#include "logsim/analysis.hpp"  // IWYU pragma: export
#include "logsim/core.hpp"      // IWYU pragma: export
#include "logsim/fault.hpp"     // IWYU pragma: export
#include "logsim/obs.hpp"       // IWYU pragma: export
#include "logsim/programs.hpp"  // IWYU pragma: export
#include "logsim/runtime.hpp"   // IWYU pragma: export
#include "logsim/serve.hpp"     // IWYU pragma: export
