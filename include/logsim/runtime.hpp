#pragma once
// logsim/runtime.hpp -- the hardened batch-prediction runtime.
//
// BatchPredictor fans independent prediction jobs across a thread pool
// with retries, deadlines, cancellation, crash-safe checkpointing, a
// whole-prediction memoization cache and the shared comm-step cache.
// Metrics live in logsim/obs.hpp (runtime::metrics is an alias).

#include "runtime/batch_predictor.hpp"   // IWYU pragma: export
#include "runtime/checkpoint.hpp"        // IWYU pragma: export
#include "runtime/metrics.hpp"           // IWYU pragma: export
#include "runtime/prediction_cache.hpp"  // IWYU pragma: export
#include "runtime/step_cache.hpp"        // IWYU pragma: export
#include "runtime/thread_pool.hpp"       // IWYU pragma: export
