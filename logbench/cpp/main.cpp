// logbench -- runs one workload of the logsim benchmark.
//
//   logbench --workload <ge_sweep|ge_revisit|scale_topo|serve_handles>
//            --seed N --seconds S --trace 0|1
//            [--small] [--trace-out FILE] [--logsimd PATH] [--commit ID]
//            [--inject mismatch|stall]
//
// Runs one workload for about S seconds of measurement and prints the host
// fingerprint, notes (digest, sample counts), a metric table, and as the
// last line one JSON object: {"correct", "attempted", "failed", "metrics"}.
// --trace 0 reports the end-to-end metrics; --trace 1 runs the traced
// variant and reports the per-layer metrics.  logbench/run.py builds this
// binary and is the usual entry point.

#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "common.hpp"
#include "workloads.hpp"

using namespace logbench;

namespace {

void usage() {
  std::cerr << "usage: logbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--small]\n"
               "                [--trace-out FILE] [--logsimd PATH] "
               "[--commit ID] [--inject mismatch|stall]\n"
               "workloads: ge_sweep ge_revisit scale_topo serve_handles\n";
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      opt.workload = value();
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      opt.trace = value() != "0";
    } else if (arg == "--small") {
      opt.small = true;
    } else if (arg == "--inject") {
      opt.inject = value();
    } else if (arg == "--trace-out") {
      opt.trace_out = value();
    } else if (arg == "--logsimd") {
      opt.logsimd = value();
    } else if (arg == "--commit") {
      opt.commit = value();
    } else {
      usage();
      return 2;
    }
  }
  if (!(opt.seconds > 0.0)) {
    usage();
    return 2;
  }

  Report report;
  for (const std::string& line : host_fingerprint(opt)) report.note(line);
  if (opt.trace) {
    // A layer the workload does not exercise reads 0.
    for (const MetricSpec& m : per_layer_metrics()) report.metric(m.name, 0.0);
  }
  try {
    if (opt.workload == "ge_sweep") {
      run_ge_sweep(opt, report);
    } else if (opt.workload == "ge_revisit") {
      run_ge_revisit(opt, report);
    } else if (opt.workload == "scale_topo") {
      run_scale_topo(opt, report);
    } else if (opt.workload == "serve_handles") {
      run_serve_handles(opt, report);
    } else {
      usage();
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "logbench: " << opt.workload << ": " << e.what() << '\n';
    return 1;
  }
  return report.print(opt.trace ? per_layer_metrics() : end_to_end_metrics());
}
