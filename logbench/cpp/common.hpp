#pragma once
// Shared plumbing of the logsim benchmark: command-line options, the
// report every run prints (human-readable lines, then one JSON object as
// the last line of stdout), timing statistics, the serial oracle that
// checks every prediction bit for bit, and the in-memory span recorder of
// the traced run.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include <logsim/logsim.hpp>

#include "obs/trace.hpp"

namespace logbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double seconds_since(Clock::time_point start);
[[nodiscard]] double us_between(Clock::time_point a, Clock::time_point b);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Small-size mode: tiny inputs and short windows, for the benchmark's
  /// own tests.  Exercises every check; the numbers mean nothing.
  bool small = false;
  /// Self-test hooks, so a test can prove a check fires: "mismatch"
  /// corrupts one prediction before the oracle sees it; "stall" stops the
  /// serve_handles generator for 200 ms in the middle of its window.
  std::string inject;
  /// Where the traced run writes its Chrome trace (empty: no file).
  std::string trace_out;
  /// logsimd executable for serve_handles.
  std::string logsimd;
  /// Source identity for the host fingerprint (run.py passes a digest of
  /// the library sources; the benchmark's checkout has no git metadata).
  std::string commit = "unknown";
};

// --- statistics ------------------------------------------------------------

[[nodiscard]] double median(std::vector<double> v);
/// Nearest-rank percentile, p in [0, 100]; 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> v, double p);

// --- report ----------------------------------------------------------------

/// One metric of BENCHMARK.json: its name and unit.
struct MetricSpec {
  std::string name;
  std::string unit;
};

/// The end-to-end metrics every untraced run prints, and the per-layer
/// metrics every traced run prints, in BENCHMARK.json order.
[[nodiscard]] const std::vector<MetricSpec>& end_to_end_metrics();
[[nodiscard]] const std::vector<MetricSpec>& per_layer_metrics();

/// Everything a run prints.  Metrics keep their insertion order; the JSON
/// line carries exactly the metrics of the selected kind (end-to-end for
/// untraced runs, per-layer for traced runs).
class Report {
 public:
  /// Records a metric; its unit comes from the metric tables below.
  void metric(const std::string& name, double value);
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  void fail(std::uint64_t n = 1) { failed_ += n; }
  /// A wrong prediction or a broken run invariant: the run is incorrect.
  void incorrect(const std::string& why);
  /// Free-form line printed before the JSON (digests, sample counts).
  void note(const std::string& line);

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] bool correct() const { return correct_; }

  /// Prints the notes, a metric table, and the JSON line with exactly the
  /// metrics of `kind`.  Returns the process exit code (0 even for an
  /// incorrect run: the JSON says so; 1 when a metric is missing).
  int print(const std::vector<MetricSpec>& kind) const;

 private:
  struct Entry {
    std::string name;
    double value = 0.0;
  };
  std::vector<Entry> metrics_;
  std::vector<std::string> notes_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool correct_ = true;
};

/// Repeats a set-up: at least 7 times, and on while the repetitions took
/// under 0.5 s in total (at most 51) -- a cheap set-up is a noisy one.
/// `once(rep)` performs one set-up and returns its duration in seconds;
/// setup_s is the median of the returned durations.
template <typename Fn>
std::vector<double> repeat_setup(Fn&& once) {
  std::vector<double> seconds;
  double total = 0.0;
  for (int rep = 0; rep < 7 || (total < 0.5 && rep < 51); ++rep) {
    seconds.push_back(once(rep));
    total += seconds.back();
  }
  return seconds;
}

/// Peak resident set size in MiB of a process (VmHWM from /proc), 0 when
/// unreadable.  pid 0 means this process.
[[nodiscard]] double peak_rss_mb(int pid = 0);

/// "nproc=4 compiler=... build=Release commit=...", plus a warning line
/// when the build type is not an optimised one.
[[nodiscard]] std::vector<std::string> host_fingerprint(const Options& opt);

// --- correctness -----------------------------------------------------------

/// FNV-1a over the bit patterns of predictions, in job order: one digest
/// per workload lets two commits be compared at a glance.
class Digest {
 public:
  void add(double v);
  void add(const logsim::core::Prediction& p);
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Serial, uncached reference prediction of one job: a plain
/// core::Predictor with only the seed and topology set.
[[nodiscard]] logsim::Result<logsim::core::Prediction> oracle_predict(
    const logsim::core::StepProgram& program,
    const logsim::core::CostTable& costs, const logsim::loggp::Params& params,
    std::uint64_t seed, const logsim::network::NetworkModel* net);

/// Bitwise equality of two predictions: every per-processor vector, the
/// totals and the op counts of both schedules.
[[nodiscard]] bool same_prediction(const logsim::core::Prediction& a,
                                   const logsim::core::Prediction& b);

// --- traced run ------------------------------------------------------------

/// Spans recorded in memory around calls into the library's public
/// functions, aggregated per name and written as a Chrome trace at the end.
class LayerTrace {
 public:
  LayerTrace();

  /// Times `fn()`, recording one span named `name` (a string literal).
  template <typename Fn>
  auto time(const char* name, const char* category, std::uint64_t id,
            Fn&& fn) {
    const double start = session_.now_us();
    struct Finish {
      LayerTrace* self;
      const char* name;
      const char* category;
      std::uint64_t id;
      double start;
      ~Finish() { self->finish(name, category, id, start); }
    } finish{this, name, category, id, start};
    return fn();
  }

  /// Mean span duration (us) per call of `name`; 0 when never recorded.
  [[nodiscard]] double mean_us(const std::string& name) const;
  /// Sum of the durations of `name`'s spans.
  [[nodiscard]] double total_us(const std::string& name) const;

  /// Writes the recorded spans, plus `library` tracks recorded by the
  /// library's own trace session, as one Chrome trace.
  [[nodiscard]] bool write(
      const std::string& path,
      std::vector<logsim::obs::TraceSession::Track> library) const;

 private:
  void finish(const char* name, const char* category, std::uint64_t id,
              double start);

  logsim::obs::TraceSession session_;
  struct Agg {
    double total = 0.0;
    std::size_t n = 0;
  };
  std::map<std::string, Agg> agg_;
};

}  // namespace logbench
