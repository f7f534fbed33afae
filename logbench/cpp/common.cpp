#include "common.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <thread>

#include "obs/chrome_trace.hpp"

namespace logbench {

using namespace logsim;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  // Nearest rank: the smallest value with at least p% of the sample at or
  // below it.
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const auto i = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return v[std::min(i, v.size() - 1)];
}

// --- report ----------------------------------------------------------------

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"jobs_per_s", "1/s"},      {"p50_us", "us"},
      {"p99_us", "us"},           {"sustained_per_s", "1/s"},
      {"setup_s", "s"},           {"peak_rss_mb", "MiB"},
      {"std_err_pct", "%"},       {"bracket_pct", "%"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"ge.build_us", "us"},
      {"io.parse_us", "us"},
      {"io.text_bytes", "bytes"},
      {"core.validate_us", "us"},
      {"core.std_us", "us"},
      {"core.worst_us", "us"},
      {"core.comm_std_step_us", "us"},
      {"core.comm_worst_step_us", "us"},
      {"core.comm_ops", "count"},
      {"core.ns_per_op_std", "ns"},
      {"core.ns_per_op_worst", "ns"},
      {"pattern.canon_us", "us"},
      {"pattern.components", "count"},
      {"network.std_overhead_pct", "%"},
      {"runtime.key_hash_us", "us"},
      {"runtime.cache_lookup_us", "us"},
      {"runtime.cache_hit_rate", "ratio"},
      {"runtime.cache_insert_us", "us"},
      {"runtime.cache_bytes", "bytes"},
      {"runtime.step_hit_rate", "ratio"},
      {"runtime.step_relabel_hits", "count"},
      {"runtime.step_bytes", "bytes"},
      {"runtime.queue_wait_us", "us"},
      {"runtime.job_wall_us", "us"},
      {"runtime.straggler_share", "ratio"},
      {"serve.ping_rtt_us", "us"},
      {"serve.encode_us", "us"},
      {"serve.decode_us", "us"},
      {"serve.memo_lookup_us", "us"},
      {"serve.register_us", "us"},
      {"serve.memo_hit_rate", "ratio"},
      {"serve.server_queue_us", "us"},
      {"serve.coalesced_jobs", "count"},
      {"serve.rejected", "count"},
      {"serve.errors", "count"},
      {"machine.testbed_ms", "ms"},
      {"bench.gen_lag_p99_us", "us"},
      {"bench.trace_overhead_pct", "%"},
      {"bench.layer_coverage_pct", "%"},
  };
  return specs;
}

void Report::metric(const std::string& name, double value) {
  for (Entry& e : metrics_) {
    if (e.name == name) {
      e.value = value;
      return;
    }
  }
  metrics_.push_back(Entry{name, value});
}

void Report::incorrect(const std::string& why) {
  correct_ = false;
  notes_.push_back("INCORRECT: " + why);
}

void Report::note(const std::string& line) { notes_.push_back(line); }

namespace {

std::string json_number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

}  // namespace

int Report::print(const std::vector<MetricSpec>& kind) const {
  for (const std::string& line : notes_) std::cout << line << '\n';
  std::cout << "fail_frac "
            << (attempted_ == 0 ? 0.0
                                : static_cast<double>(failed_) /
                                      static_cast<double>(attempted_))
            << " (" << failed_ << " of " << attempted_ << " attempts)\n";
  std::string json = "{\"correct\": ";
  json += correct_ ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  util::Table table{{"metric", "value", "unit"}};
  bool first = true;
  for (const auto& [name, unit] : kind) {
    const auto it = std::find_if(metrics_.begin(), metrics_.end(),
                                 [&](const Entry& e) { return e.name == name; });
    if (it == metrics_.end() || !std::isfinite(it->value)) {
      std::cerr << "logbench: metric " << name
                << (it == metrics_.end() ? " was not measured"
                                         : " is not a finite number")
                << '\n';
      return 1;
    }
    table.add_row({name, json_number(it->value), unit});
    json += first ? "" : ", ";
    first = false;
    json += "\"" + name + "\": {\"value\": " + json_number(it->value) +
            ", \"unit\": \"" + unit + "\"}";
  }
  json += "}}";
  std::cout << table << json << std::endl;
  return 0;
}

double peak_rss_mb(int pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in{path};
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

std::vector<std::string> host_fingerprint(const Options& opt) {
  const std::string build = LOGBENCH_BUILD_TYPE;
  std::vector<std::string> lines;
  lines.push_back("host: nproc=" +
                  std::to_string(std::thread::hardware_concurrency()) +
                  " compiler=\"" + LOGBENCH_CXX_ID + "\" build=" +
                  (build.empty() ? "(none)" : build) + " commit=" + opt.commit);
  if (build != "Release" && build != "RelWithDebInfo") {
    lines.push_back("WARNING: build type '" + build +
                    "' is not an optimised build; timings are not comparable");
  }
  return lines;
}

// --- correctness -----------------------------------------------------------

void Digest::add(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  for (int i = 0; i < 8; ++i) {
    h_ ^= (bits >> (8 * i)) & 0xffU;
    h_ *= 0x100000001b3ULL;
  }
}

void Digest::add(const core::Prediction& p) {
  add(p.total().us());
  add(p.comp().us());
  add(p.comm().us());
  add(p.total_worst().us());
  add(p.comm_worst().us());
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

Result<core::Prediction> oracle_predict(const core::StepProgram& program,
                                        const core::CostTable& costs,
                                        const loggp::Params& params,
                                        std::uint64_t seed,
                                        const network::NetworkModel* net) {
  core::ProgramSimOptions opts;
  opts.seed = seed;
  opts.net = net;
  return core::Predictor{params, opts}.predict(program, costs);
}

namespace {

bool same_result(const core::ProgramResult& a, const core::ProgramResult& b) {
  return a.total == b.total && a.proc_end == b.proc_end && a.comp == b.comp &&
         a.comm == b.comm && a.comm_ops == b.comm_ops;
}

}  // namespace

bool same_prediction(const core::Prediction& a, const core::Prediction& b) {
  return same_result(a.standard, b.standard) &&
         same_result(a.worst_case, b.worst_case);
}

// --- traced run ------------------------------------------------------------

LayerTrace::LayerTrace() {
  session_.set_thread_name("main");
  session_.enable();
}

void LayerTrace::finish(const char* name, const char* category,
                        std::uint64_t id, double start) {
  const double dur = session_.now_us() - start;
  session_.complete(name, category, start, dur, id);
  Agg& a = agg_[name];
  a.total += dur;
  ++a.n;
}

double LayerTrace::mean_us(const std::string& name) const {
  const auto it = agg_.find(name);
  return it == agg_.end() || it->second.n == 0
             ? 0.0
             : it->second.total / static_cast<double>(it->second.n);
}

double LayerTrace::total_us(const std::string& name) const {
  const auto it = agg_.find(name);
  return it == agg_.end() ? 0.0 : it->second.total;
}

bool LayerTrace::write(const std::string& path,
                       std::vector<obs::TraceSession::Track> library) const {
  std::vector<obs::TraceSession::Track> tracks = session_.collect();
  const auto offset = static_cast<std::uint32_t>(tracks.size());
  for (obs::TraceSession::Track& t : library) {
    t.track += offset;
    t.name = "library " + t.name;
    tracks.push_back(std::move(t));
  }
  std::ofstream out{path};
  out << obs::to_chrome_json(tracks);
  return static_cast<bool>(out.flush());
}

}  // namespace logbench
