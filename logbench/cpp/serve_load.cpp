// serve_handles: logsimd as a child process, driven by one open-loop
// generator thread over two binary-protocol connections.
//
// Set-up starts the daemon (--workers 2 --reactors 1), waits for its
// "listening on" line and REGISTERs the four GE programs; a warm pass
// then puts every point of a fixed (handle, params, seed) grid into the
// per-program memo.  Requests re-ask grid points, except one in twenty
// that carries a fresh seed: a memo miss, a simulation on a worker and a
// memo write.  Each request is due at a fixed time of the schedule and its
// latency runs from that due time to its reply, so a stall is charged to
// every request it delays.  The generator thread plus the daemon's three
// threads stay within the four cores the benchmark host has.
//
// The run has two parts: a window at one fixed offered rate (p50, p99,
// jobs/s, the daemon's peak RSS), then a coarse and a fine ramp of offered
// rates that find where p99 or the backlog exceeds the latency limit
// (sustained rate).  Every reply is checked against a serial
// core::Predictor after the windows.

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <random>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "io/params_io.hpp"
#include "io/program_io.hpp"
#include "workloads.hpp"

extern char** environ;

namespace logbench {

using namespace logsim;

namespace {

// Offered rate of the fixed-rate window.  The seed commit sustains about
// 60 000/s under the latency limit on a quiet 4-core Xeon host and about
// half that when its neighbours are busy, so this is a fifth of the quiet
// figure: the window stays below capacity on a busy host too.
constexpr double kFixedRate = 12000.0;
// p99 limit (due time to reply) of the sustained-rate search: about five
// times the unloaded p99, which is one fresh-seed simulation (~2 ms).  p99
// climbs slowly below capacity and steeply past it; a limit in the steep
// part pins the search to the daemon's capacity instead of to host noise.
constexpr double kLatencyLimitUs = 10000.0;
// One request in every kFreshEvery (5%) carries a fresh seed (memo and
// cache miss), at a seeded position in its block, and the fresh requests
// cycle through the (program, params) classes in seeded order: every
// sub-window then holds the same mix of misses, and its p99 -- which lies
// in the misses of the costliest program -- does not move with the draw.
constexpr std::size_t kFreshEvery = 20;
// Stepped rates of the sustained-rate search: a coarse ramp
// kFixedRate * kStepStart * kCoarseFactor^k, k < kCoarseSteps (24 000/s to
// 114 000/s), then kFineRamps fine ones of up to kFineSteps kFineFactor
// steps, which span a coarse step in five.  A step lasts kStepShare of the
// run's seconds.
constexpr double kStepStart = 2.0;
constexpr double kCoarseFactor = 1.25;
constexpr int kCoarseSteps = 8;
constexpr double kFineFactor = 1.05;
constexpr int kFineSteps = 6;
constexpr int kFineRamps = 3;
constexpr double kStepShare = 0.025;
// Sub-window length of the p99 estimate, and the quantile of the
// sub-windows' p99s that is reported.  Stalls of a shared host (steal time,
// busy neighbours) only ever add latency, and in a busy hour they reach
// most sub-windows; with a fixed miss mix per sub-window, the lower
// quartile still sees the daemon's own p99 where the median does not.
constexpr double kSubWindowS = 0.1;
constexpr double kSubWindowQuantile = 25.0;

// --- the daemon --------------------------------------------------------------

/// logsimd as a child process; stopped (SIGTERM, then SIGKILL) and reaped
/// by the destructor.
class Daemon {
 public:
  explicit Daemon(const std::string& path) {
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0) throw std::runtime_error("pipe2 failed");
    out_fd_ = fds[0];
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, "/dev/null",
                                     O_WRONLY, 0);
    // Admission control stays out of the way (a rejection cliff would cut
    // the latency curve off before it reaches the limit); overload shows
    // as latency instead.
    std::vector<std::string> args = {path,        "--port",         "0",
                                     "--workers", "2",              "--reactors",
                                     "1",         "--max-inflight", "1000000",
                                     "--host",    "127.0.0.1"};
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    const int rc = posix_spawn(&pid_, path.c_str(), &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(fds[1]);
    if (rc != 0) {
      pid_ = -1;
      ::close(out_fd_);
      throw std::runtime_error("cannot start " + path + ": " + std::strerror(rc));
    }
    port_ = read_port();
  }

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() { stop(); }

  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] int pid() const { return pid_; }

  void stop() {
    if (pid_ > 0) {
      ::kill(pid_, SIGTERM);
      int status = 0;
      bool reaped = false;
      for (int i = 0; i < 500 && !reaped; ++i) {  // up to 5 s
        reaped = ::waitpid(pid_, &status, WNOHANG) == pid_;
        if (!reaped) std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
      if (!reaped) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
      }
      pid_ = -1;
    }
    if (out_fd_ >= 0) {
      ::close(out_fd_);
      out_fd_ = -1;
    }
  }

 private:
  /// Reads the daemon's stdout until "listening on HOST:PORT" (10 s max).
  std::uint16_t read_port() {
    std::string text;
    const auto start = Clock::now();
    while (seconds_since(start) < 10.0) {
      pollfd p{out_fd_, POLLIN, 0};
      if (::poll(&p, 1, 100) <= 0) continue;
      char buf[256];
      const ssize_t n = ::read(out_fd_, buf, sizeof buf);
      if (n <= 0) break;
      text.append(buf, static_cast<std::size_t>(n));
      const std::size_t at = text.find("listening on ");
      const std::size_t eol = text.find('\n', at);
      if (at != std::string::npos && eol != std::string::npos) {
        const std::size_t colon = text.rfind(':', eol);
        return static_cast<std::uint16_t>(
            std::strtoul(text.c_str() + colon + 1, nullptr, 10));
      }
    }
    stop();
    throw std::runtime_error("logsimd did not report its port");
  }

  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::uint16_t port_ = 0;
};

serve::Client connect_v3(std::uint16_t port) {
  Result<serve::Client> c = serve::Client::connect("127.0.0.1", port);
  if (!c.ok()) throw std::runtime_error("connect: " + c.status().to_string());
  serve::Client client = std::move(c).value();
  if (const Status st = client.hello(); !st.ok()) {
    throw std::runtime_error("HELLO: " + st.to_string());
  }
  if (client.codec() != serve::Codec::kBinary) {
    throw std::runtime_error("the daemon did not negotiate the binary codec");
  }
  return client;
}

// --- inputs ------------------------------------------------------------------

struct ServeInputs {
  std::vector<std::string> texts;  ///< io::to_text of each GE program
  std::vector<io::ProgramBundle> bundles;  ///< the texts parsed back
  std::vector<std::string> params_texts = {"meiko", "L=20,o=3,g=15,G=0.04"};
  std::vector<std::uint64_t> grid_seeds;

  /// A grid point: (program, params text, seed).
  struct Point {
    std::size_t program = 0;
    std::size_t params = 0;
    std::uint64_t seed = 0;
  };
  std::vector<Point> grid;
  std::vector<core::Prediction> grid_oracle;

  [[nodiscard]] loggp::Params params_for(std::size_t program,
                                         std::size_t params) const {
    loggp::Params defaults;
    defaults.P = bundles[program].program.procs();
    Result<loggp::Params> p = io::parse_params(params_texts[params], defaults);
    if (!p.ok()) throw std::runtime_error(p.status().to_string());
    loggp::Params out = p.value();
    out.P = defaults.P;
    return out;
  }

  [[nodiscard]] core::Prediction oracle(std::size_t program, std::size_t params,
                                        std::uint64_t seed) const {
    Result<core::Prediction> p =
        oracle_predict(bundles[program].program, bundles[program].costs,
                       params_for(program, params), seed, nullptr);
    if (!p.ok()) throw std::runtime_error("oracle: " + p.status().to_string());
    return std::move(p).value();
  }
};

ServeInputs make_inputs(const Options& opt, LayerTrace* tr) {
  ServeInputs in;
  const int n = opt.small ? 240 : 960;
  const std::vector<int> blocks =
      opt.small ? std::vector<int>{24, 48, 60, 120} : std::vector<int>{32, 64, 96, 120};
  const core::CostTable costs = ops::analytic_cost_table();
  const layout::DiagonalMap map{8};
  for (const int b : blocks) {
    in.texts.push_back(io::to_text(
        ge::build_ge_program(ge::GeConfig{.n = n, .block = b}, map), costs));
  }
  for (std::size_t i = 0; i < in.texts.size(); ++i) {
    const auto parse = [&] { return io::parse_program(in.texts[i]); };
    Result<io::ProgramBundle> b =
        tr != nullptr ? tr->time("io.parse", "io", i, parse) : parse();
    if (!b.ok()) throw std::runtime_error("parse: " + b.status().to_string());
    in.bundles.push_back(std::move(b).value());
  }
  for (int s = 0; s < 4; ++s) {
    in.grid_seeds.push_back(mix_seed(opt.seed * 7 + static_cast<std::uint64_t>(s)) %
                                100000 + 1);
  }
  for (std::size_t p = 0; p < in.texts.size(); ++p) {
    for (std::size_t q = 0; q < in.params_texts.size(); ++q) {
      for (const std::uint64_t seed : in.grid_seeds) {
        in.grid.push_back(ServeInputs::Point{p, q, seed});
        in.grid_oracle.push_back(in.oracle(p, q, seed));
      }
    }
  }
  return in;
}

// --- the load generator -------------------------------------------------------

/// One request of the schedule and what came back.
struct Request {
  std::size_t program = 0;
  std::size_t params = 0;
  std::uint64_t seed = 0;
  std::size_t grid = 0;  ///< grid index; meaningful unless fresh
  bool fresh = false;
  double due_us = 0.0;
  double lag_us = 0.0;   ///< send time - due time
  double latency_us = -1.0;  ///< due time to reply; < 0: no reply
  bool error = false;
  serve::PredictReply reply;
};

/// A raw non-blocking binary connection taken over from a Client after
/// HELLO.  The Client keeps owning (and finally closes) the socket.
struct Wire {
  int fd = -1;
  std::string out;
  serve::FrameAssembler in{serve::WireLimits{}};
};

class Generator {
 public:
  Generator(const ServeInputs& inputs, std::vector<std::uint64_t> handles,
            std::uint64_t seed, std::uint16_t port)
      : inputs_(inputs), handles_(std::move(handles)), rng_(mix_seed(seed ^ 0x6e6e)),
        fresh_base_(1000000 + (mix_seed(seed) % 1000) * 1000000) {
    for (int c = 0; c < 2; ++c) {
      clients_.push_back(std::make_unique<serve::Client>(connect_v3(port)));
      wires_[c].fd = clients_.back()->fd();
      ::fcntl(wires_[c].fd, F_SETFL, ::fcntl(wires_[c].fd, F_GETFL) | O_NONBLOCK);
    }
    epoch_ = Clock::now();
  }

  struct Phase {
    std::size_t first = 0;  ///< index range in requests()
    std::size_t last = 0;
    double seconds = 0.0;

    [[nodiscard]] std::size_t size() const { return last - first; }
  };

  /// Offers `rate` requests/s for `seconds` on a fixed schedule, then waits
  /// up to `drain_s` for the stragglers.  `stall` stops the generator for
  /// the first 60% of the window (a self-test of the lag check).
  Phase run(double rate, double seconds, double drain_s, bool stall = false) {
    Phase ph;
    ph.first = requests_.size();
    phase_first_ = ph.first;
    ph.seconds = seconds;
    const auto count = static_cast<std::size_t>(std::llround(rate * seconds));
    const double start_us = now_us() + 1000.0;
    const double period = 1e6 / rate;
    std::size_t next = 0;
    std::size_t outstanding = 0;
    const double end_us = start_us + seconds * 1e6 + drain_s * 1e6;
    if (stall) {
      std::this_thread::sleep_for(std::chrono::duration<double>(0.6 * seconds));
    }
    while (next < count || outstanding > 0) {
      double t = now_us();
      if (t > end_us) break;
      while (next < count && start_us + static_cast<double>(next) * period <= t) {
        send(start_us + static_cast<double>(next) * period, t);
        ++next;
        ++outstanding;
        t = now_us();
      }
      const double wait_us =
          next < count ? start_us + static_cast<double>(next) * period - t : 1000.0;
      outstanding -= poll_replies(std::max(0.0, std::min(wait_us, 1000.0)));
    }
    ph.last = requests_.size();
    return ph;
  }

  [[nodiscard]] std::vector<Request>& requests() { return requests_; }

 private:
  [[nodiscard]] double now_us() const { return us_between(epoch_, Clock::now()); }

  void send(double due_us, double now) {
    Request r;
    const std::size_t n = requests_.size();
    if (n % kFreshEvery == 0) fresh_at_ = n + rng_() % kFreshEvery;
    r.fresh = n == fresh_at_;
    if (r.fresh) {
      // The grid lists each (program, params) class's seeds together.
      const std::size_t seeds = inputs_.grid_seeds.size();
      if (fresh_next_ == fresh_order_.size()) {
        fresh_order_.resize(inputs_.grid.size() / seeds);
        for (std::size_t c = 0; c < fresh_order_.size(); ++c) fresh_order_[c] = c;
        std::shuffle(fresh_order_.begin(), fresh_order_.end(), rng_);
        fresh_next_ = 0;
      }
      r.grid = fresh_order_[fresh_next_++] * seeds + rng_() % seeds;
    } else {
      r.grid = static_cast<std::size_t>(rng_() % inputs_.grid.size());
    }
    const ServeInputs::Point& pt = inputs_.grid[r.grid];
    r.program = pt.program;
    r.params = pt.params;
    r.seed = r.fresh ? fresh_base_ + requests_.size() : pt.seed;
    r.due_us = due_us;
    r.lag_us = now - due_us;
    serve::PredictRequest req;
    req.handle = handles_[r.program];
    req.params_text = inputs_.params_texts[r.params];
    req.seed = r.seed;
    const std::uint64_t id = requests_.size() + 1;
    requests_.push_back(std::move(r));
    Wire& w = wires_[id % 2];
    serve::append_frame(w.out, serve::Frame{serve::FrameKind::kPredict, id,
                                            serve::encode_predict_request(
                                                req, serve::Codec::kBinary)});
    flush(w);
  }

  void flush(Wire& w) {
    while (!w.out.empty()) {
      const ssize_t n = ::send(w.fd, w.out.data(), w.out.size(), MSG_NOSIGNAL);
      if (n > 0) {
        w.out.erase(0, static_cast<std::size_t>(n));
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return;
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else {
        throw std::runtime_error("send to logsimd failed");
      }
    }
  }

  /// Waits up to `timeout_us` for replies; returns how many arrived for the
  /// current phase (a late reply to an earlier phase is recorded too).
  std::size_t poll_replies(double timeout_us) {
    pollfd p[2];
    for (int c = 0; c < 2; ++c) {
      p[c] = pollfd{wires_[c].fd,
                    static_cast<short>(POLLIN | (wires_[c].out.empty() ? 0 : POLLOUT)),
                    0};
    }
    const timespec ts{0, static_cast<long>(timeout_us * 1e3)};
    if (::ppoll(p, 2, &ts, nullptr) <= 0) return 0;
    std::size_t got = 0;
    for (int c = 0; c < 2; ++c) {
      Wire& w = wires_[c];
      if ((p[c].revents & POLLOUT) != 0) flush(w);
      if ((p[c].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
      char buf[1 << 16];
      for (;;) {
        const ssize_t n = ::recv(w.fd, buf, sizeof buf, 0);
        if (n > 0) {
          w.in.feed(buf, static_cast<std::size_t>(n));
          continue;
        }
        if (n < 0 && errno == EINTR) continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        throw std::runtime_error("logsimd closed a connection");
      }
      const double t = now_us();
      for (;;) {
        Result<std::optional<serve::Frame>> f = w.in.next();
        if (!f.ok()) throw std::runtime_error("bad frame: " + f.status().to_string());
        if (!f->has_value()) break;
        const serve::Frame& frame = **f;
        if (frame.id == 0 || frame.id > requests_.size()) continue;
        Request& r = requests_[frame.id - 1];
        if (r.latency_us >= 0.0) continue;
        r.latency_us = t - r.due_us;
        if (frame.id - 1 >= phase_first_) ++got;
        if (frame.kind == serve::FrameKind::kResult) {
          Result<serve::PredictReply> rep =
              serve::decode_predict_reply(frame.payload, serve::Codec::kBinary);
          if (rep.ok()) {
            r.reply = rep.value();
          } else {
            r.error = true;
          }
        } else {
          r.error = true;
        }
      }
    }
    return got;
  }

 private:
  const ServeInputs& inputs_;
  std::vector<std::uint64_t> handles_;
  std::mt19937_64 rng_;
  std::uint64_t fresh_base_;
  std::size_t fresh_at_ = 0;  ///< index of the fresh request of this block
  std::vector<std::size_t> fresh_order_;  ///< seeded order of the classes
  std::size_t fresh_next_ = 0;
  std::vector<std::unique_ptr<serve::Client>> clients_;
  Wire wires_[2];
  Clock::time_point epoch_;
  std::vector<Request> requests_;
  std::size_t phase_first_ = 0;
};

/// Latency figures of one phase.  A request that got an error or no reply
/// counts as missing every latency limit (infinite latency).
struct PhaseStats {
  std::vector<double> latency_us;
  std::vector<double> lag_us;
  std::size_t failed = 0;
  double p50_us = 0.0;
  /// Lower quartile over kSubWindowS sub-windows (by due time) of each
  /// one's p99: a host stall lifts the sub-windows it falls in, not the
  /// figure.
  double p99_us = 0.0;
  /// Median latency of the last sub-window: a growing backlog lifts it.
  double tail_p50_us = 0.0;
  double replies_per_s = 0.0;
};

PhaseStats phase_stats(const Generator::Phase& ph,
                       const std::vector<Request>& reqs) {
  PhaseStats s;
  std::vector<std::vector<double>> sub;
  double first_due = 0.0;
  double last_reply = 0.0;
  std::size_t replied = 0;
  for (std::size_t i = ph.first; i < ph.last; ++i) {
    const Request& r = reqs[i];
    if (i == ph.first) first_due = r.due_us;
    s.lag_us.push_back(r.lag_us);
    const bool ok = r.latency_us >= 0.0 && !r.error;
    const double lat = ok ? r.latency_us : std::numeric_limits<double>::infinity();
    if (ok) {
      ++replied;
      last_reply = std::max(last_reply, r.due_us + r.latency_us);
    } else {
      ++s.failed;
    }
    s.latency_us.push_back(lat);
    const auto k = static_cast<std::size_t>((r.due_us - first_due) / (kSubWindowS * 1e6));
    if (sub.size() <= k) sub.resize(k + 1);
    sub[k].push_back(lat);
  }
  s.p50_us = median(s.latency_us);
  std::vector<double> p99s;
  for (const auto& w : sub) {
    if (w.size() >= 100) p99s.push_back(percentile(w, 99.0));
  }
  s.p99_us = p99s.empty() ? percentile(s.latency_us, 99.0)
                          : percentile(p99s, kSubWindowQuantile);
  s.tail_p50_us = sub.empty() ? 0.0 : median(sub.back());
  s.replies_per_s =
      last_reply > first_due ? static_cast<double>(replied) * 1e6 / (last_reply - first_due)
                             : 0.0;
  return s;
}

/// The offered rates of one ramp of the sustained-rate search and their
/// loads (latency over the limit; a step passes at a load of at most 1).
/// Entry 0 is the step the ramp starts from.
struct Ramp {
  std::vector<double> rates;
  std::vector<double> loads;

  [[nodiscard]] int last_pass() const {
    for (std::size_t i = rates.size(); i-- > 0;) {
      if (loads[i] <= 1.0) return static_cast<int>(i);
    }
    return -1;
  }

  /// The last passing rate, moved towards the failing step after it by
  /// interpolation in log load.
  [[nodiscard]] double sustained() const {
    const int pass = last_pass();
    if (pass < 0) return 0.0;
    const auto i = static_cast<std::size_t>(pass);
    if (i + 1 == rates.size() || !std::isfinite(loads[i + 1])) return rates[i];
    const double f = std::log(1.0 / loads[i]) / std::log(loads[i + 1] / loads[i]);
    return rates[i] * std::pow(rates[i + 1] / rates[i], std::clamp(f, 0.0, 1.0));
  }
};

bool same_reply(const serve::PredictReply& r, const core::Prediction& p) {
  const auto eq = [](double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; };
  return eq(r.total_us, p.total().us()) && eq(r.comp_us, p.comp().us()) &&
         eq(r.comm_us, p.comm().us()) && eq(r.total_worst_us, p.total_worst().us()) &&
         eq(r.comm_worst_us, p.comm_worst().us());
}

/// Checks every request: values must match the serial oracle bit for bit
/// (grid points against precomputed values, fresh seeds re-predicted here
/// on nproc threads).  With `count`, every request is an attempt and a
/// missing or error reply a failure.
void check_replies(std::vector<Request>& reqs, const ServeInputs& in,
                   bool corrupt_first, bool count, Report& report) {
  if (corrupt_first) {
    for (Request& r : reqs) {
      if (r.latency_us >= 0.0 && !r.error) {
        r.reply.total_us += 1.0;
        break;
      }
    }
  }
  std::vector<std::size_t> fresh;
  std::size_t mismatched = 0;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const Request& r = reqs[i];
    if (count) report.attempt();
    if (r.latency_us < 0.0 || r.error) {
      if (count) report.fail();
      continue;
    }
    if (r.fresh) {
      fresh.push_back(i);
    } else if (!same_reply(r.reply, in.grid_oracle[r.grid])) {
      ++mismatched;
    }
  }
  std::vector<char> bad(fresh.size(), 0);
  std::vector<std::thread> pool;
  const std::size_t threads = std::max(1U, std::thread::hardware_concurrency());
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (std::size_t k = t; k < fresh.size(); k += threads) {
        const Request& r = reqs[fresh[k]];
        bad[k] = same_reply(r.reply, in.oracle(r.program, r.params, r.seed)) ? 0 : 1;
      }
    });
  }
  for (std::thread& t : pool) t.join();
  mismatched += static_cast<std::size_t>(std::count(bad.begin(), bad.end(), 1));
  if (mismatched > 0) {
    if (count) report.fail(mismatched);
    report.incorrect(std::to_string(mismatched) +
                     " daemon replies differ from the serial oracle");
  }
  if (!reqs.empty()) {
    report.note("replies checked: " + std::to_string(reqs.size()) + " (" +
                std::to_string(fresh.size()) + " fresh-seed re-predicted)");
  }
}

/// Reads `name`'s value (counter / gauge) or histogram mean from a STATS
/// snapshot table; 0 when absent.
double stats_value(const std::string& stats, const std::string& name,
                   bool histogram_mean = false) {
  std::istringstream lines{stats};
  std::string line;
  while (std::getline(lines, line)) {
    std::istringstream tok{line};
    std::string first;
    std::string kind;
    std::string value;
    if (!(tok >> first >> kind >> value) || first != name) continue;
    if (!histogram_mean) return std::strtod(value.c_str(), nullptr);
    std::string field;
    while (tok >> field) {
      if (field.rfind("mean=", 0) == 0) return std::strtod(field.c_str() + 5, nullptr);
    }
  }
  return 0.0;
}

/// Daemon start to ready plus REGISTER of every program.  The control
/// connection stays open for the warm pass and STATS.
struct Setup {
  std::unique_ptr<Daemon> daemon;
  std::unique_ptr<serve::Client> control;
  std::vector<std::uint64_t> handles;
  double seconds = 0.0;
};

Setup set_up(const Options& opt, const ServeInputs& in, LayerTrace* tr) {
  Setup s;
  const auto t0 = Clock::now();
  s.daemon = std::make_unique<Daemon>(opt.logsimd);
  s.control = std::make_unique<serve::Client>(connect_v3(s.daemon->port()));
  for (std::size_t i = 0; i < in.texts.size(); ++i) {
    const auto reg = [&] { return s.control->register_program(in.texts[i]); };
    Result<std::uint64_t> h =
        tr != nullptr ? tr->time("serve.register", "serve", i, reg) : reg();
    if (!h.ok()) throw std::runtime_error("REGISTER: " + h.status().to_string());
    s.handles.push_back(h.value());
  }
  s.seconds = seconds_since(t0);
  return s;
}

/// Standalone measurements of the serving layer's public building blocks.
void serve_microbench(const ServeInputs& in, serve::Client& control,
                      LayerTrace& tr, Report& report) {
  for (int i = 0; i < 200; ++i) {
    const Status st = tr.time("serve.ping", "serve", static_cast<std::uint64_t>(i),
                              [&] { return control.ping(); });
    if (!st.ok()) throw std::runtime_error("PING: " + st.to_string());
  }
  serve::PredictRequest req;
  req.handle = 1;
  req.seed = 12345;
  serve::PredictReply rep;
  rep.total_us = in.grid_oracle[0].total().us();
  rep.comm_worst_us = in.grid_oracle[0].comm_worst().us();
  const std::string payload = serve::encode_predict_reply(rep, serve::Codec::kBinary);
  constexpr int kReps = 20000;
  std::size_t sink = 0;
  tr.time("serve.encode_x20000", "serve", 0, [&] {
    for (int i = 0; i < kReps; ++i) {
      sink += serve::encode_predict_request(req, serve::Codec::kBinary).size();
    }
  });
  tr.time("serve.decode_x20000", "serve", 0, [&] {
    for (int i = 0; i < kReps; ++i) {
      sink += serve::decode_predict_reply(payload, serve::Codec::kBinary).ok() ? 1 : 0;
    }
  });
  serve::ProgramRegistry registry;
  std::vector<std::shared_ptr<const serve::RegisteredProgram>> entries;
  for (const std::string& text : in.texts) {
    Result<std::shared_ptr<const serve::RegisteredProgram>> e = registry.intern(text);
    if (!e.ok()) throw std::runtime_error("intern: " + e.status().to_string());
    entries.push_back(e.value());
  }
  std::vector<loggp::Params> params;
  for (std::size_t g = 0; g < in.grid.size(); ++g) {
    const auto& pt = in.grid[g];
    params.push_back(in.params_for(pt.program, pt.params));
    entries[pt.program]->memo_insert(params.back(), pt.seed, in.grid_oracle[g]);
  }
  tr.time("serve.memo_lookup_x20000", "serve", 0, [&] {
    for (int i = 0; i < kReps; ++i) {
      const std::size_t g = static_cast<std::size_t>(i) % in.grid.size();
      sink += entries[in.grid[g].program]->memo_lookup(params[g], in.grid[g].seed)
                      .has_value()
                  ? 1
                  : 0;
    }
  });
  if (sink == 0) report.note("microbench produced nothing");
  report.metric("serve.ping_rtt_us", tr.mean_us("serve.ping"));
  report.metric("serve.encode_us", tr.mean_us("serve.encode_x20000") / kReps);
  report.metric("serve.decode_us", tr.mean_us("serve.decode_x20000") / kReps);
  report.metric("serve.memo_lookup_us", tr.mean_us("serve.memo_lookup_x20000") / kReps);
}

}  // namespace

void run_serve_handles(const Options& opt, Report& report) {
  if (opt.logsimd.empty()) throw std::runtime_error("--logsimd is required");
  std::unique_ptr<LayerTrace> tr = opt.trace ? std::make_unique<LayerTrace>()
                                             : nullptr;
  const ServeInputs in = make_inputs(opt, tr.get());
  Digest digest;
  for (const auto& p : in.grid_oracle) digest.add(p);
  report.note("digest " + opt.workload + " " + digest.hex());

  // The last set-up's daemon stays up for the measurement.
  Setup s;
  const std::vector<double> setup_s = repeat_setup([&](int rep) {
    s = Setup{};  // stops the previous daemon before the next one starts
    s = set_up(opt, in, rep == 0 ? tr.get() : nullptr);
    return s.seconds;
  });

  Generator gen{in, s.handles, opt.seed, s.daemon->port()};
  // Warm pass: every grid point once, so the memo holds the whole grid.
  for (std::size_t g = 0; g < in.grid.size(); ++g) {
    serve::PredictRequest req;
    req.handle = s.handles[in.grid[g].program];
    req.params_text = in.params_texts[in.grid[g].params];
    req.seed = in.grid[g].seed;
    const Result<serve::PredictReply> r = s.control->predict(req);
    if (!r.ok() || !same_reply(r.value(), in.grid_oracle[g])) {
      report.incorrect("warm-pass reply for grid point " + std::to_string(g) +
                       " is wrong or missing");
    }
  }
  // A short window at the fixed rate settles the connections and threads.
  (void)gen.run(kFixedRate, std::min(1.0, opt.seconds * 0.1), 1.0);

  const double fixed_s = opt.seconds * (opt.trace ? 0.8 : 0.4);
  const Generator::Phase fixed = gen.run(kFixedRate, fixed_s, 2.0, opt.inject == "stall");
  const PhaseStats fs = phase_stats(fixed, gen.requests());
  // The daemon's peak RSS serving the fixed rate; the search's overload
  // steps would add a backlog whose size depends on where they stop.
  const double daemon_rss = peak_rss_mb(s.daemon->pid());

  // Sustained rate: a coarse ramp of offered rates up to its first failing
  // step, then kFineRamps fine ones, each from the coarse ramp's last
  // passing step until two steps in a row fail (a host stall that fails one
  // step does not end it); the median of the fine ramps' estimates.  A
  // step's load is the larger of its p99 and its last sub-window median (a
  // growing backlog lifts the latter), over the latency limit; a step
  // passes with a load of at most 1.  Stopping at the first failures keeps
  // the overload, and the backlog it leaves, short.
  double sustained = 0.0;
  std::string steps_note = "steps:";
  if (!opt.trace) {
    const double step_s = opt.seconds * kStepShare;
    const auto run_ramp = [&](double base_rate, double base_load, double first_rate,
                              double factor, int max_fails, int max_steps) {
      Ramp r;
      r.rates = {base_rate};
      r.loads = {base_load};
      int fails_in_row = 0;
      double rate = first_rate;
      for (int k = 0; k < max_steps && fails_in_row < max_fails; ++k, rate *= factor) {
        const Generator::Phase ph = gen.run(rate, step_s, 1.0);
        const PhaseStats st = phase_stats(ph, gen.requests());
        const double load = std::max(st.p99_us, st.tail_p50_us) / kLatencyLimitUs;
        r.rates.push_back(rate);
        r.loads.push_back(load);
        fails_in_row = load <= 1.0 ? 0 : fails_in_row + 1;
        steps_note += " " + std::to_string(static_cast<int>(rate)) + "/s:p99=" +
                      (std::isfinite(st.p99_us) ? std::to_string(static_cast<int>(st.p99_us))
                                                : std::string{"inf"}) +
                      "us" + (load <= 1.0 ? "" : "(fail)");
      }
      return r;
    };
    const double fixed_load = std::max(fs.p99_us, fs.tail_p50_us) / kLatencyLimitUs;
    const Ramp coarse = run_ramp(kFixedRate, fixed_load, kFixedRate * kStepStart,
                                 kCoarseFactor, 1, kCoarseSteps);
    const int pass = coarse.last_pass();
    if (pass < 0) {
      // Not even the fixed rate met the limit: scale it down by the miss.
      sustained = kFixedRate / fixed_load;
    } else if (static_cast<std::size_t>(pass) + 1 == coarse.rates.size()) {
      sustained = coarse.sustained();  // every coarse step passed
    } else {
      const auto i = static_cast<std::size_t>(pass);
      std::vector<double> estimates;
      for (int f = 0; f < kFineRamps; ++f) {
        steps_note += " |";
        estimates.push_back(run_ramp(coarse.rates[i], coarse.loads[i],
                                     coarse.rates[i] * kFineFactor, kFineFactor, 2,
                                     kFineSteps)
                                .sustained());
      }
      sustained = median(estimates);
    }
  }

  const std::string stats = [&] {
    Result<std::string> st = s.control->stats();
    return st.ok() ? st.value() : std::string{};
  }();
  s.daemon->stop();

  // Attempts and failures count the fixed-rate window; the search's steps
  // overload the daemon on purpose, so only their values are checked.
  std::vector<Request>& all = gen.requests();
  std::vector<Request> window(all.begin() + static_cast<std::ptrdiff_t>(fixed.first),
                              all.begin() + static_cast<std::ptrdiff_t>(fixed.last));
  std::vector<Request> steps(all.begin() + static_cast<std::ptrdiff_t>(fixed.last),
                             all.end());
  check_replies(window, in, opt.inject == "mismatch", true, report);
  check_replies(steps, in, false, false, report);
  const double lag_p50 = median(fs.lag_us);
  const double lag_p99 = percentile(fs.lag_us, 99.0);
  report.note("fixed rate " + std::to_string(static_cast<int>(kFixedRate)) +
              "/s: " + std::to_string(fixed.size()) + " requests, " +
              std::to_string(fs.failed) + " failed, generator lag p50 " +
              std::to_string(lag_p50) + " us, p99 " + std::to_string(lag_p99) +
              " us");
  if (!opt.trace) report.note(steps_note);
  // A host stall delays a burst of sends, and latency from due time charges
  // it to them; a generator that is late on most sends no longer offers the
  // scheduled rate, and the run measures the generator.
  if (lag_p50 > kLatencyLimitUs) {
    report.incorrect("the generator fell behind its schedule (lag p50 " +
                     std::to_string(lag_p50) + " us)");
  }

  if (!tr) {
    report.metric("jobs_per_s", fs.replies_per_s);
    report.metric("p50_us", fs.p50_us);
    report.metric("p99_us", fs.p99_us);
    report.metric("sustained_per_s", sustained);
    report.metric("setup_s", median(setup_s));
    report.metric("peak_rss_mb", daemon_rss);
  } else {
    report.metric("io.parse_us", tr->mean_us("io.parse"));
    double bytes = 0.0;
    for (const auto& t : in.texts) bytes += static_cast<double>(t.size());
    report.metric("io.text_bytes", bytes / static_cast<double>(in.texts.size()));
    report.metric("serve.register_us", tr->mean_us("serve.register"));
    report.metric("bench.gen_lag_p99_us", lag_p99);
    const double hits = stats_value(stats, "serve.memo_hits");
    const double misses = stats_value(stats, "serve.memo_misses");
    report.metric("serve.memo_hit_rate", hits + misses == 0.0 ? 0.0 : hits / (hits + misses));
    report.metric("serve.server_queue_us", stats_value(stats, "serve.queue_wait", true));
    report.metric("serve.coalesced_jobs", stats_value(stats, "serve.coalesced_jobs"));
    report.metric("serve.rejected", stats_value(stats, "serve.rejected"));
    report.metric("serve.errors", stats_value(stats, "serve.errors"));
    const double step_hits = stats_value(stats, "step_cache.hits");
    const double step_misses = stats_value(stats, "step_cache.misses");
    report.metric("runtime.step_hit_rate", step_hits + step_misses == 0.0
                                               ? 0.0
                                               : step_hits / (step_hits + step_misses));
    report.metric("runtime.step_relabel_hits",
                  stats_value(stats, "step_cache.relabel_hits"));
    report.metric("runtime.step_bytes", stats_value(stats, "step_cache.bytes"));
    report.metric("runtime.job_wall_us", stats_value(stats, "batch.job_wall", true));
    // A fresh daemon for the round-trip floor and the codec / memo loops.
    const Setup probe = set_up(opt, in, nullptr);
    serve_microbench(in, *probe.control, *tr, report);
    if (!opt.trace_out.empty()) {
      if (tr->write(opt.trace_out, {})) report.note("trace written to " + opt.trace_out);
    }
  }

  std::vector<AccuracyPoint> pts;
  std::vector<core::Prediction> flat_preds;
  flat_preds.reserve(in.bundles.size());
  for (std::size_t p = 0; p < in.bundles.size(); ++p) {
    flat_preds.push_back(in.oracle(p, 0, in.grid_seeds[0]));
  }
  for (std::size_t p = 0; p < in.bundles.size(); ++p) {
    pts.push_back(AccuracyPoint{&in.bundles[p].program, &in.bundles[p].costs,
                                &flat_preds[p], machine::TestbedConfig::meiko_cs2(8)});
  }
  const Accuracy acc = measure_accuracy(pts);
  report.metric("std_err_pct", acc.std_err_pct);
  report.metric("bracket_pct", acc.bracket_pct);
  report.metric("machine.testbed_ms", acc.testbed_ms);
}

}  // namespace logbench
