#pragma once
// logsimd's engine: a long-running TCP prediction server (DESIGN.md §12,
// §14 for the v2 hot path).
//
// Architecture (plain sockets, no external deps):
//
//   * N epoll reactor threads (Config::reactors) share the IO load:
//     reactor 0 accepts and hands each new connection to a reactor
//     round-robin; from then on that reactor alone assembles the
//     connection's frames (serve::FrameAssembler), runs admission
//     control, and flushes response bytes (partial writes re-armed via
//     EPOLLOUT; workers wake the owning reactor through its eventfd);
//   * one process-wide weighted-round-robin scheduler fair-queues
//     admitted requests across connections -- a client pipelining
//     hundreds of jobs cannot starve a neighbour sending one -- no
//     matter which reactor owns them;
//   * worker threads pop requests in bounded GROUPS (cross-connection
//     micro-batching, Config::coalesce_max / coalesce_window): a group
//     of one runs predict_one exactly as before; concurrent singles
//     from different connections fold into one BatchPredictor
//     predict_all call that shares parse/dedup work;
//   * requests either carry program text (parsed per request) or a
//     registered-program handle (REGISTER verb, ProgramRegistry): the
//     handle path skips parse + canonicalize + hash entirely and
//     consults the per-entry (params, seed) memo first, which is the
//     microsecond warm path;
//   * per-request deadlines ride in on the wire (deadline_ms) and map to
//     PredictJob::deadline; a client disconnect cancels its inflight
//     requests through PredictJob::cancel (fault::CancelToken);
//   * each connection speaks protocol v1 (text) until a HELLO frame
//     negotiates v2 (binary); the codec is per-connection state the
//     owning reactor sets and workers read when encoding replies;
//   * every request runs under an obs span ("serve.request") and feeds
//     the serve.* metrics; the STATS verb renders the obs::Snapshot --
//     the registry plus span aggregates -- over the wire.
//
// Admission control: a connection may have at most
// Config::max_inflight_per_conn requests admitted (queued or executing).
// Excess requests are rejected immediately with a transient ERROR reply --
// the client-visible backpressure signal -- rather than buffered without
// bound.
//
// Shutdown: stop() closes the listen socket, drains nothing (queued
// requests are answered with a cancelled ERROR), cancels inflight work
// cooperatively, joins the workers and the reactor threads, then closes
// every connection.  The destructor calls stop().

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "fault/status.hpp"
#include "obs/metrics.hpp"
#include "runtime/batch_predictor.hpp"
#include "runtime/prediction_cache.hpp"
#include "runtime/step_cache.hpp"
#include "serve/registry.hpp"
#include "serve/wire.hpp"

namespace logsim::serve {

class Server {
 public:
  struct Config {
    /// TCP port to listen on; 0 picks an ephemeral port (see port()).
    std::uint16_t port = 0;
    /// Bind address; the default serves loopback only.
    std::string host = "127.0.0.1";
    /// Worker threads; 0 means hardware_concurrency.
    std::size_t workers = 0;
    /// Epoll reactor threads sharing the IO load; 0 means
    /// max(1, hardware_concurrency / 4).  Connections are sharded
    /// round-robin at accept time and never migrate.
    std::size_t reactors = 0;
    /// Cross-connection micro-batching: a worker pops up to this many
    /// queued requests as one group and predicts them with a single
    /// BatchPredictor batch.  1 disables coalescing.
    std::size_t coalesce_max = 16;
    /// How long a worker lingers for more arrivals after the first
    /// request of a group; zero coalesces opportunistically (only what
    /// is already queued) and adds no latency.
    std::chrono::steady_clock::duration coalesce_window{};
    /// Admission-control cap per connection (queued + executing).
    std::size_t max_inflight_per_conn = 64;
    /// Weighted-round-robin weight every connection starts with: a
    /// connection is served up to `weight` requests per scheduler rotation.
    std::size_t conn_weight = 1;
    /// Wire limits (max frame payload); also bounds the io parsers.
    WireLimits limits;
    /// Default per-request deadline when the request carries none;
    /// zero disables.
    std::chrono::steady_clock::duration default_deadline{};
    /// Prediction-cache / step-cache budgets for the process-wide warm
    /// caches shared across all connections.
    runtime::PredictionCache::Config prediction_cache;
    runtime::SharedStepCache::Config step_cache;
    /// Registered-program registry bounds (REGISTER verb); the parse
    /// guard is capped by limits.max_payload automatically.
    ProgramRegistry::Config registry;
    /// Metrics sink; nullptr means the process-global registry.
    obs::metrics::Registry* metrics = nullptr;
  };

  explicit Server(Config config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens and spawns the reactor + worker threads.
  /// Idempotent-safe: calling start() twice is an internal error.
  [[nodiscard]] Status start();

  /// Stops accepting, cancels inflight work, joins every thread and closes
  /// every connection.  Safe to call repeatedly and without start().
  void stop();

  /// The bound port (valid after start(); resolves ephemeral port 0).
  [[nodiscard]] std::uint16_t port() const { return bound_port_; }

  /// Connections currently open across all reactors (tests / gauges).
  [[nodiscard]] std::size_t connection_count() const;

  [[nodiscard]] runtime::BatchPredictor& predictor() { return *predictor_; }
  [[nodiscard]] ProgramRegistry& registry() { return registry_; }
  [[nodiscard]] obs::metrics::Registry& metrics() { return *metrics_; }
  [[nodiscard]] const Config& config() const { return config_; }
  /// Resolved thread counts (after the 0 -> hardware defaults).
  [[nodiscard]] std::size_t worker_count() const { return worker_count_; }
  [[nodiscard]] std::size_t reactor_count() const { return reactor_count_; }

 private:
  struct Conn;
  struct Reactor;
  struct Request;
  struct Pending;
  class Scheduler;
  class FlushSet;

  void io_loop(std::size_t index);
  void worker_loop(std::size_t index);
  void accept_ready();
  void conn_readable(const std::shared_ptr<Conn>& conn);
  void conn_writable(const std::shared_ptr<Conn>& conn);
  void close_conn(const std::shared_ptr<Conn>& conn);
  void handle_frame(const std::shared_ptr<Conn>& conn, Frame frame);
  void admit(const std::shared_ptr<Conn>& conn, std::uint64_t id,
             std::size_t index, PredictRequest req);
  void reject(const std::shared_ptr<Conn>& conn, std::uint64_t id,
              std::uint64_t index, const Status& status);
  void execute_group(std::vector<Request>& group);
  /// Runs the pre-predict stages of one request (cancel check, STATS,
  /// REGISTER, handle resolution / parse, params, deadline, memo); a
  /// request that still needs a simulation lands in `out`.
  void prepare(Request& request, FlushSet& flush, std::vector<Pending>& out);
  /// Accounts and queues the reply frame for one finished request.
  void finish(Request& request, Frame frame, bool is_error, FlushSet& flush);
  void deliver(Pending& pending, const runtime::JobResult& result,
               FlushSet& flush);
  /// Appends a frame under conn->mu and marks the conn for flushing.
  void queue_frame(const std::shared_ptr<Conn>& conn, const Frame& frame,
                   FlushSet& flush);
  /// Queues + immediately kicks (reactor-thread paths: ping, rejects).
  void enqueue_output(const std::shared_ptr<Conn>& conn, const Frame& frame);
  void flush_pending_output(Reactor& reactor);
  std::string render_stats();

  Config config_;
  std::size_t worker_count_ = 1;
  std::size_t reactor_count_ = 1;
  runtime::PredictionCache prediction_cache_;
  runtime::SharedStepCache step_cache_;
  ProgramRegistry registry_;
  obs::metrics::Registry* metrics_;
  std::unique_ptr<runtime::BatchPredictor> predictor_;
  std::unique_ptr<Scheduler> scheduler_;

  obs::metrics::Counter& requests_;
  obs::metrics::Counter& responses_;
  obs::metrics::Counter& errors_;
  obs::metrics::Counter& rejected_;
  obs::metrics::Counter& protocol_errors_;
  obs::metrics::Counter& disconnect_cancels_;
  obs::metrics::Counter& connections_opened_;
  obs::metrics::Counter& connections_closed_;
  obs::metrics::Counter& bytes_in_;
  obs::metrics::Counter& bytes_out_;
  obs::metrics::Counter& registered_;
  obs::metrics::Counter& memo_hits_;
  obs::metrics::Counter& memo_misses_;
  obs::metrics::Counter& coalesced_groups_;
  obs::metrics::Counter& coalesced_jobs_;
  obs::metrics::Histogram& latency_us_;
  obs::metrics::Histogram& queue_us_;

  int listen_fd_ = -1;
  std::uint16_t bound_port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};

  // Stable once start() built them (unique_ptr: Conn holds a raw Reactor*).
  std::vector<std::unique_ptr<Reactor>> reactors_;
  std::atomic<std::size_t> next_reactor_{0};
  std::vector<std::thread> workers_;
};

}  // namespace logsim::serve
