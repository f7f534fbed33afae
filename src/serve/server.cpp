#include "serve/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <optional>
#include <unordered_map>
#include <utility>

#include "io/params_io.hpp"
#include "io/program_io.hpp"
#include "io/topology_io.hpp"
#include "network/network_model.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"

namespace logsim::serve {

namespace {

double to_us(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

void close_fd(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

}  // namespace

// One request admitted into the fair queue: a prediction job, a STATS
// render, or a REGISTER.  Holds its connection alive until answered.
struct Server::Request {
  enum class Verb { kPredict, kStats, kRegister };

  std::shared_ptr<Conn> conn;
  Verb verb = Verb::kPredict;
  std::uint64_t id = 0;
  std::uint64_t index = 0;
  PredictRequest req;
  /// Jobs of this batch still unanswered; the worker that answers the last
  /// one emits the kBatchEnd frame.  Null for non-batch requests.
  std::shared_ptr<std::atomic<std::size_t>> batch_remaining;
  std::chrono::steady_clock::time_point accepted;
};

// One epoll loop plus everything it owns.  Connections are sharded across
// reactors at accept time and never migrate, so each reactor's conns map
// and flush list see exactly one IO thread (the mutexes cover workers
// queueing flushes and cross-thread size queries).
struct Server::Reactor {
  std::size_t index = 0;
  int epoll_fd = -1;
  int wake_fd = -1;
  std::thread thread;

  mutable std::mutex conns_mu;
  std::unordered_map<int, std::shared_ptr<Conn>> conns;

  // Connections with output queued by workers, awaiting a flush by this
  // reactor (drained on eventfd wakeups).
  std::mutex flush_mu;
  std::vector<std::shared_ptr<Conn>> flush_list;
};

// Per-connection state.  Field ownership is split three ways:
//   * fd / assembler / want_write: owning reactor thread only;
//   * mu-guarded: output buffer + closed flag (workers append responses,
//     the owning reactor flushes them);
//   * scheduler-guarded (Scheduler::mu_): pending / credit / in_rotation.
struct Server::Conn {
  Conn(int fd_in, const WireLimits& limits, std::size_t weight_in)
      : fd(fd_in), assembler(limits), weight(weight_in) {}

  int fd = -1;
  FrameAssembler assembler;
  bool want_write = false;
  /// The reactor that owns this fd (stable for the connection's life).
  Reactor* reactor = nullptr;
  /// Wire codec, v1 text until a HELLO negotiates v2.  Written by the
  /// owning reactor (frames are processed in order, so the switch lands
  /// before any binary frame is decoded); workers read it for replies.
  std::atomic<Codec> codec{Codec::kText};
  /// The negotiated protocol version (same write discipline as codec).
  /// Gates v3 semantics: the REGISTER topology prefix is only honoured on
  /// connections that negotiated kProtocolVersionTopology, so pre-v3
  /// program text is never reinterpreted.
  std::atomic<std::uint32_t> version{kProtocolVersionText};

  /// Fires when the client disconnects (or the server stops): every
  /// inflight prediction of this connection observes it cooperatively.
  fault::CancelToken cancel = fault::CancelToken::create();
  /// Admitted requests not yet answered (admission control).
  std::atomic<std::size_t> inflight{0};

  std::mutex mu;
  std::string out;
  std::size_t out_offset = 0;
  bool closed = false;

  // Scheduler state (guarded by the scheduler's mutex).
  std::deque<Request> pending;
  std::size_t weight = 1;
  std::size_t credit = 0;
  bool in_rotation = false;
};

// Weighted round-robin fair queue across connections: each rotation turn
// serves up to `weight` requests from the connection at the head before
// moving it to the back, so one fat pipeliner cannot starve the rest.
// Workers pop bounded GROUPS (micro-batching); the drain follows the same
// rotation, so a group interleaves connections exactly as single pops
// would have.
class Server::Scheduler {
 public:
  void push(const std::shared_ptr<Conn>& conn, Request request) {
    {
      std::lock_guard lock{mu_};
      if (stopped_) return;  // late frame during shutdown: drop
      conn->pending.push_back(std::move(request));
      if (!conn->in_rotation) {
        conn->in_rotation = true;
        conn->credit = conn->weight;
        rotation_.push_back(conn);
      }
    }
    cv_.notify_one();
  }

  /// Blocks for the next request, then drains up to `max` queued requests
  /// into `out`; false when the scheduler is shut down.  A nonzero
  /// `window` lingers once for stragglers after the first drain.
  bool pop_group(std::vector<Request>* out, std::size_t max,
                 std::chrono::steady_clock::duration window) {
    out->clear();
    std::unique_lock lock{mu_};
    cv_.wait(lock, [this] { return stopped_ || !rotation_.empty(); });
    if (stopped_) return false;
    drain_locked(out, max);
    if (window.count() > 0 && out->size() < max) {
      cv_.wait_for(lock, window,
                   [this] { return stopped_ || !rotation_.empty(); });
      if (!stopped_) drain_locked(out, max);
    }
    return true;
  }

  /// Removes a disconnected connection, returning its undispatched
  /// requests so the caller can account for them.
  std::size_t remove(const std::shared_ptr<Conn>& conn) {
    std::lock_guard lock{mu_};
    const std::size_t dropped = conn->pending.size();
    conn->pending.clear();
    if (conn->in_rotation) {
      std::erase(rotation_, conn);
      conn->in_rotation = false;
    }
    return dropped;
  }

  /// Drops every queued request and wakes all workers to exit.
  std::size_t shutdown() {
    std::size_t dropped = 0;
    {
      std::lock_guard lock{mu_};
      stopped_ = true;
      for (const auto& conn : rotation_) {
        dropped += conn->pending.size();
        conn->pending.clear();
        conn->in_rotation = false;
      }
      rotation_.clear();
    }
    cv_.notify_all();
    return dropped;
  }

 private:
  void drain_locked(std::vector<Request>* out, std::size_t max) {
    while (out->size() < max && !rotation_.empty()) {
      const std::shared_ptr<Conn> conn = rotation_.front();
      out->push_back(std::move(conn->pending.front()));
      conn->pending.pop_front();
      if (--conn->credit == 0 || conn->pending.empty()) {
        rotation_.pop_front();
        conn->credit = conn->weight;
        if (!conn->pending.empty()) {
          rotation_.push_back(conn);
        } else {
          conn->in_rotation = false;
        }
      }
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::shared_ptr<Conn>> rotation_;
  bool stopped_ = false;
};

// The connections a group of replies touched, deduplicated, so the group
// costs ONE eventfd write per distinct reactor instead of one per frame.
class Server::FlushSet {
 public:
  void note(const std::shared_ptr<Conn>& conn) {
    if (std::find(conns_.begin(), conns_.end(), conn) == conns_.end()) {
      conns_.push_back(conn);
    }
  }

  void kick() {
    std::vector<Reactor*> woken;
    for (const auto& conn : conns_) {
      Reactor* reactor = conn->reactor;
      {
        std::lock_guard lock{reactor->flush_mu};
        reactor->flush_list.push_back(conn);
      }
      if (std::find(woken.begin(), woken.end(), reactor) == woken.end()) {
        woken.push_back(reactor);
      }
    }
    for (Reactor* reactor : woken) {
      const std::uint64_t one = 1;
      [[maybe_unused]] const ssize_t n =
          ::write(reactor->wake_fd, &one, sizeof one);
    }
    conns_.clear();
  }

 private:
  std::vector<std::shared_ptr<Conn>> conns_;
};

// A request that survived the pre-predict stages and still needs a
// simulation.  Owns whatever keeps the borrowed job pointers alive: the
// registry entry (handle path) or the freshly parsed bundle, heap-held so
// the pointers survive the vector growing.
struct Server::Pending {
  Request* request = nullptr;
  std::shared_ptr<const RegisteredProgram> reg;
  std::unique_ptr<io::ProgramBundle> bundle;
  /// Ad-hoc network model for a request-level TOPOLOGY field; job.net
  /// borrows it (or the registry entry's model, kept alive by `reg`).
  std::unique_ptr<const network::NetworkModel> net;
  /// False when the request overrode the entry's topology: the per-entry
  /// (params, seed) memo assumes the entry's own topology, so such a
  /// result must neither be served from it nor inserted into it.
  bool memoable = true;
  loggp::Params params;
  std::uint64_t seed = 0;
  /// Absolute reply-by time (accepted + effective deadline); max() = none.
  std::chrono::steady_clock::time_point abs_deadline =
      std::chrono::steady_clock::time_point::max();
  runtime::PredictJob job;
};

namespace {

ProgramRegistry::Config registry_config(const Server::Config& config) {
  ProgramRegistry::Config rc = config.registry;
  // The wire limit already bounds REGISTER payloads; keep the registry's
  // own parse guard no looser.
  rc.parse.max_bytes = std::min(rc.parse.max_bytes, config.limits.max_payload);
  return rc;
}

}  // namespace

Server::Server(Config config)
    : config_(std::move(config)),
      prediction_cache_(config_.prediction_cache),
      step_cache_(config_.step_cache),
      registry_(registry_config(config_)),
      metrics_(config_.metrics != nullptr ? config_.metrics
                                          : &obs::metrics::Registry::global()),
      requests_(metrics_->counter("serve.requests")),
      responses_(metrics_->counter("serve.responses")),
      errors_(metrics_->counter("serve.errors")),
      rejected_(metrics_->counter("serve.rejected")),
      protocol_errors_(metrics_->counter("serve.protocol_errors")),
      disconnect_cancels_(metrics_->counter("serve.disconnect_cancels")),
      connections_opened_(metrics_->counter("serve.connections_opened")),
      connections_closed_(metrics_->counter("serve.connections_closed")),
      bytes_in_(metrics_->counter("serve.bytes_in")),
      bytes_out_(metrics_->counter("serve.bytes_out")),
      registered_(metrics_->counter("serve.registered")),
      memo_hits_(metrics_->counter("serve.memo_hits")),
      memo_misses_(metrics_->counter("serve.memo_misses")),
      coalesced_groups_(metrics_->counter("serve.coalesced_groups")),
      coalesced_jobs_(metrics_->counter("serve.coalesced_jobs")),
      latency_us_(metrics_->histogram("serve.latency", "us")),
      queue_us_(metrics_->histogram("serve.queue_wait", "us")) {
  if (config_.max_inflight_per_conn == 0) config_.max_inflight_per_conn = 1;
  if (config_.conn_weight == 0) config_.conn_weight = 1;
  if (config_.coalesce_max == 0) config_.coalesce_max = 1;
  worker_count_ = config_.workers != 0
                      ? config_.workers
                      : std::max<std::size_t>(
                            1, std::thread::hardware_concurrency());
  reactor_count_ = config_.reactors != 0
                       ? config_.reactors
                       : std::max<std::size_t>(
                             1, std::thread::hardware_concurrency() / 4);
  runtime::BatchPredictor::Config pc;
  // Coalesced groups run through predict_all on the predictor's inner
  // pool: size it like the worker fleet so folding N concurrent singles
  // into one batch keeps the parallelism N workers alone provided.
  pc.threads = worker_count_;
  pc.cache = &prediction_cache_;
  pc.step_cache = &step_cache_;
  pc.metrics = metrics_;
  pc.retry = config_.retry;
  predictor_ = std::make_unique<runtime::BatchPredictor>(pc);
  scheduler_ = std::make_unique<Scheduler>();
}

Server::~Server() { stop(); }

Status Server::start() {
  if (running_.exchange(true)) {
    return Status::internal("Server::start() called twice");
  }
  stopping_.store(false);
  scheduler_ = std::make_unique<Scheduler>();  // fresh after a prior stop()
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    running_.store(false);
    return Status::transient(std::string{"socket: "} + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
    close_fd(listen_fd_);
    running_.store(false);
    return Status::invalid_input("cannot parse bind address '" + config_.host +
                                 "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    const Status st = Status::transient(std::string{"bind: "} +
                                        std::strerror(errno));
    close_fd(listen_fd_);
    running_.store(false);
    return st;
  }
  if (::listen(listen_fd_, 128) < 0) {
    const Status st = Status::transient(std::string{"listen: "} +
                                        std::strerror(errno));
    close_fd(listen_fd_);
    running_.store(false);
    return st;
  }
  socklen_t len = sizeof addr;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    bound_port_ = ntohs(addr.sin_port);
  }

  reactors_.clear();
  reactors_.reserve(reactor_count_);
  for (std::size_t i = 0; i < reactor_count_; ++i) {
    auto reactor = std::make_unique<Reactor>();
    reactor->index = i;
    reactor->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    reactor->wake_fd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (reactor->epoll_fd < 0 || reactor->wake_fd < 0) {
      close_fd(reactor->epoll_fd);
      close_fd(reactor->wake_fd);
      for (const auto& other : reactors_) {
        close_fd(other->epoll_fd);
        close_fd(other->wake_fd);
      }
      reactors_.clear();
      close_fd(listen_fd_);
      running_.store(false);
      return Status::transient("cannot create epoll/eventfd");
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = reactor->wake_fd;
    ::epoll_ctl(reactor->epoll_fd, EPOLL_CTL_ADD, reactor->wake_fd, &ev);
    reactors_.push_back(std::move(reactor));
  }
  // The listen socket lives on reactor 0; accepted fds are sharded from
  // there round-robin.
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  ::epoll_ctl(reactors_[0]->epoll_fd, EPOLL_CTL_ADD, listen_fd_, &ev);

  next_reactor_.store(0);
  for (std::size_t i = 0; i < reactor_count_; ++i) {
    reactors_[i]->thread = std::thread([this, i] { io_loop(i); });
  }
  workers_.reserve(worker_count_);
  for (std::size_t i = 0; i < worker_count_; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
  return Status{};
}

void Server::stop() {
  if (!running_.load() || stopping_.exchange(true)) {
    if (!running_.load()) return;
    // Second stop(): wait for the first to finish via joins below being
    // no-ops (threads already joined).
  }
  // Cancel inflight work first so cooperative simulations unwind fast.
  for (const auto& reactor : reactors_) {
    std::lock_guard lock{reactor->conns_mu};
    for (const auto& [fd, conn] : reactor->conns) conn->cancel.cancel();
  }
  const std::size_t dropped = scheduler_->shutdown();
  if (dropped > 0) disconnect_cancels_.add(dropped);
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
  // Wake every reactor; each observes stopping_ and exits.
  for (const auto& reactor : reactors_) {
    if (reactor->wake_fd >= 0) {
      const std::uint64_t one = 1;
      [[maybe_unused]] const ssize_t n =
          ::write(reactor->wake_fd, &one, sizeof one);
    }
  }
  for (const auto& reactor : reactors_) {
    if (reactor->thread.joinable()) reactor->thread.join();
  }
  for (const auto& reactor : reactors_) {
    {
      std::lock_guard lock{reactor->conns_mu};
      for (auto& [fd, conn] : reactor->conns) {
        std::lock_guard cl{conn->mu};
        conn->closed = true;
        ::close(conn->fd);
      }
      reactor->conns.clear();
    }
    close_fd(reactor->epoll_fd);
    close_fd(reactor->wake_fd);
  }
  reactors_.clear();
  close_fd(listen_fd_);
  running_.store(false);
}

std::size_t Server::connection_count() const {
  std::size_t count = 0;
  for (const auto& reactor : reactors_) {
    std::lock_guard lock{reactor->conns_mu};
    count += reactor->conns.size();
  }
  return count;
}

void Server::io_loop(std::size_t index) {
  Reactor& reactor = *reactors_[index];
  obs::TraceSession::global().set_thread_name("serve-reactor-" +
                                              std::to_string(index));
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  while (!stopping_.load(std::memory_order_relaxed)) {
    const int n = ::epoll_wait(reactor.epoll_fd, events, kMaxEvents, 100);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // epoll itself failed: nothing sane left to do
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == listen_fd_) {
        accept_ready();
        continue;
      }
      if (fd == reactor.wake_fd) {
        std::uint64_t drain = 0;
        while (::read(reactor.wake_fd, &drain, sizeof drain) > 0) {
        }
        flush_pending_output(reactor);
        continue;
      }
      std::shared_ptr<Conn> conn;
      {
        std::lock_guard lock{reactor.conns_mu};
        const auto it = reactor.conns.find(fd);
        if (it == reactor.conns.end()) continue;  // closed earlier this wake
        conn = it->second;
      }
      if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0) {
        close_conn(conn);
        continue;
      }
      if ((events[i].events & EPOLLOUT) != 0) conn_writable(conn);
      if ((events[i].events & EPOLLIN) != 0) conn_readable(conn);
    }
  }
}

void Server::accept_ready() {
  for (;;) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN or a transient accept failure: try next wakeup
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    Reactor& target =
        *reactors_[next_reactor_.fetch_add(1, std::memory_order_relaxed) %
                   reactors_.size()];
    auto conn =
        std::make_shared<Conn>(fd, config_.limits, config_.conn_weight);
    conn->reactor = &target;
    {
      std::lock_guard lock{target.conns_mu};
      target.conns.emplace(fd, conn);
    }
    // Registering a foreign fd into another reactor's epoll set from this
    // thread is fine: epoll_ctl is thread-safe against epoll_wait.
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    ::epoll_ctl(target.epoll_fd, EPOLL_CTL_ADD, fd, &ev);
    connections_opened_.add();
  }
}

void Server::conn_readable(const std::shared_ptr<Conn>& conn) {
  char buf[64 * 1024];
  bool peer_closed = false;
  for (;;) {
    const ssize_t n = ::read(conn->fd, buf, sizeof buf);
    if (n > 0) {
      bytes_in_.add(static_cast<std::uint64_t>(n));
      conn->assembler.feed(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    // 0 = peer hung up; other errors: treat the same.  Frames already
    // buffered still get dispatched below: a burst followed by a close
    // arrives as one readable event, and work the peer finished sending
    // must be accepted (then cancelled by close_conn) -- not vanish
    // without a counter ever moving.
    peer_closed = true;
    break;
  }
  for (;;) {
    Result<std::optional<Frame>> frame = conn->assembler.next();
    if (!frame.ok()) {
      // Protocol damage is unrecoverable on a byte stream: report best
      // effort, then hang up.
      protocol_errors_.add();
      reject(conn, 0, 0, frame.status());
      flush_pending_output(*conn->reactor);
      close_conn(conn);
      return;
    }
    if (!frame->has_value()) break;
    handle_frame(conn, std::move(**frame));
  }
  if (peer_closed) close_conn(conn);
}

void Server::handle_frame(const std::shared_ptr<Conn>& conn, Frame frame) {
  const Codec codec = conn->codec.load(std::memory_order_relaxed);
  switch (frame.kind) {
    case FrameKind::kPing: {
      enqueue_output(conn, Frame{FrameKind::kPong, frame.id, {}});
      return;
    }
    case FrameKind::kHello: {
      const Result<std::uint32_t> version = decode_hello_request(frame.payload);
      if (!version.ok()) {
        protocol_errors_.add();
        reject(conn, frame.id, 0, version.status());
        return;
      }
      // Speak the highest version both sides know; the codec switch is
      // effective for every LATER frame (processing is in order).
      const std::uint32_t agreed =
          std::min(version.value(), kProtocolVersionMax);
      conn->version.store(agreed, std::memory_order_relaxed);
      conn->codec.store(codec_for_version(agreed), std::memory_order_relaxed);
      enqueue_output(
          conn, Frame{FrameKind::kHelloAck, frame.id, encode_hello_ack(agreed)});
      return;
    }
    case FrameKind::kStats:
    case FrameKind::kRegister: {
      if (conn->inflight.load(std::memory_order_relaxed) >=
          config_.max_inflight_per_conn) {
        rejected_.add();
        reject(conn, frame.id, 0,
               Status::transient("admission control: connection has too many "
                                 "inflight requests"));
        return;
      }
      conn->inflight.fetch_add(1, std::memory_order_relaxed);
      requests_.add();
      Request request;
      request.conn = conn;
      request.verb = frame.kind == FrameKind::kStats ? Request::Verb::kStats
                                                     : Request::Verb::kRegister;
      request.id = frame.id;
      // REGISTER's payload is the raw program text under both codecs.
      request.req.program_text = std::move(frame.payload);
      request.accepted = std::chrono::steady_clock::now();
      scheduler_->push(conn, std::move(request));
      return;
    }
    case FrameKind::kPredict: {
      Result<PredictRequest> req = decode_predict_request(frame.payload, codec);
      if (!req.ok()) {
        protocol_errors_.add();
        reject(conn, frame.id, 0, req.status());
        return;
      }
      admit(conn, frame.id, 0, std::move(req).value());
      return;
    }
    case FrameKind::kBatch: {
      Result<std::vector<PredictRequest>> jobs =
          decode_batch_request(frame.payload, config_.limits, codec);
      if (!jobs.ok()) {
        protocol_errors_.add();
        // Batch-level failure: the error, then the end-of-stream marker the
        // client is waiting for (it would otherwise block forever).
        reject(conn, frame.id, 0, jobs.status());
        enqueue_output(conn, Frame{FrameKind::kBatchEnd, frame.id, {}});
        return;
      }
      if (jobs->empty()) {
        enqueue_output(conn, Frame{FrameKind::kBatchEnd, frame.id, {}});
        return;
      }
      // All-or-nothing admission: a half-admitted batch would stream a
      // confusing mix of results and busy errors.
      if (conn->inflight.load(std::memory_order_relaxed) + jobs->size() >
          config_.max_inflight_per_conn) {
        rejected_.add();
        reject(conn, frame.id, 0,
               Status::transient(
                   "admission control: batch of " +
                   std::to_string(jobs->size()) +
                   " exceeds the connection's inflight budget of " +
                   std::to_string(config_.max_inflight_per_conn)));
        enqueue_output(conn, Frame{FrameKind::kBatchEnd, frame.id, {}});
        return;
      }
      auto remaining =
          std::make_shared<std::atomic<std::size_t>>(jobs->size());
      const auto now = std::chrono::steady_clock::now();
      for (std::size_t i = 0; i < jobs->size(); ++i) {
        conn->inflight.fetch_add(1, std::memory_order_relaxed);
        requests_.add();
        Request request;
        request.conn = conn;
        request.id = frame.id;
        request.index = i;
        request.req = std::move((*jobs)[i]);
        request.batch_remaining = remaining;
        request.accepted = now;
        scheduler_->push(conn, std::move(request));
      }
      return;
    }
    case FrameKind::kPong:
    case FrameKind::kResult:
    case FrameKind::kError:
    case FrameKind::kStatsText:
    case FrameKind::kBatchEnd:
    case FrameKind::kHelloAck:
    case FrameKind::kRegistered:
      break;
  }
  // A response kind arriving at the server is a confused peer.
  protocol_errors_.add();
  reject(conn, frame.id, 0,
         Status::invalid_input("response frame kind sent to a server"));
}

void Server::admit(const std::shared_ptr<Conn>& conn, std::uint64_t id,
                   std::size_t index, PredictRequest req) {
  if (conn->inflight.load(std::memory_order_relaxed) >=
      config_.max_inflight_per_conn) {
    rejected_.add();
    reject(conn, id, index,
           Status::transient("admission control: connection has too many "
                             "inflight requests"));
    return;
  }
  conn->inflight.fetch_add(1, std::memory_order_relaxed);
  requests_.add();
  Request request;
  request.conn = conn;
  request.id = id;
  request.index = index;
  request.req = std::move(req);
  request.accepted = std::chrono::steady_clock::now();
  scheduler_->push(conn, std::move(request));
}

void Server::reject(const std::shared_ptr<Conn>& conn, std::uint64_t id,
                    std::uint64_t index, const Status& status) {
  errors_.add();
  ErrorReply reply;
  reply.index = index;
  reply.code = status.ok() ? ErrorCode::kInternal : status.code();
  reply.message = status.message();
  enqueue_output(
      conn, Frame{FrameKind::kError, id,
                  encode_error_reply(
                      reply, conn->codec.load(std::memory_order_relaxed))});
}

void Server::worker_loop(std::size_t index) {
  obs::TraceSession::global().set_thread_name("serve-worker-" +
                                              std::to_string(index));
  std::vector<Request> group;
  while (scheduler_->pop_group(&group, config_.coalesce_max,
                               config_.coalesce_window)) {
    const auto now = std::chrono::steady_clock::now();
    for (const Request& request : group) {
      queue_us_.record(to_us(now - request.accepted));
    }
    if (group.size() > 1) {
      coalesced_groups_.add();
      coalesced_jobs_.add(group.size());
    }
    execute_group(group);
    group.clear();  // drop the Conn references before blocking again
  }
}

void Server::execute_group(std::vector<Request>& group) {
  obs::Span span{obs::TraceSession::global(),
                 group.size() == 1 ? "serve.request" : "serve.coalesced_batch",
                 "serve", group.front().id};
  FlushSet flush;
  std::vector<Pending> pendings;
  pendings.reserve(group.size());
  for (Request& request : group) prepare(request, flush, pendings);

  if (pendings.size() == 1) {
    // The single-request path is exactly the pre-coalescing server: one
    // predict_one, no batch machinery, no post-hoc deadline conversion.
    const runtime::JobResult result =
        predictor_->predict_one(pendings.front().job, /*publish_gauges=*/false);
    deliver(pendings.front(), result, flush);
  } else if (!pendings.empty()) {
    std::vector<runtime::PredictJob> jobs;
    jobs.reserve(pendings.size());
    for (const Pending& pending : pendings) jobs.push_back(pending.job);
    const std::vector<runtime::JobResult> results =
        predictor_->predict_all(jobs);
    // predict_all returns when the whole group is done: a short-deadline
    // request coalesced behind a slow neighbour can come back ok yet
    // already be too late to answer.  The deadline covers the whole
    // server-side journey, so convert those results to timeouts.
    const auto now = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < pendings.size(); ++i) {
      if (results[i].ok() && now >= pendings[i].abs_deadline) {
        runtime::JobResult late;
        late.status =
            Status::timeout("request deadline expired before the reply "
                            "was ready");
        late.attempts = results[i].attempts;
        deliver(pendings[i], late, flush);
        continue;
      }
      deliver(pendings[i], results[i], flush);
    }
  }
  flush.kick();
}

void Server::prepare(Request& request, FlushSet& flush,
                     std::vector<Pending>& out) {
  const std::shared_ptr<Conn>& conn = request.conn;
  if (conn->cancel.cancelled()) {
    // The client is gone; there is nobody to answer.
    disconnect_cancels_.add();
    conn->inflight.fetch_sub(1, std::memory_order_relaxed);
    if (request.batch_remaining != nullptr) {
      request.batch_remaining->fetch_sub(1, std::memory_order_acq_rel);
    }
    return;
  }
  const Codec codec = conn->codec.load(std::memory_order_relaxed);

  if (request.verb == Request::Verb::kStats) {
    finish(request, Frame{FrameKind::kStatsText, request.id, render_stats()},
           /*is_error=*/false, flush);
    return;
  }

  if (request.verb == Request::Verb::kRegister) {
    // v3 connections may prefix one "topology <spec>\n" line; older
    // connections get the payload verbatim (the prefix convention did not
    // exist before v3, so nothing can be misread).
    network::TopologySpec topology = network::TopologySpec::flat();
    std::string program_text = std::move(request.req.program_text);
    if (conn->version.load(std::memory_order_relaxed) >=
        kProtocolVersionTopology) {
      RegisterRequest split = split_register_request(program_text);
      if (!split.topology_text.empty()) {
        Result<network::TopologySpec> spec =
            io::parse_topology(split.topology_text);
        if (!spec.ok()) {
          ErrorReply reply;
          reply.index = 0;
          reply.code = spec.status().code();
          reply.message =
              Status{spec.status()}
                  .with_context("while parsing the topology to register")
                  .to_string();
          finish(request,
                 Frame{FrameKind::kError, request.id,
                       encode_error_reply(reply, codec)},
                 /*is_error=*/true, flush);
          return;
        }
        topology = std::move(spec).value();
        program_text = std::move(split.program_text);
      }
    }
    const Result<std::shared_ptr<const RegisteredProgram>> entry =
        registry_.intern(program_text, topology);
    if (!entry.ok()) {
      ErrorReply reply;
      reply.index = 0;
      reply.code = entry.status().code();
      reply.message = entry.status().to_string();
      finish(request,
             Frame{FrameKind::kError, request.id,
                   encode_error_reply(reply, codec)},
             /*is_error=*/true, flush);
      return;
    }
    registered_.add();
    finish(request,
           Frame{FrameKind::kRegistered, request.id,
                 encode_registered_reply(entry.value()->handle(), codec)},
           /*is_error=*/false, flush);
    return;
  }

  Pending pending;
  pending.request = &request;
  const core::StepProgram* program = nullptr;
  const core::CostTable* costs = nullptr;
  if (request.req.handle != 0) {
    pending.reg = registry_.find(request.req.handle);
    if (pending.reg == nullptr) {
      ErrorReply reply;
      reply.index = request.index;
      reply.code = ErrorCode::kInvalidInput;
      reply.message =
          "unknown program handle " + std::to_string(request.req.handle) +
          " (handles do not survive a server restart; REGISTER again)";
      finish(request,
             Frame{FrameKind::kError, request.id,
                   encode_error_reply(reply, codec)},
             /*is_error=*/true, flush);
      return;
    }
    program = &pending.reg->program();
    costs = &pending.reg->costs();
  } else {
    // Parse with the wire limit as the io guard: a payload that slipped
    // past the frame cap can still not blow up the parser.
    io::ProgramParseOptions popts;
    popts.max_bytes = config_.limits.max_payload;
    Result<io::ProgramBundle> bundle =
        io::parse_program(request.req.program_text, popts);
    if (!bundle.ok()) {
      ErrorReply reply;
      reply.index = request.index;
      reply.code = bundle.status().code();
      reply.message = Status{bundle.status()}
                          .with_context("while parsing the request program")
                          .to_string();
      finish(request,
             Frame{FrameKind::kError, request.id,
                   encode_error_reply(reply, codec)},
             /*is_error=*/true, flush);
      return;
    }
    pending.bundle =
        std::make_unique<io::ProgramBundle>(std::move(bundle).value());
    program = &pending.bundle->program;
    costs = &pending.bundle->costs;
  }

  loggp::Params defaults;
  defaults.P = program->procs();
  Result<loggp::Params> params =
      io::parse_params(request.req.params_text, defaults);
  if (!params.ok()) {
    ErrorReply reply;
    reply.index = request.index;
    reply.code = params.status().code();
    reply.message = Status{params.status()}
                        .with_context("while parsing the request params")
                        .to_string();
    finish(request,
           Frame{FrameKind::kError, request.id,
                 encode_error_reply(reply, codec)},
           /*is_error=*/true, flush);
    return;
  }
  pending.params = std::move(params).value();
  pending.params.P = program->procs();
  pending.seed = request.req.seed;

  // Topology resolution (protocol v3): an explicit TOPOLOGY field wins
  // over whatever the handle's entry was registered with; without one, a
  // handle request inherits the entry's model.  Flat stays the nullptr
  // fast path either way.
  if (!request.req.topology_text.empty()) {
    Result<network::TopologySpec> spec =
        io::parse_topology(request.req.topology_text);
    Status st = spec.ok() ? spec->validate(program->procs()) : spec.status();
    if (!st.ok()) {
      ErrorReply reply;
      reply.index = request.index;
      reply.code = st.code();
      reply.message =
          st.with_context("while parsing the request topology").to_string();
      finish(request,
             Frame{FrameKind::kError, request.id,
                   encode_error_reply(reply, codec)},
             /*is_error=*/true, flush);
      return;
    }
    if (pending.reg != nullptr && spec.value() == pending.reg->topology()) {
      // The explicit spec matches the registered one: reuse the entry's
      // model and keep its memo in play.
      pending.job.net = pending.reg->net();
    } else {
      // A genuine override (flat included) bypasses the entry memo: its
      // points belong to the registered topology.
      pending.memoable = false;
      if (!spec->is_flat()) {
        pending.net = network::NetworkModel::create(std::move(spec).value());
        pending.job.net = pending.net.get();
      }
    }
  } else if (pending.reg != nullptr) {
    pending.job.net = pending.reg->net();
  }

  auto deadline = config_.default_deadline;
  if (request.req.deadline_ms > 0) {
    deadline = std::chrono::milliseconds(request.req.deadline_ms);
  }
  std::chrono::steady_clock::duration budget_left{};
  if (deadline.count() > 0) {
    // The budget covers the whole server-side journey; spend what queueing
    // already used and fail fast when nothing is left.
    pending.abs_deadline = request.accepted + deadline;
    const auto now = std::chrono::steady_clock::now();
    if (now >= pending.abs_deadline) {
      ErrorReply reply;
      reply.index = request.index;
      reply.code = ErrorCode::kTimeout;
      reply.message = "request deadline expired while queued";
      finish(request,
             Frame{FrameKind::kError, request.id,
                   encode_error_reply(reply, codec)},
             /*is_error=*/true, flush);
      return;
    }
    budget_left = pending.abs_deadline - now;
  }

  // The microsecond warm path: a registered program whose (params, seed)
  // point was answered before (under the entry's own topology).
  if (pending.reg != nullptr && pending.memoable) {
    if (const std::optional<core::Prediction> memo =
            pending.reg->memo_lookup(pending.params, pending.seed)) {
      memo_hits_.add();
      PredictReply reply;
      reply.index = request.index;
      reply.total_us = memo->total().us();
      reply.comp_us = memo->comp().us();
      reply.comm_us = memo->comm().us();
      reply.total_worst_us = memo->total_worst().us();
      reply.comm_worst_us = memo->comm_worst().us();
      reply.from_cache = true;
      reply.attempts = 1;
      finish(request,
             Frame{FrameKind::kResult, request.id,
                   encode_predict_reply(reply, codec)},
             /*is_error=*/false, flush);
      return;
    }
    memo_misses_.add();
  }

  pending.job.program = program;
  pending.job.costs = costs;
  pending.job.params = pending.params;
  pending.job.cancel = conn->cancel;
  pending.job.seed = pending.seed;
  if (pending.reg != nullptr) {
    // The per-entry memo above already memoizes this triple; skip the
    // global cache so the daemon doesn't hold a second copy of every
    // registered program, and key O(1) off the precomputed hash.
    pending.job.program_hash = pending.reg->program_hash();
    pending.job.bypass_cache = true;
  }
  if (budget_left.count() > 0) pending.job.deadline = budget_left;
  out.push_back(std::move(pending));
}

void Server::deliver(Pending& pending, const runtime::JobResult& result,
                     FlushSet& flush) {
  Request& request = *pending.request;
  const std::shared_ptr<Conn>& conn = request.conn;
  const Codec codec = conn->codec.load(std::memory_order_relaxed);
  if (!result.ok()) {
    if (result.status.code() == ErrorCode::kCancelled &&
        conn->cancel.cancelled()) {
      // Disconnect (or shutdown) killed the job mid-run: like the queued
      // case, there is nobody to answer, so account it as a disconnect
      // cancel rather than an error reply to a dead socket.
      disconnect_cancels_.add();
      conn->inflight.fetch_sub(1, std::memory_order_relaxed);
      if (request.batch_remaining != nullptr) {
        request.batch_remaining->fetch_sub(1, std::memory_order_acq_rel);
      }
      return;
    }
    ErrorReply reply;
    reply.index = request.index;
    reply.code = result.status.code();
    reply.message = result.status.to_string();
    finish(request,
           Frame{FrameKind::kError, request.id,
                 encode_error_reply(reply, codec)},
           /*is_error=*/true, flush);
    return;
  }
  if (pending.reg != nullptr && pending.memoable) {
    pending.reg->memo_insert(pending.params, pending.seed, result.value());
  }
  PredictReply reply;
  reply.index = request.index;
  reply.total_us = result.value().total().us();
  reply.comp_us = result.value().comp().us();
  reply.comm_us = result.value().comm().us();
  reply.total_worst_us = result.value().total_worst().us();
  reply.comm_worst_us = result.value().comm_worst().us();
  reply.from_cache = result.from_cache;
  reply.attempts = result.attempts;
  finish(request,
         Frame{FrameKind::kResult, request.id,
               encode_predict_reply(reply, codec)},
         /*is_error=*/false, flush);
}

void Server::finish(Request& request, Frame frame, bool is_error,
                    FlushSet& flush) {
  // Account first, enqueue second: the moment the frame is flushed the
  // client can act on the reply, so every counter a client-visible state
  // transition implies must already be in place (tests legitimately
  // assert on them right after receive()).
  if (is_error) {
    errors_.add();
  } else {
    responses_.add();
  }
  latency_us_.record(
      to_us(std::chrono::steady_clock::now() - request.accepted));
  request.conn->inflight.fetch_sub(1, std::memory_order_relaxed);
  queue_frame(request.conn, frame, flush);
  if (request.batch_remaining != nullptr &&
      request.batch_remaining->fetch_sub(1, std::memory_order_acq_rel) == 1) {
    queue_frame(request.conn, Frame{FrameKind::kBatchEnd, request.id, {}},
                flush);
  }
}

std::string Server::render_stats() {
  predictor_->publish_cache_gauges();
  metrics_->set_gauge("serve.connections", std::to_string(connection_count()));
  metrics_->set_gauge("serve.reactors", std::to_string(reactor_count_));
  const ProgramRegistry::Stats rs = registry_.stats();
  metrics_->set_gauge("serve.programs", std::to_string(rs.programs));
  metrics_->set_gauge("serve.registrations", std::to_string(rs.registrations));
  metrics_->set_gauge("serve.dedup_hits", std::to_string(rs.dedup_hits));
  return obs::Snapshot::capture(metrics_, &obs::TraceSession::global())
      .to_string();
}

void Server::queue_frame(const std::shared_ptr<Conn>& conn, const Frame& frame,
                         FlushSet& flush) {
  {
    std::lock_guard lock{conn->mu};
    if (conn->closed) return;
    append_frame(conn->out, frame);
  }
  flush.note(conn);
}

void Server::enqueue_output(const std::shared_ptr<Conn>& conn,
                            const Frame& frame) {
  FlushSet flush;
  queue_frame(conn, frame, flush);
  flush.kick();
}

void Server::flush_pending_output(Reactor& reactor) {
  std::vector<std::shared_ptr<Conn>> list;
  {
    std::lock_guard lock{reactor.flush_mu};
    list.swap(reactor.flush_list);
  }
  for (const auto& conn : list) conn_writable(conn);
}

// Owning reactor thread only: drains the connection's output buffer into
// the socket, arming EPOLLOUT when the kernel buffer fills.
void Server::conn_writable(const std::shared_ptr<Conn>& conn) {
  bool fatal = false;
  {
    std::lock_guard lock{conn->mu};
    if (conn->closed) return;
    while (conn->out_offset < conn->out.size()) {
      const ssize_t n =
          ::write(conn->fd, conn->out.data() + conn->out_offset,
                  conn->out.size() - conn->out_offset);
      if (n > 0) {
        conn->out_offset += static_cast<std::size_t>(n);
        bytes_out_.add(static_cast<std::uint64_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        if (!conn->want_write) {
          conn->want_write = true;
          epoll_event ev{};
          ev.events = EPOLLIN | EPOLLOUT;
          ev.data.fd = conn->fd;
          ::epoll_ctl(conn->reactor->epoll_fd, EPOLL_CTL_MOD, conn->fd, &ev);
        }
        return;
      }
      fatal = true;
      break;
    }
    if (!fatal) {
      conn->out.clear();
      conn->out_offset = 0;
      if (conn->want_write) {
        conn->want_write = false;
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.fd = conn->fd;
        ::epoll_ctl(conn->reactor->epoll_fd, EPOLL_CTL_MOD, conn->fd, &ev);
      }
    }
  }
  if (fatal) close_conn(conn);
}

void Server::close_conn(const std::shared_ptr<Conn>& conn) {
  {
    std::lock_guard lock{conn->mu};
    if (conn->closed) return;
    conn->closed = true;
  }
  // Cancel BEFORE draining the queue: executing workers see it at their
  // next cooperative poll, queued-but-unstarted requests are dropped here.
  conn->cancel.cancel();
  // Queued-but-unstarted requests die here; requests a worker already
  // picked up observe the token and count themselves (prepare/deliver).
  const std::size_t dropped = scheduler_->remove(conn);
  if (dropped > 0) disconnect_cancels_.add(dropped);
  Reactor& reactor = *conn->reactor;
  ::epoll_ctl(reactor.epoll_fd, EPOLL_CTL_DEL, conn->fd, nullptr);
  ::close(conn->fd);
  {
    std::lock_guard lock{reactor.conns_mu};
    reactor.conns.erase(conn->fd);
  }
  connections_closed_.add();
}

}  // namespace logsim::serve
