// Tests for the serving layer (DESIGN.md §12): wire codecs, the in-process
// daemon on an ephemeral port, bit-identity against the direct
// BatchPredictor path, fair concurrency, admission control, deadlines and
// disconnect cancellation (failpoint-driven), and the io parsers'
// max-message-size hardening the server leans on.

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>
#include <logsim/serve.hpp>

#include "fault/failpoint.hpp"
#include "io/params_io.hpp"
#include "io/pattern_io.hpp"
#include "io/program_io.hpp"

namespace logsim {
namespace {

using namespace std::chrono_literals;

/// Arms the global failpoint registry for one test scope.
class ScopedFailpoints {
 public:
  explicit ScopedFailpoints(const std::string& spec, std::uint64_t seed = 1) {
    const Status st = fault::FailpointRegistry::global().configure(spec, seed);
    EXPECT_TRUE(st.ok()) << st.to_string();
  }
  ~ScopedFailpoints() { fault::FailpointRegistry::global().clear(); }
};

/// A small valid program in the io text format; `scale` perturbs the cost
/// table so different scales are distinct cache keys.
std::string sample_program(int scale = 1) {
  std::string text =
      "procs 4\n"
      "op mult\n"
      "cost 0 16 " + std::to_string(250 * scale) + ".5\n"
      "cost 0 32 " + std::to_string(500 * scale) + ".25\n"
      "compute\n"
      "item 0 0 16\n"
      "item 1 0 32\n"
      "item 2 0 16\n"
      "item 3 0 16\n"
      "comm\n"
      "msg 0 1 1024\n"
      "msg 2 3 2048\n"
      "msg 1 2 512\n"
      "compute\n"
      "item 1 0 16\n"
      "item 3 0 32\n";
  return text;
}

/// The in-process reference: same parse path, same seed, no server.
runtime::JobResult direct_predict(const std::string& program_text,
                                  const std::string& params_text,
                                  std::uint64_t seed) {
  Result<io::ProgramBundle> bundle = io::parse_program(program_text);
  EXPECT_TRUE(bundle.ok()) << bundle.status().to_string();
  loggp::Params defaults;
  defaults.P = bundle->program.procs();
  Result<loggp::Params> params = io::parse_params(params_text, defaults);
  EXPECT_TRUE(params.ok()) << params.status().to_string();
  loggp::Params effective = *params;
  effective.P = bundle->program.procs();
  runtime::BatchPredictor::Config config;
  config.threads = 1;
  config.metrics = nullptr;
  runtime::BatchPredictor predictor{config};
  runtime::PredictJob job;
  job.program = &bundle->program;
  job.params = effective;
  job.costs = &bundle->costs;
  job.seed = seed;
  return predictor.predict_one(job);
}

/// Server + registry fixture: every test gets a private metrics registry
/// (the global one would leak counts across tests) and an ephemeral port.
class ServeTest : public ::testing::Test {
 protected:
  serve::Server& start(serve::Server::Config config = {}) {
    config.port = 0;
    config.metrics = &registry_;
    server_ = std::make_unique<serve::Server>(config);
    const Status st = server_->start();
    EXPECT_TRUE(st.ok()) << st.to_string();
    return *server_;
  }

  serve::Client connect() {
    Result<serve::Client> client =
        serve::Client::connect("127.0.0.1", server_->port());
    EXPECT_TRUE(client.ok()) << client.status().to_string();
    return std::move(client).value();
  }

  /// Polls `counter` until it reaches `at_least` (cancellation and close
  /// are asynchronous to the client's view of the socket).
  bool wait_for_counter(const std::string& name, std::uint64_t at_least,
                        std::chrono::milliseconds budget = 2000ms) {
    const auto deadline = std::chrono::steady_clock::now() + budget;
    while (std::chrono::steady_clock::now() < deadline) {
      if (registry_.counter(name).value() >= at_least) return true;
      std::this_thread::sleep_for(2ms);
    }
    return false;
  }

  /// Same polling wait for a histogram's sample count (histograms are how
  /// the worker pool signals "request picked up": serve.queue_wait is
  /// recorded at pop time, before execution begins).
  bool wait_for_histogram(const std::string& name, std::uint64_t at_least,
                          std::chrono::milliseconds budget = 2000ms) {
    const auto deadline = std::chrono::steady_clock::now() + budget;
    while (std::chrono::steady_clock::now() < deadline) {
      if (registry_.histogram(name).count() >= at_least) return true;
      std::this_thread::sleep_for(2ms);
    }
    return false;
  }

  obs::metrics::Registry registry_;
  std::unique_ptr<serve::Server> server_;
};

// --- wire codecs ---------------------------------------------------------

TEST(ServeWire, PredictRequestRoundTrips) {
  serve::PredictRequest req;
  req.params_text = "L=9,o=2,g=13,G=0.03";
  req.seed = 42;
  req.deadline_ms = 250;
  req.program_text = sample_program();
  const Result<serve::PredictRequest> back =
      serve::decode_predict_request(serve::encode_predict_request(req));
  ASSERT_TRUE(back.ok()) << back.status().to_string();
  EXPECT_EQ(back->params_text, req.params_text);
  EXPECT_EQ(back->seed, 42u);
  EXPECT_EQ(back->deadline_ms, 250u);
  EXPECT_EQ(back->program_text, req.program_text);
}

TEST(ServeWire, PredictReplyRoundTripsDoublesExactly) {
  serve::PredictReply reply;
  reply.index = 7;
  reply.total_us = 1234.5678901234567;     // needs all 17 digits
  reply.comp_us = 0.1;                     // classic non-representable
  reply.comm_us = 3.0000000000000004;
  reply.total_worst_us = 1e-300;
  reply.comm_worst_us = 9.87654321e12;
  reply.from_cache = true;
  reply.attempts = 3;
  const Result<serve::PredictReply> back =
      serve::decode_predict_reply(serve::encode_predict_reply(reply));
  ASSERT_TRUE(back.ok()) << back.status().to_string();
  EXPECT_EQ(back->index, 7u);
  EXPECT_EQ(back->total_us, reply.total_us);  // bit-exact, not NEAR
  EXPECT_EQ(back->comp_us, reply.comp_us);
  EXPECT_EQ(back->comm_us, reply.comm_us);
  EXPECT_EQ(back->total_worst_us, reply.total_worst_us);
  EXPECT_EQ(back->comm_worst_us, reply.comm_worst_us);
  EXPECT_TRUE(back->from_cache);
  EXPECT_EQ(back->attempts, 3);
}

TEST(ServeWire, ErrorReplyCarriesCodeAndMultilineMessage) {
  serve::ErrorReply reply;
  reply.index = 2;
  reply.code = ErrorCode::kTimeout;
  reply.message = "first line\nsecond line";
  const Result<serve::ErrorReply> back =
      serve::decode_error_reply(serve::encode_error_reply(reply));
  ASSERT_TRUE(back.ok()) << back.status().to_string();
  EXPECT_EQ(back->index, 2u);
  EXPECT_EQ(back->code, ErrorCode::kTimeout);
  EXPECT_EQ(back->message, "first line\nsecond line");
  EXPECT_EQ(back->to_status().code(), ErrorCode::kTimeout);
}

TEST(ServeWire, BatchRequestRoundTrips) {
  std::vector<serve::PredictRequest> jobs(3);
  for (int i = 0; i < 3; ++i) {
    jobs[i].seed = static_cast<std::uint64_t>(i);
    jobs[i].program_text = sample_program(i + 1);
  }
  const Result<std::vector<serve::PredictRequest>> back =
      serve::decode_batch_request(serve::encode_batch_request(jobs),
                                  serve::WireLimits{});
  ASSERT_TRUE(back.ok()) << back.status().to_string();
  ASSERT_EQ(back->size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ((*back)[i].seed, static_cast<std::uint64_t>(i));
    EXPECT_EQ((*back)[i].program_text, jobs[i].program_text);
  }
}

TEST(ServeWire, AssemblerReassemblesByteByByte) {
  serve::Frame frame{serve::FrameKind::kPredict, 99,
                     serve::encode_predict_request({})};
  std::string bytes;
  serve::append_frame(bytes, frame);
  serve::append_frame(bytes, serve::Frame{serve::FrameKind::kPing, 7, {}});

  serve::FrameAssembler assembler{serve::WireLimits{}};
  std::vector<serve::Frame> out;
  for (char c : bytes) {
    assembler.feed(&c, 1);
    for (;;) {
      Result<std::optional<serve::Frame>> next = assembler.next();
      ASSERT_TRUE(next.ok()) << next.status().to_string();
      if (!next->has_value()) break;
      out.push_back(std::move(**next));
    }
  }
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].kind, serve::FrameKind::kPredict);
  EXPECT_EQ(out[0].id, 99u);
  EXPECT_EQ(out[0].payload, frame.payload);
  EXPECT_EQ(out[1].kind, serve::FrameKind::kPing);
  EXPECT_EQ(out[1].id, 7u);
  EXPECT_EQ(assembler.buffered(), 0u);
}

TEST(ServeWire, AssemblerPoisonsOnOversizedDeclaredLength) {
  serve::WireLimits limits;
  limits.max_payload = 64;
  serve::FrameAssembler assembler{limits};
  std::string bytes;
  serve::append_frame(bytes, serve::Frame{serve::FrameKind::kPredict, 1,
                                          std::string(65, 'x')});
  assembler.feed(bytes.data(), bytes.size());
  Result<std::optional<serve::Frame>> next = assembler.next();
  ASSERT_FALSE(next.ok());
  EXPECT_EQ(next.status().code(), ErrorCode::kInvalidInput);
  // Sticky: the stream cannot be trusted after a framing error.
  EXPECT_FALSE(assembler.next().ok());
}

TEST(ServeWire, AssemblerRejectsUnknownKind) {
  serve::FrameAssembler assembler{serve::WireLimits{}};
  std::string bytes;
  serve::append_frame(bytes, serve::Frame{serve::FrameKind::kPing, 1, {}});
  bytes[4] = static_cast<char>(200);  // corrupt the kind byte
  assembler.feed(bytes.data(), bytes.size());
  Result<std::optional<serve::Frame>> next = assembler.next();
  ASSERT_FALSE(next.ok());
  EXPECT_EQ(next.status().code(), ErrorCode::kInvalidInput);
}

// --- io max-message-size hardening (the guard the server leans on) -------

TEST(ServeIoLimits, ParseProgramRejectsOversizedPayload) {
  io::ProgramParseOptions opts;
  opts.max_bytes = 64;
  const Result<io::ProgramBundle> parsed =
      io::parse_program(sample_program(), opts);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), ErrorCode::kInvalidInput);
  EXPECT_NE(parsed.status().message().find("max-message"), std::string::npos)
      << parsed.status().to_string();
}

TEST(ServeIoLimits, ParsePatternRejectsOversizedPayload) {
  io::PatternParseOptions opts;
  opts.max_bytes = 8;
  const auto parsed = io::parse_pattern("procs 2\nmsg 0 1 64\n", opts);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), ErrorCode::kInvalidInput);
  EXPECT_NE(parsed.status().message().find("max-message"), std::string::npos);
}

TEST(ServeIoLimits, LoadProgramChecksFileSizeBeforeReading) {
  const std::string path = ::testing::TempDir() + "/oversize.prog";
  {
    std::ofstream out{path};
    out << sample_program();
  }
  io::ProgramParseOptions opts;
  opts.max_bytes = 16;
  const Result<io::ProgramBundle> loaded = io::load_program(path, opts);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), ErrorCode::kInvalidInput);
  EXPECT_NE(loaded.status().message().find("max-message"), std::string::npos);
}

// --- the daemon ----------------------------------------------------------

TEST_F(ServeTest, PingPong) {
  start();
  serve::Client client = connect();
  EXPECT_TRUE(client.ping().ok());
}

TEST_F(ServeTest, PredictionIsBitIdenticalToDirectBatchPredictor) {
  start();
  serve::Client client = connect();

  serve::PredictRequest req;
  req.program_text = sample_program();
  req.seed = 17;
  const Result<serve::PredictReply> reply = client.predict(req);
  ASSERT_TRUE(reply.ok()) << reply.status().to_string();

  const runtime::JobResult direct =
      direct_predict(req.program_text, req.params_text, req.seed);
  ASSERT_TRUE(direct.ok()) << direct.error();
  // The serving contract: EXACT equality, not approximate.  The text wire
  // format renders doubles with %.17g, which round-trips every value.
  EXPECT_EQ(reply->total_us, direct.value().total().us());
  EXPECT_EQ(reply->comp_us, direct.value().comp().us());
  EXPECT_EQ(reply->comm_us, direct.value().comm().us());
  EXPECT_EQ(reply->total_worst_us, direct.value().total_worst().us());
  EXPECT_EQ(reply->comm_worst_us, direct.value().comm_worst().us());
  EXPECT_FALSE(reply->from_cache);

  // Same request again: the process-wide cache answers, numbers unchanged.
  const Result<serve::PredictReply> again = client.predict(req);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->from_cache);
  EXPECT_EQ(again->total_us, reply->total_us);

  // A different seed is a different cache key (worst-case tie-breaking).
  serve::PredictRequest other = req;
  other.seed = 18;
  const Result<serve::PredictReply> reseeded = client.predict(other);
  ASSERT_TRUE(reseeded.ok());
  EXPECT_FALSE(reseeded->from_cache);
}

TEST_F(ServeTest, ConcurrentClientsAllGetIdenticalCorrectAnswers) {
  start();
  constexpr int kClients = 4;
  constexpr int kRequests = 8;

  // Two distinct programs so the cache serves interleaved keys.
  const std::string programs[2] = {sample_program(1), sample_program(2)};
  double expected[2];
  for (int v = 0; v < 2; ++v) {
    const runtime::JobResult direct = direct_predict(programs[v], "meiko", 1);
    ASSERT_TRUE(direct.ok()) << direct.error();
    expected[v] = direct.value().total().us();
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Result<serve::Client> client =
          serve::Client::connect("127.0.0.1", server_->port());
      if (!client.ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int r = 0; r < kRequests; ++r) {
        const int v = (c + r) % 2;
        serve::PredictRequest req;
        req.program_text = programs[v];
        const Result<serve::PredictReply> reply = client->predict(req);
        if (!reply.ok() || reply->total_us != expected[v]) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(registry_.counter("serve.responses").value(),
            static_cast<std::uint64_t>(kClients * kRequests));
  EXPECT_EQ(registry_.counter("serve.errors").value(), 0u);
}

TEST_F(ServeTest, BatchStreamsPerJobResultsInOrder) {
  start();
  serve::Client client = connect();

  std::vector<serve::PredictRequest> jobs(3);
  jobs[0].program_text = sample_program(1);
  jobs[1].program_text = "procs 0\n";  // invalid: fails per-job, not batch
  jobs[2].program_text = sample_program(3);
  const auto items = client.predict_batch(jobs);
  ASSERT_TRUE(items.ok()) << items.status().to_string();
  ASSERT_EQ(items->size(), 3u);
  EXPECT_TRUE((*items)[0].ok()) << (*items)[0].status.to_string();
  ASSERT_FALSE((*items)[1].ok());
  EXPECT_EQ((*items)[1].status.code(), ErrorCode::kInvalidInput);
  EXPECT_TRUE((*items)[2].ok()) << (*items)[2].status.to_string();

  const runtime::JobResult direct = direct_predict(jobs[2].program_text,
                                                   "meiko", 1);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ((*items)[2].reply->total_us, direct.value().total().us());

  // Empty batch: just the end-of-stream marker.
  const auto empty = client.predict_batch({});
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
}

TEST_F(ServeTest, AdmissionControlRejectsPipelinedOverload) {
  // One worker, one admitted request per connection, and a delay holding
  // the worker so the pipelined frames below genuinely overlap.
  ScopedFailpoints fp{"batch.job:delay@50ms"};
  serve::Server::Config config;
  config.workers = 1;
  config.max_inflight_per_conn = 1;
  start(config);
  serve::Client client = connect();

  constexpr int kPipelined = 6;
  std::string burst;
  for (int i = 0; i < kPipelined; ++i) {
    serve::PredictRequest req;
    req.program_text = sample_program();
    serve::append_frame(
        burst, serve::Frame{serve::FrameKind::kPredict,
                            static_cast<std::uint64_t>(i + 1),
                            serve::encode_predict_request(req)});
  }
  // One write delivers all frames to the IO thread back-to-back; only one
  // can be inflight, so the rest must bounce with a transient ERROR.
  ASSERT_EQ(::write(client.fd(), burst.data(), burst.size()),
            static_cast<ssize_t>(burst.size()));

  int ok = 0;
  int busy = 0;
  for (int i = 0; i < kPipelined; ++i) {
    Result<serve::Frame> frame = client.receive();
    ASSERT_TRUE(frame.ok()) << frame.status().to_string();
    if (frame->kind == serve::FrameKind::kResult) {
      ++ok;
      continue;
    }
    ASSERT_EQ(frame->kind, serve::FrameKind::kError);
    const Result<serve::ErrorReply> reply =
        serve::decode_error_reply(frame->payload);
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply->code, ErrorCode::kTransient);  // retryable, by design
    ++busy;
  }
  EXPECT_GE(ok, 1);
  EXPECT_GE(busy, 1);
  EXPECT_EQ(registry_.counter("serve.rejected").value(),
            static_cast<std::uint64_t>(busy));

  // A batch that alone exceeds the budget is rejected whole.
  std::vector<serve::PredictRequest> jobs(3);
  for (auto& job : jobs) job.program_text = sample_program();
  const auto items = client.predict_batch(jobs);
  ASSERT_TRUE(items.ok()) << items.status().to_string();
  for (const auto& item : *items) {
    ASSERT_FALSE(item.ok());
    EXPECT_EQ(item.status.code(), ErrorCode::kTransient);
  }
}

TEST_F(ServeTest, QueuedPastDeadlineComesBackAsTimeout) {
  // A single worker held for 150ms forces the second request to overrun
  // its 30ms budget while still queued.
  ScopedFailpoints fp{"batch.job:delay@150ms#1"};
  serve::Server::Config config;
  config.workers = 1;
  start(config);
  serve::Client blocker = connect();
  serve::Client client = connect();

  serve::PredictRequest slow;
  slow.program_text = sample_program(1);
  const std::uint64_t slow_id = blocker.next_id();
  ASSERT_TRUE(blocker
                  .send(serve::Frame{serve::FrameKind::kPredict, slow_id,
                                     serve::encode_predict_request(slow)})
                  .ok());

  serve::PredictRequest fast;
  fast.program_text = sample_program(2);
  fast.deadline_ms = 30;
  const Result<serve::PredictReply> reply = client.predict(fast);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), ErrorCode::kTimeout)
      << reply.status().to_string();

  const Result<serve::Frame> unblocked = blocker.receive();
  ASSERT_TRUE(unblocked.ok());
  EXPECT_EQ(unblocked->kind, serve::FrameKind::kResult);
}

TEST_F(ServeTest, ClientDisconnectCancelsItsInflightWork) {
  // Hold the job long enough that the disconnect is processed while the
  // worker sleeps; the simulation then observes the fired token at its
  // first step and unwinds as kCancelled.
  ScopedFailpoints fp{"batch.job:delay@150ms"};
  serve::Server::Config config;
  config.workers = 1;
  start(config);
  {
    serve::Client client = connect();
    serve::PredictRequest req;
    req.program_text = sample_program();
    ASSERT_TRUE(client
                    .send(serve::Frame{serve::FrameKind::kPredict, 1,
                                       serve::encode_predict_request(req)})
                    .ok());
    // Wait until the worker has popped the request (queue_wait is recorded
    // at pop time) so the close below lands while it executes -- otherwise
    // the disconnect could drop it from the queue instead.
    ASSERT_TRUE(wait_for_histogram("serve.queue_wait", 1))
        << registry_.to_string();
    // ~client closes the socket with the request still executing.
  }
  EXPECT_TRUE(wait_for_counter("batch.cancelled", 1))
      << registry_.to_string();
  // The answer had nobody to go to; it must not count as a response.
  EXPECT_EQ(registry_.counter("serve.responses").value(), 0u);
}

TEST_F(ServeTest, QueuedRequestsOfClosedConnectionAreDropped) {
  // One worker held asleep + inflight budget for 4: the 3 queued requests
  // behind the sleeper are dropped when the client vanishes.
  ScopedFailpoints fp{"batch.job:delay@150ms"};
  serve::Server::Config config;
  config.workers = 1;
  config.max_inflight_per_conn = 8;
  start(config);
  {
    serve::Client client = connect();
    serve::PredictRequest req;
    req.program_text = sample_program();
    std::string burst;
    for (std::uint64_t id = 1; id <= 4; ++id) {
      serve::append_frame(burst,
                          serve::Frame{serve::FrameKind::kPredict, id,
                                       serve::encode_predict_request(req)});
    }
    ASSERT_EQ(::write(client.fd(), burst.data(), burst.size()),
              static_cast<ssize_t>(burst.size()));
  }
  EXPECT_TRUE(wait_for_counter("serve.disconnect_cancels", 1))
      << registry_.to_string();
}

TEST_F(ServeTest, OversizedFrameIsRejectedAndConnectionClosed) {
  serve::Server::Config config;
  config.limits.max_payload = 256;
  start(config);

  // The client's own limit must be looser to even send the hostile frame.
  Result<serve::Client> connected = serve::Client::connect(
      "127.0.0.1", server_->port(), serve::WireLimits{.max_payload = 1 << 20});
  ASSERT_TRUE(connected.ok());
  serve::Client client = std::move(connected).value();
  serve::PredictRequest req;
  req.program_text = sample_program() + std::string(512, '#');
  ASSERT_TRUE(client
                  .send(serve::Frame{serve::FrameKind::kPredict, 5,
                                     serve::encode_predict_request(req)})
                  .ok());
  const Result<serve::Frame> frame = client.receive();
  ASSERT_TRUE(frame.ok()) << frame.status().to_string();
  ASSERT_EQ(frame->kind, serve::FrameKind::kError);
  const Result<serve::ErrorReply> reply =
      serve::decode_error_reply(frame->payload);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->code, ErrorCode::kInvalidInput);
  // The stream is poisoned; the server hangs up after the error.
  const Result<serve::Frame> eof = client.receive();
  EXPECT_FALSE(eof.ok());
  EXPECT_EQ(registry_.counter("serve.protocol_errors").value(), 1u);
}

TEST_F(ServeTest, StatsVerbRendersTheObsSnapshot) {
  start();
  serve::Client client = connect();
  serve::PredictRequest req;
  req.program_text = sample_program();
  ASSERT_TRUE(client.predict(req).ok());

  const Result<std::string> stats = client.stats();
  ASSERT_TRUE(stats.ok()) << stats.status().to_string();
  EXPECT_NE(stats->find("serve.requests"), std::string::npos);
  EXPECT_NE(stats->find("serve.latency"), std::string::npos);
  EXPECT_NE(stats->find("cache.hit_rate"), std::string::npos) << *stats;
}

TEST_F(ServeTest, StopAnswersNothingTwiceAndRestartsCleanly) {
  start();
  {
    serve::Client client = connect();
    EXPECT_TRUE(client.ping().ok());
  }
  server_->stop();
  server_->stop();  // idempotent
  EXPECT_EQ(server_->connection_count(), 0u);
}

// --- protocol v2: negotiation, binary codec, handles (DESIGN.md §14) -----

/// Bit-exact double comparison: the v1 %.17g text path and the v2 raw-bits
/// path must agree on the very last mantissa bit, not just "close".
::testing::AssertionResult same_bits(double a, double b) {
  std::uint64_t ba = 0;
  std::uint64_t bb = 0;
  std::memcpy(&ba, &a, sizeof a);
  std::memcpy(&bb, &b, sizeof b);
  if (ba == bb) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << a << " and " << b << " differ in bits (" << std::hex << ba
         << " vs " << bb << ")";
}

TEST(ServeWire, TextAndBinaryCodecsRoundTripIdentically) {
  std::vector<serve::PredictRequest> requests;
  serve::PredictRequest req;
  req.params_text = "L=9.25,o=2,g=13,G=0.03";
  req.seed = 0xffffffffffffffffull;
  req.deadline_ms = 123456789;
  req.program_text = sample_program(3);
  requests.push_back(req);
  req = serve::PredictRequest{};
  req.handle = 0x1234567890abcdefull;
  req.program_text.clear();
  requests.push_back(req);
  req = serve::PredictRequest{};
  req.program_text = "";  // degenerate but encodable
  req.params_text = "";
  requests.push_back(req);
  for (const serve::PredictRequest& want : requests) {
    for (const serve::Codec codec :
         {serve::Codec::kText, serve::Codec::kBinary}) {
      const Result<serve::PredictRequest> got = serve::decode_predict_request(
          serve::encode_predict_request(want, codec), codec);
      ASSERT_TRUE(got.ok()) << got.status().to_string();
      EXPECT_EQ(got->params_text, want.params_text);
      EXPECT_EQ(got->seed, want.seed);
      EXPECT_EQ(got->deadline_ms, want.deadline_ms);
      EXPECT_EQ(got->handle, want.handle);
      EXPECT_EQ(got->program_text, want.program_text);
    }
  }

  // Replies with awkward doubles: denormal-adjacent, ULP-separated pairs,
  // huge magnitudes -- every one must survive BOTH codecs bit-for-bit.
  const double nasty[] = {0.0,           1e-300,         1.0000000000000002,
                          0.1,           3.0000000000000004,
                          9.87654321e12, 825.16000000000008};
  std::size_t pick = 0;
  for (int round = 0; round < 7; ++round) {
    serve::PredictReply reply;
    reply.index = static_cast<std::uint64_t>(round);
    reply.total_us = nasty[pick++ % 7];
    reply.comp_us = nasty[pick++ % 7];
    reply.comm_us = nasty[pick++ % 7];
    reply.total_worst_us = nasty[pick++ % 7];
    reply.comm_worst_us = nasty[pick++ % 7];
    reply.from_cache = (round % 2) == 0;
    reply.attempts = round + 1;
    for (const serve::Codec codec :
         {serve::Codec::kText, serve::Codec::kBinary}) {
      const Result<serve::PredictReply> got = serve::decode_predict_reply(
          serve::encode_predict_reply(reply, codec), codec);
      ASSERT_TRUE(got.ok()) << got.status().to_string();
      EXPECT_EQ(got->index, reply.index);
      EXPECT_TRUE(same_bits(got->total_us, reply.total_us));
      EXPECT_TRUE(same_bits(got->comp_us, reply.comp_us));
      EXPECT_TRUE(same_bits(got->comm_us, reply.comm_us));
      EXPECT_TRUE(same_bits(got->total_worst_us, reply.total_worst_us));
      EXPECT_TRUE(same_bits(got->comm_worst_us, reply.comm_worst_us));
      EXPECT_EQ(got->from_cache, reply.from_cache);
      EXPECT_EQ(got->attempts, reply.attempts);
    }
  }

  serve::ErrorReply err;
  err.index = 2;
  err.code = ErrorCode::kTimeout;
  err.message = "first line\nsecond line";  // messages may contain newlines
  for (const serve::Codec codec :
       {serve::Codec::kText, serve::Codec::kBinary}) {
    const Result<serve::ErrorReply> got = serve::decode_error_reply(
        serve::encode_error_reply(err, codec), codec);
    ASSERT_TRUE(got.ok()) << got.status().to_string();
    EXPECT_EQ(got->index, err.index);
    EXPECT_EQ(got->code, err.code);
    EXPECT_EQ(got->message, err.message);
  }
}

TEST_F(ServeTest, HelloNegotiatesBinaryAndClampsToServerMax) {
  start();
  serve::Client client = connect();
  EXPECT_EQ(client.codec(), serve::Codec::kText);  // v1 until negotiated
  ASSERT_TRUE(client.hello().ok());
  EXPECT_EQ(client.codec(), serve::Codec::kBinary);
  EXPECT_EQ(client.protocol_version(), serve::kProtocolVersionMax);

  // Pinning the binary version is still honoured (and stays binary).
  serve::Client v2 = connect();
  ASSERT_TRUE(v2.hello(serve::kProtocolVersionBinary).ok());
  EXPECT_EQ(v2.protocol_version(), serve::kProtocolVersionBinary);
  EXPECT_EQ(v2.codec(), serve::Codec::kBinary);

  // A client from the future: the server answers min(its max, ours).
  serve::Client eager = connect();
  ASSERT_TRUE(eager.hello(99).ok());
  EXPECT_EQ(eager.protocol_version(), serve::kProtocolVersionMax);
  EXPECT_EQ(eager.codec(), serve::Codec::kBinary);

  // A deliberately v1-pinned hello keeps the text codec.
  serve::Client legacy = connect();
  ASSERT_TRUE(legacy.hello(serve::kProtocolVersionText).ok());
  EXPECT_EQ(legacy.codec(), serve::Codec::kText);
  EXPECT_TRUE(legacy.ping().ok());
}

TEST_F(ServeTest, BinaryPredictionMatchesTextBitForBit) {
  start();
  const std::string program = sample_program(4);

  serve::Client text = connect();
  serve::PredictRequest req;
  req.program_text = program;
  req.seed = 7;
  const Result<serve::PredictReply> via_text = text.predict(req);
  ASSERT_TRUE(via_text.ok()) << via_text.status().to_string();

  serve::Client binary = connect();
  ASSERT_TRUE(binary.hello().ok());
  const Result<serve::PredictReply> via_binary = binary.predict(req);
  ASSERT_TRUE(via_binary.ok()) << via_binary.status().to_string();

  EXPECT_TRUE(same_bits(via_binary->total_us, via_text->total_us));
  EXPECT_TRUE(same_bits(via_binary->comp_us, via_text->comp_us));
  EXPECT_TRUE(same_bits(via_binary->comm_us, via_text->comm_us));
  EXPECT_TRUE(same_bits(via_binary->total_worst_us, via_text->total_worst_us));
  EXPECT_TRUE(same_bits(via_binary->comm_worst_us, via_text->comm_worst_us));

  const runtime::JobResult direct = direct_predict(program, "meiko", 7);
  ASSERT_TRUE(direct.ok());
  EXPECT_TRUE(same_bits(via_binary->total_us, direct.value().total().us()));

  // And a binary batch streams the same per-job results as the text path.
  std::vector<serve::PredictRequest> jobs(3);
  jobs[0].program_text = sample_program(5);
  jobs[1].program_text = "procs 0\n";  // invalid: per-job error
  jobs[2].program_text = sample_program(6);
  const auto items = binary.predict_batch(jobs);
  ASSERT_TRUE(items.ok()) << items.status().to_string();
  ASSERT_EQ(items->size(), 3u);
  EXPECT_TRUE((*items)[0].ok());
  ASSERT_FALSE((*items)[1].ok());
  EXPECT_EQ((*items)[1].status.code(), ErrorCode::kInvalidInput);
  ASSERT_TRUE((*items)[2].ok());
  const runtime::JobResult direct2 =
      direct_predict(jobs[2].program_text, "meiko", 1);
  ASSERT_TRUE(direct2.ok());
  EXPECT_TRUE(same_bits((*items)[2].reply->total_us,
                        direct2.value().total().us()));
}

TEST_F(ServeTest, RegisteredHandlePredictsWithoutProgramUpload) {
  start();
  serve::Client client = connect();
  ASSERT_TRUE(client.hello().ok());

  const std::string program = sample_program(7);
  const Result<std::uint64_t> handle = client.register_program(program);
  ASSERT_TRUE(handle.ok()) << handle.status().to_string();
  ASSERT_NE(handle.value(), 0u);

  // Registering identical text again dedups to the SAME handle -- and so
  // does a second connection still speaking v1 text.
  const Result<std::uint64_t> again = client.register_program(program);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value(), handle.value());
  serve::Client v1 = connect();
  const Result<std::uint64_t> via_text = v1.register_program(program);
  ASSERT_TRUE(via_text.ok());
  EXPECT_EQ(via_text.value(), handle.value());

  serve::PredictRequest req;
  req.handle = handle.value();
  req.seed = 3;
  const Result<serve::PredictReply> first = client.predict(req);
  ASSERT_TRUE(first.ok()) << first.status().to_string();
  const runtime::JobResult direct = direct_predict(program, "meiko", 3);
  ASSERT_TRUE(direct.ok());
  EXPECT_TRUE(same_bits(first->total_us, direct.value().total().us()));
  EXPECT_TRUE(same_bits(first->comm_worst_us,
                        direct.value().comm_worst().us()));

  // The steady-state hot path: the repeat (handle, params, seed) lands in
  // the per-program memo and never reaches the simulator.
  const Result<serve::PredictReply> repeat = client.predict(req);
  ASSERT_TRUE(repeat.ok());
  EXPECT_TRUE(repeat->from_cache);
  EXPECT_TRUE(same_bits(repeat->total_us, first->total_us));
  EXPECT_GE(registry_.counter("serve.memo_hits").value(), 1u);
  EXPECT_GE(registry_.counter("serve.registered").value(), 3u);

  // Handles are small ints, so a bogus one must fail loudly, not alias.
  serve::PredictRequest bogus;
  bogus.handle = handle.value() + 1000;
  const Result<serve::PredictReply> miss = client.predict(bogus);
  ASSERT_FALSE(miss.ok());
  EXPECT_EQ(miss.status().code(), ErrorCode::kInvalidInput);

  // An unparsable program is rejected at REGISTER time, not predict time.
  const Result<std::uint64_t> broken = client.register_program("procs 0\n");
  ASSERT_FALSE(broken.ok());
  EXPECT_EQ(broken.status().code(), ErrorCode::kInvalidInput);
}

// --- reconnect + partial writes (satellite: client resilience) -----------

TEST_F(ServeTest, ReconnectAfterServerRestartRenegotiatesProtocol) {
  start();
  const std::uint16_t port = server_->port();
  serve::Client client = connect();
  ASSERT_TRUE(client.hello().ok());
  const Result<std::uint64_t> handle =
      client.register_program(sample_program(8));
  ASSERT_TRUE(handle.ok());

  server_->stop();
  serve::PredictRequest req;
  req.handle = handle.value();
  const Result<serve::PredictReply> dead = client.predict(req);
  ASSERT_FALSE(dead.ok());  // transport error: the server is gone

  // A fresh server process on the same port (SO_REUSEADDR).
  serve::Server::Config config;
  config.port = port;
  config.metrics = &registry_;
  server_ = std::make_unique<serve::Server>(config);
  ASSERT_TRUE(server_->start().ok());

  ASSERT_TRUE(client.reconnect().ok());
  // The v2 negotiation is replayed automatically...
  EXPECT_EQ(client.codec(), serve::Codec::kBinary);
  EXPECT_TRUE(client.ping().ok());
  // ...but handles do NOT survive a restart: the request must fail with a
  // clear re-register hint, never silently alias another program.
  const Result<serve::PredictReply> stale = client.predict(req);
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.status().code(), ErrorCode::kInvalidInput);
  const Result<std::uint64_t> fresh =
      client.register_program(sample_program(8));
  ASSERT_TRUE(fresh.ok());
  req.handle = fresh.value();
  const Result<serve::PredictReply> reply = client.predict(req);
  ASSERT_TRUE(reply.ok()) << reply.status().to_string();
  const runtime::JobResult direct = direct_predict(sample_program(8),
                                                   "meiko", 1);
  ASSERT_TRUE(direct.ok());
  EXPECT_TRUE(same_bits(reply->total_us, direct.value().total().us()));
}

TEST_F(ServeTest, ServerRestartMidBatchSurfacesTransportErrorThenRecovers) {
  // Hold the worker so the batch is provably inflight when the server dies.
  ScopedFailpoints fp{"batch.job:delay@150ms#1"};
  serve::Server::Config config;
  config.workers = 1;
  start(config);
  const std::uint16_t port = server_->port();
  serve::Client client = connect();

  std::vector<serve::PredictRequest> jobs(3);
  for (int i = 0; i < 3; ++i) jobs[i].program_text = sample_program(9 + i);
  const std::uint64_t id = client.next_id();
  ASSERT_TRUE(client
                  .send(serve::Frame{serve::FrameKind::kBatch, id,
                                     serve::encode_batch_request(jobs)})
                  .ok());
  ASSERT_TRUE(wait_for_histogram("serve.queue_wait", 1));
  server_->stop();

  // Whatever partial replies got out, the stream must END in an error --
  // the client can never mistake a died-mid-batch for a completed one.
  Status transport;
  for (int i = 0; i < 8 && transport.ok(); ++i) {
    const Result<serve::Frame> frame = client.receive();
    if (!frame.ok()) transport = frame.status();
    if (transport.ok()) ASSERT_NE(frame->kind, serve::FrameKind::kBatchEnd);
  }
  ASSERT_FALSE(transport.ok());

  serve::Server::Config again;
  again.port = port;
  again.metrics = &registry_;
  server_ = std::make_unique<serve::Server>(again);
  ASSERT_TRUE(server_->start().ok());
  ASSERT_TRUE(client.reconnect().ok());
  const auto items = client.predict_batch(jobs);
  ASSERT_TRUE(items.ok()) << items.status().to_string();
  for (const auto& item : *items) EXPECT_TRUE(item.ok());
}

TEST_F(ServeTest, PartialWritesThroughTinySocketBuffersStillRoundTrip) {
  start();
  serve::Client client = connect();
  // Shrink the client's send buffer to force write_frame through many
  // partial writes (the kernel rounds the value up, but far below the
  // frame size built here).
  const int tiny = 1024;
  ASSERT_EQ(::setsockopt(client.fd(), SOL_SOCKET, SO_SNDBUF, &tiny,
                         sizeof tiny),
            0);

  // A program an order of magnitude larger than any socket buffer: the
  // sample plus ~20k extra compute items in additional phases.
  std::string program = sample_program(1);
  for (int phase = 0; phase < 200; ++phase) {
    program += "compute\n";
    for (int item = 0; item < 100; ++item) {
      program += "item " + std::to_string(item % 4) + " 0 16\n";
    }
  }
  serve::PredictRequest req;
  req.program_text = program;
  const Result<serve::PredictReply> reply = client.predict(req);
  ASSERT_TRUE(reply.ok()) << reply.status().to_string();
  const runtime::JobResult direct = direct_predict(program, "meiko", 1);
  ASSERT_TRUE(direct.ok());
  EXPECT_TRUE(same_bits(reply->total_us, direct.value().total().us()));
}

// --- coalescing, reactors, sim threads (DESIGN.md §14) -------------------

TEST_F(ServeTest, ConcurrentSinglesCoalesceIntoOneGroup) {
  // First request holds the single worker 150ms; the four pipelined behind
  // it pile up in the scheduler and must pop as ONE group.
  ScopedFailpoints fp{"batch.job:delay@150ms#1"};
  serve::Server::Config config;
  config.workers = 1;
  config.max_inflight_per_conn = 8;
  config.coalesce_max = 8;
  start(config);
  serve::Client client = connect();

  std::string burst;
  for (std::uint64_t id = 1; id <= 5; ++id) {
    serve::PredictRequest req;
    req.program_text = sample_program(20 + static_cast<int>(id));
    serve::append_frame(burst,
                        serve::Frame{serve::FrameKind::kPredict, id,
                                     serve::encode_predict_request(req)});
  }
  ASSERT_EQ(::write(client.fd(), burst.data(), burst.size()),
            static_cast<ssize_t>(burst.size()));

  // Every reply must still be the right prediction for ITS request --
  // coalescing is a scheduling detail, not a semantic one.
  for (int i = 0; i < 5; ++i) {
    const Result<serve::Frame> frame = client.receive();
    ASSERT_TRUE(frame.ok()) << frame.status().to_string();
    ASSERT_EQ(frame->kind, serve::FrameKind::kResult);
    const Result<serve::PredictReply> reply =
        serve::decode_predict_reply(frame->payload);
    ASSERT_TRUE(reply.ok());
    const runtime::JobResult direct = direct_predict(
        sample_program(20 + static_cast<int>(frame->id)), "meiko", 1);
    ASSERT_TRUE(direct.ok());
    EXPECT_TRUE(same_bits(reply->total_us, direct.value().total().us()))
        << "id " << frame->id;
  }
  EXPECT_GE(registry_.counter("serve.coalesced_groups").value(), 1u);
  EXPECT_GE(registry_.counter("serve.coalesced_jobs").value(), 2u);
}

TEST_F(ServeTest, MultipleReactorsShardConnectionsCorrectly) {
  serve::Server::Config config;
  config.reactors = 2;
  start(config);
  EXPECT_EQ(server_->reactor_count(), 2u);

  // More connections than reactors: round-robin guarantees both epoll
  // threads own live connections, and every one must behave identically.
  std::vector<serve::Client> clients;
  for (int i = 0; i < 5; ++i) clients.push_back(connect());
  const runtime::JobResult direct = direct_predict(sample_program(30),
                                                   "meiko", 1);
  ASSERT_TRUE(direct.ok());
  for (std::size_t i = 0; i < clients.size(); ++i) {
    ASSERT_TRUE(clients[i].ping().ok()) << "client " << i;
    serve::PredictRequest req;
    req.program_text = sample_program(30);
    const Result<serve::PredictReply> reply = clients[i].predict(req);
    ASSERT_TRUE(reply.ok()) << reply.status().to_string();
    EXPECT_TRUE(same_bits(reply->total_us, direct.value().total().us()));
  }
  EXPECT_EQ(server_->connection_count(), clients.size());
  clients.clear();
  // Closing them all drains both reactors' connection tables.
  const auto deadline = std::chrono::steady_clock::now() + 2000ms;
  while (server_->connection_count() != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(2ms);
  }
  EXPECT_EQ(server_->connection_count(), 0u);
}

// --- protocol v3: the TOPOLOGY field (ISSUE 10) ---------------------------

TEST(ServeWire, PredictRequestTopologyRoundTripsBothCodecs) {
  serve::PredictRequest req;
  req.params_text = "meiko";
  req.seed = 5;
  req.handle = 9;
  req.topology_text = "fattree:4,4/1,2;hop=2.5";
  for (const serve::Codec codec : {serve::Codec::kText, serve::Codec::kBinary}) {
    const std::string payload = serve::encode_predict_request(req, codec);
    const Result<serve::PredictRequest> back =
        serve::decode_predict_request(payload, codec);
    ASSERT_TRUE(back.ok()) << back.status().to_string();
    EXPECT_EQ(back->topology_text, req.topology_text);
    EXPECT_EQ(back->handle, req.handle);
  }
  // Empty topology encodes to the pre-v3 payload byte-for-byte.
  req.topology_text.clear();
  for (const serve::Codec codec : {serve::Codec::kText, serve::Codec::kBinary}) {
    const std::string payload = serve::encode_predict_request(req, codec);
    const Result<serve::PredictRequest> back =
        serve::decode_predict_request(payload, codec);
    ASSERT_TRUE(back.ok());
    EXPECT_TRUE(back->topology_text.empty());
  }
}

TEST(ServeWire, RegisterPayloadTopologyPrefixSplits) {
  const std::string program = "procs 4\n";
  EXPECT_EQ(serve::encode_register_request(program, ""), program);
  const std::string with =
      serve::encode_register_request(program, "torus:2x2");
  const serve::RegisterRequest split = serve::split_register_request(with);
  EXPECT_EQ(split.topology_text, "torus:2x2");
  EXPECT_EQ(split.program_text, program);
  const serve::RegisterRequest plain = serve::split_register_request(program);
  EXPECT_TRUE(plain.topology_text.empty());
  EXPECT_EQ(plain.program_text, program);
}

TEST_F(ServeTest, TopologyRequiresNegotiatedV3) {
  start();
  serve::Client client = connect();  // no hello(): still protocol v1
  serve::PredictRequest req;
  req.program_text = sample_program();
  req.topology_text = "torus:2x2";
  const Result<serve::PredictReply> reply = client.predict(req);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), ErrorCode::kInvalidInput);
  // After hello() the same request is accepted.
  ASSERT_TRUE(client.hello().ok());
  ASSERT_EQ(client.protocol_version(), serve::kProtocolVersionTopology);
  const Result<serve::PredictReply> ok = client.predict(req);
  ASSERT_TRUE(ok.ok()) << ok.status().to_string();
}

/// A 4-proc incast whose receiver computes afterwards, so topology delays
/// land on the critical path (sample_program's multi-hop message is
/// absorbed off it and predicts the same total under a 2x2 torus).
std::string hotspot_program() {
  return
      "procs 4\n"
      "op mult\n"
      "cost 0 16 250.5\n"
      "compute\n"
      "item 0 0 16\n"
      "item 1 0 16\n"
      "item 2 0 16\n"
      "item 3 0 16\n"
      "comm\n"
      "msg 1 0 4096\n"
      "msg 2 0 4096\n"
      "msg 3 0 4096\n"
      "compute\n"
      "item 0 0 16\n";
}

TEST_F(ServeTest, TopologySlowsPredictionAndKeysTheCaches) {
  start();
  serve::Client client = connect();
  ASSERT_TRUE(client.hello().ok());

  serve::PredictRequest flat;
  flat.program_text = hotspot_program();
  const Result<serve::PredictReply> flat_reply = client.predict(flat);
  ASSERT_TRUE(flat_reply.ok()) << flat_reply.status().to_string();

  serve::PredictRequest shaped = flat;
  shaped.topology_text = "torus:2x2";
  const Result<serve::PredictReply> shaped_reply = client.predict(shaped);
  ASSERT_TRUE(shaped_reply.ok()) << shaped_reply.status().to_string();

  // The torus adds communication cost, and the flat answer's cache entry
  // must not leak into the shaped request (or vice versa).
  EXPECT_GT(shaped_reply->total_us, flat_reply->total_us);
  EXPECT_FALSE(shaped_reply->from_cache);
  const Result<serve::PredictReply> shaped_again = client.predict(shaped);
  ASSERT_TRUE(shaped_again.ok());
  EXPECT_TRUE(same_bits(shaped_again->total_us, shaped_reply->total_us));

  // A malformed or wrong-shape topology fails loudly.
  serve::PredictRequest bad = flat;
  bad.topology_text = "torus:3x3";  // the program has 4 procs
  const Result<serve::PredictReply> mismatch = client.predict(bad);
  ASSERT_FALSE(mismatch.ok());
  EXPECT_EQ(mismatch.status().code(), ErrorCode::kInvalidInput);
  bad.topology_text = "hypercube:4";
  const Result<serve::PredictReply> unknown = client.predict(bad);
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), ErrorCode::kInvalidInput);
}

TEST_F(ServeTest, RegisterWithTopologyGetsItsOwnHandleAndMemo) {
  start();
  serve::Client client = connect();
  ASSERT_TRUE(client.hello().ok());

  const std::string program = hotspot_program();
  const Result<std::uint64_t> flat_handle = client.register_program(program);
  ASSERT_TRUE(flat_handle.ok()) << flat_handle.status().to_string();
  const Result<std::uint64_t> torus_handle =
      client.register_program(program, "torus:2x2");
  ASSERT_TRUE(torus_handle.ok()) << torus_handle.status().to_string();
  // Same program under a different interconnect is a DIFFERENT entry...
  EXPECT_NE(flat_handle.value(), torus_handle.value());
  // ...and re-registering the same (program, topology) dedups.
  const Result<std::uint64_t> again =
      client.register_program(program, "torus:2x2");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value(), torus_handle.value());

  serve::PredictRequest flat_req;
  flat_req.handle = flat_handle.value();
  serve::PredictRequest torus_req;
  torus_req.handle = torus_handle.value();
  const Result<serve::PredictReply> flat_reply = client.predict(flat_req);
  const Result<serve::PredictReply> torus_reply = client.predict(torus_req);
  ASSERT_TRUE(flat_reply.ok());
  ASSERT_TRUE(torus_reply.ok());
  EXPECT_GT(torus_reply->total_us, flat_reply->total_us);

  // The per-entry (params, seed) memo serves repeats of the shaped handle:
  // the topology is part of the entry, so the memo stays sound.
  const Result<serve::PredictReply> memo = client.predict(torus_req);
  ASSERT_TRUE(memo.ok());
  EXPECT_TRUE(memo->from_cache);
  EXPECT_TRUE(same_bits(memo->total_us, torus_reply->total_us));

  // A request-level topology equal to the entry's still memoizes; a
  // different one overrides the entry and bypasses the memo.
  serve::PredictRequest same_spec = torus_req;
  same_spec.topology_text = "torus:2x2";
  const Result<serve::PredictReply> same = client.predict(same_spec);
  ASSERT_TRUE(same.ok());
  EXPECT_TRUE(same->from_cache);
  EXPECT_TRUE(same_bits(same->total_us, torus_reply->total_us));
  serve::PredictRequest override_spec = torus_req;
  override_spec.topology_text = "mesh:2x2";
  const Result<serve::PredictReply> mesh = client.predict(override_spec);
  ASSERT_TRUE(mesh.ok());
  EXPECT_FALSE(mesh->from_cache);
  EXPECT_GE(mesh->total_us, torus_reply->total_us);  // mesh has no wrap

  // A topology that does not fit the program is rejected at REGISTER time.
  const Result<std::uint64_t> misfit =
      client.register_program(program, "torus:3x3");
  ASSERT_FALSE(misfit.ok());
  EXPECT_EQ(misfit.status().code(), ErrorCode::kInvalidInput);
}

// --- async prediction handles (ISSUE 10 satellite) ------------------------

TEST_F(ServeTest, AsyncHandlesCompleteOutOfOrderAndMatchSync) {
  start();
  serve::Client client = connect();
  ASSERT_TRUE(client.hello().ok());

  // Fire several asynchronous predictions, then collect in REVERSE order:
  // the stash must hold the replies that arrive while we wait for later
  // handles.
  std::vector<serve::PredictionHandle> handles;
  for (int i = 0; i < 4; ++i) {
    serve::PredictRequest req;
    req.program_text = sample_program(i + 1);
    req.seed = 11;
    Result<serve::PredictionHandle> h = client.start(req);
    ASSERT_TRUE(h.ok()) << h.status().to_string();
    EXPECT_NE(h->id(), 0u);
    handles.push_back(std::move(h).value());
  }
  for (int i = 3; i >= 0; --i) {
    const Result<serve::PredictReply> reply = handles[static_cast<std::size_t>(i)].wait();
    ASSERT_TRUE(reply.ok()) << reply.status().to_string();
    const runtime::JobResult direct =
        direct_predict(sample_program(i + 1), "meiko", 11);
    ASSERT_TRUE(direct.ok());
    EXPECT_TRUE(same_bits(reply->total_us, direct.value().total().us()));
  }
  // wait() is idempotent once done.
  const Result<serve::PredictReply> again = handles[0].wait();
  ASSERT_TRUE(again.ok());
}

TEST_F(ServeTest, AsyncTestPollsWithoutBlocking) {
  start();
  serve::Client client = connect();
  serve::PredictRequest req;
  req.program_text = sample_program(5);
  Result<serve::PredictionHandle> handle = client.start(req);
  ASSERT_TRUE(handle.ok());
  // Poll until done; test() never blocks, so spin with a deadline.
  const auto deadline = std::chrono::steady_clock::now() + 5000ms;
  for (;;) {
    const Result<bool> done = handle->test();
    ASSERT_TRUE(done.ok()) << done.status().to_string();
    if (done.value()) break;
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "never completed";
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_TRUE(handle->done());
  const Result<serve::PredictReply> reply = handle->wait();
  ASSERT_TRUE(reply.ok());
  EXPECT_GT(reply->total_us, 0.0);
}

TEST_F(ServeTest, WaitAnyReturnsEachHandleExactlyOnce) {
  start();
  serve::Client client = connect();
  ASSERT_TRUE(client.hello().ok());
  std::vector<serve::PredictionHandle> handles;
  for (int i = 0; i < 3; ++i) {
    serve::PredictRequest req;
    req.program_text = sample_program(i + 7);
    Result<serve::PredictionHandle> h = client.start(req);
    ASSERT_TRUE(h.ok());
    handles.push_back(std::move(h).value());
  }
  std::vector<bool> seen(handles.size(), false);
  for (std::size_t round = 0; round < handles.size(); ++round) {
    const Result<std::size_t> idx = client.wait_any(handles);
    ASSERT_TRUE(idx.ok()) << idx.status().to_string();
    ASSERT_LT(idx.value(), handles.size());
    serve::PredictionHandle& done = handles[idx.value()];
    EXPECT_TRUE(done.done());
    const Result<serve::PredictReply> reply = done.wait();
    ASSERT_TRUE(reply.ok());
    seen[idx.value()] = true;
    // Consume: replace with a fresh default handle so the next wait_any
    // round reports a different completion.
    done = serve::PredictionHandle{};
  }
  for (const bool s : seen) EXPECT_TRUE(s);
}

TEST_F(ServeTest, SyncPredictInterleavesWithOutstandingHandle) {
  start();
  serve::Client client = connect();
  ASSERT_TRUE(client.hello().ok());
  serve::PredictRequest async_req;
  async_req.program_text = sample_program(13);
  Result<serve::PredictionHandle> handle = client.start(async_req);
  ASSERT_TRUE(handle.ok());
  // A synchronous predict on the same connection must not lose the async
  // reply if it lands first -- the shared assembler stashes it.
  serve::PredictRequest sync_req;
  sync_req.program_text = sample_program(17);
  const Result<serve::PredictReply> sync_reply = client.predict(sync_req);
  ASSERT_TRUE(sync_reply.ok()) << sync_reply.status().to_string();
  const Result<serve::PredictReply> async_reply = handle->wait();
  ASSERT_TRUE(async_reply.ok()) << async_reply.status().to_string();
  const runtime::JobResult direct = direct_predict(sample_program(13),
                                                   "meiko", 1);
  ASSERT_TRUE(direct.ok());
  EXPECT_TRUE(same_bits(async_reply->total_us, direct.value().total().us()));
}

TEST_F(ServeTest, AsyncErrorReplySurfacesThroughWait) {
  start();
  serve::Client client = connect();
  serve::PredictRequest req;
  req.program_text = "procs 0\n";  // rejected by the program parser
  Result<serve::PredictionHandle> handle = client.start(req);
  ASSERT_TRUE(handle.ok());
  const Result<serve::PredictReply> reply = handle->wait();
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), ErrorCode::kInvalidInput);
  // Still done, still idempotent.
  EXPECT_TRUE(handle->done());
  const Result<serve::PredictReply> again = handle->wait();
  ASSERT_FALSE(again.ok());
}

}  // namespace
}  // namespace logsim
