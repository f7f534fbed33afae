#pragma once
// Wire format of the logsim serving layer (DESIGN.md §12, §14).
//
// Every message is one length-prefixed frame over a byte stream:
//
//   u32le payload_len | u8 kind | u64le id | payload bytes
//
// The 13-byte header is fixed; `id` is a client-chosen correlation id
// echoed verbatim on every response to the request (batch jobs stream back
// as one kResult per job, tagged with the job index inside the payload,
// then one kBatchEnd).
//
// Two payload codecs share that framing.  Protocol v1 (Codec::kText) wraps
// the library's text codecs -- io::parse_program / io::parse_params on the
// way in, the %.17g decimal rendering of the prediction times on the way
// out, which round-trips doubles exactly -- in a small line-oriented
// envelope:
//
//   PREDICT payload                     RESULT payload
//     params meiko                        index 0
//     seed 1                              total_us 1234.5
//     deadline_ms 250                     comp_us ...
//     handle 7       (only if nonzero)    comm_us ...
//     topology torus:4x4  (v3, if set)    total_worst_us ...
//     program                             comm_worst_us ...
//     <program text...>
//                                         from_cache 1
//                                         attempts 1
//
// (A reply always carries BOTH the standard and the worst-case schedule's
// numbers -- the predictor computes both anyway -- so there is no "worst"
// request flag; clients pick which to display.)
//
//   BATCH payload: "jobs N" then N sections of "job <bytes>" + an embedded
//   PREDICT payload of exactly that many bytes.
//
//   ERROR payload: "index I", "code <error-code-name>", then "message "
//   followed by the rest of the payload (messages may contain newlines).
//
// Protocol v2 (Codec::kBinary) carries the same envelopes as fixed-width
// little-endian fields with doubles as raw IEEE-754 bits (DESIGN.md §14
// has the byte-level layouts).  v2 is negotiated per connection: the
// client sends a HELLO frame ("LSIM" magic + the highest version it
// speaks), the server answers kHelloAck with min(its own max, the
// client's), and both sides switch codecs iff the agreed version is >= 2.
// A connection that never says HELLO speaks v1 forever -- old clients work
// unchanged.  Both codecs decode the identical PredictRequest /
// PredictReply / ErrorReply values bit-for-bit (doubles included); tests
// cross-check this on a corpus.
//
// REGISTER (v2 feature, but legal under both codecs) interns a program on
// the server and returns a compact handle; steady-state PREDICT payloads
// then carry (handle, params, seed) and no program text at all.
//
// Untrusted boundary on both ends: oversized declared lengths, truncated
// streams and malformed envelopes all come back as Status -- never an
// unbounded read or an assert.  WireLimits::max_payload is the explicit
// max-message size; io parse options inherit it so a hostile payload is
// rejected before it allocates.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "fault/status.hpp"

namespace logsim::serve {

/// Frame type tag.  Requests are < 64, responses >= 64, so a peer can
/// cheaply sanity-check direction.
enum class FrameKind : std::uint8_t {
  kPing = 1,
  kPredict = 2,
  kBatch = 3,
  kStats = 4,
  kHello = 5,     ///< codec negotiation; payload is version-framed
  kRegister = 6,  ///< intern a program; payload is the raw program text
  kPong = 64,
  kResult = 65,
  kError = 66,
  kStatsText = 67,
  kBatchEnd = 68,
  kHelloAck = 69,    ///< accepted protocol version
  kRegistered = 70,  ///< the handle assigned by REGISTER
};

/// Payload codec of one connection.  Framing is codec-independent; only
/// the payload encoding differs.
enum class Codec : std::uint8_t {
  kText = 1,    ///< protocol v1: line-oriented text envelopes
  kBinary = 2,  ///< protocol v2: fixed-width little-endian fields
};

inline constexpr std::uint32_t kProtocolVersionText = 1;
inline constexpr std::uint32_t kProtocolVersionBinary = 2;
/// v3 adds the optional TOPOLOGY field on PREDICT and REGISTER (the
/// io/topology_io.hpp text format).  Same binary codec as v2; the version
/// gates whether a client may SEND the field (older peers reject unknown
/// keys / flag bits by design).
inline constexpr std::uint32_t kProtocolVersionTopology = 3;
inline constexpr std::uint32_t kProtocolVersionMax = kProtocolVersionTopology;

/// The codec a negotiated protocol version implies.
[[nodiscard]] constexpr Codec codec_for_version(std::uint32_t version) {
  return version >= kProtocolVersionBinary ? Codec::kBinary : Codec::kText;
}

/// True for kinds this build understands (a peer speaking a newer protocol
/// revision gets a protocol error, not undefined behaviour).
[[nodiscard]] bool frame_kind_known(std::uint8_t kind);

struct Frame {
  FrameKind kind = FrameKind::kPing;
  std::uint64_t id = 0;
  std::string payload;
};

struct WireLimits {
  /// Hard cap on one frame's payload; both sides enforce it on send and
  /// on the declared length before reading a body.  Also forwarded into
  /// the io parsers' max_bytes.
  std::size_t max_payload = 16ull << 20;
};

inline constexpr std::size_t kFrameHeaderBytes = 13;

/// Serializes the 13-byte header into `out` (appended).
void append_frame(std::string& out, const Frame& frame);

/// Writes one frame to `fd`, looping over partial writes.  Transient
/// failures (EINTR aside, which is retried silently) come back as Status;
/// the "serve.write" failpoint fires here.
[[nodiscard]] Status write_frame(int fd, const Frame& frame,
                                 const WireLimits& limits);

/// Reads one frame from `fd`.  Returns nullopt on a clean EOF at a frame
/// boundary (the peer hung up between messages); a stream that ends inside
/// a frame is an invalid-input "truncated frame" error, and a declared
/// payload length above limits.max_payload is rejected WITHOUT reading the
/// body.  The "serve.read" failpoint fires per call.
[[nodiscard]] Result<std::optional<Frame>> read_frame(int fd,
                                                      const WireLimits& limits);

/// Incremental frame decoder for event-loop readers: feed bytes in, pull
/// complete frames out.  Enforces the same limits as read_frame.
class FrameAssembler {
 public:
  explicit FrameAssembler(WireLimits limits) : limits_(limits) {}

  /// Appends raw bytes received from the peer.
  void feed(const char* data, std::size_t n) { buffer_.append(data, n); }

  /// Extracts the next complete frame, if any.  A malformed header
  /// (oversized declared length, unknown kind) poisons the stream: the
  /// error is returned now and on every later call.
  [[nodiscard]] Result<std::optional<Frame>> next();

  /// Bytes buffered but not yet consumed (for tests / diagnostics).
  [[nodiscard]] std::size_t buffered() const { return buffer_.size(); }

 private:
  WireLimits limits_;
  std::string buffer_;
  std::size_t consumed_ = 0;  // compacted lazily
  Status poisoned_;           // sticky protocol error
};

// --- request / response envelopes ---------------------------------------

struct PredictRequest {
  std::string params_text = "meiko";  ///< io::parse_params input
  std::uint64_t seed = 1;
  /// Per-request wall-clock budget in milliseconds; 0 = server default.
  std::uint64_t deadline_ms = 0;
  std::string program_text;  ///< io::parse_program input
  /// Registered-program handle from a prior REGISTER; 0 = none, the
  /// request carries program_text instead.  A nonzero handle wins over any
  /// program text.
  std::uint64_t handle = 0;
  /// Network topology in the io/topology_io.hpp text format ("torus:4x4",
  /// "fattree:4,4/1,2", ...); empty = the flat LogGP network.  Requires a
  /// negotiated protocol version >= kProtocolVersionTopology to send
  /// (clients enforce this; older servers reject the unknown field).  On a
  /// handle request a non-empty value overrides the topology the program
  /// was registered with.
  std::string topology_text;
};

struct PredictReply {
  std::uint64_t index = 0;  ///< job index inside a batch; 0 for singles
  double total_us = 0.0;
  double comp_us = 0.0;
  double comm_us = 0.0;
  double total_worst_us = 0.0;
  double comm_worst_us = 0.0;
  bool from_cache = false;
  /// Always 1 from logsimd, which runs each prediction once; the field
  /// stays so the reply frame layout does not change.
  int attempts = 0;
};

struct ErrorReply {
  std::uint64_t index = 0;
  ErrorCode code = ErrorCode::kInternal;
  std::string message;

  [[nodiscard]] Status to_status() const { return Status{code, message}; }
};

// The zero-argument-codec overloads are protocol v1 (text); the Codec
// overloads dispatch.  Both codecs round-trip the identical struct values,
// doubles bit-for-bit.

[[nodiscard]] std::string encode_predict_request(const PredictRequest& req);
[[nodiscard]] Result<PredictRequest> decode_predict_request(
    const std::string& payload);
[[nodiscard]] std::string encode_predict_request(const PredictRequest& req,
                                                 Codec codec);
[[nodiscard]] Result<PredictRequest> decode_predict_request(
    const std::string& payload, Codec codec);

[[nodiscard]] std::string encode_batch_request(
    const std::vector<PredictRequest>& jobs);
[[nodiscard]] Result<std::vector<PredictRequest>> decode_batch_request(
    const std::string& payload, const WireLimits& limits);
[[nodiscard]] std::string encode_batch_request(
    const std::vector<PredictRequest>& jobs, Codec codec);
[[nodiscard]] Result<std::vector<PredictRequest>> decode_batch_request(
    const std::string& payload, const WireLimits& limits, Codec codec);

[[nodiscard]] std::string encode_predict_reply(const PredictReply& reply);
[[nodiscard]] Result<PredictReply> decode_predict_reply(
    const std::string& payload);
[[nodiscard]] std::string encode_predict_reply(const PredictReply& reply,
                                               Codec codec);
[[nodiscard]] Result<PredictReply> decode_predict_reply(
    const std::string& payload, Codec codec);

[[nodiscard]] std::string encode_error_reply(const ErrorReply& reply);
[[nodiscard]] Result<ErrorReply> decode_error_reply(const std::string& payload);
[[nodiscard]] std::string encode_error_reply(const ErrorReply& reply,
                                             Codec codec);
[[nodiscard]] Result<ErrorReply> decode_error_reply(const std::string& payload,
                                                    Codec codec);

// --- negotiation + registration ------------------------------------------

/// HELLO payload: "LSIM" magic + u32le highest version the client speaks.
[[nodiscard]] std::string encode_hello_request(std::uint32_t max_version);
[[nodiscard]] Result<std::uint32_t> decode_hello_request(
    const std::string& payload);

/// HELLO-ACK payload: u32le version the server picked (min of both sides).
[[nodiscard]] std::string encode_hello_ack(std::uint32_t version);
[[nodiscard]] Result<std::uint32_t> decode_hello_ack(
    const std::string& payload);

// REGISTER requests carry the raw program text as the payload under both
// codecs (no envelope; the text IS the message).  Protocol v3 optionally
// prefixes one "topology <spec>\n" line (split_register_request peels it);
// the server only honours the prefix on connections that negotiated v3,
// so pre-v3 program text is never reinterpreted.  The reply differs:
// v1 renders "handle N", v2 a u64le.
[[nodiscard]] std::string encode_registered_reply(std::uint64_t handle,
                                                  Codec codec);
[[nodiscard]] Result<std::uint64_t> decode_registered_reply(
    const std::string& payload, Codec codec);

/// A REGISTER payload split into its optional topology prefix and the
/// program text proper.
struct RegisterRequest {
  std::string topology_text;  ///< empty = flat (no prefix present)
  std::string program_text;
};

/// Builds a REGISTER payload: the program text, prefixed with one
/// "topology <spec>\n" line when `topology_text` is non-empty (protocol
/// v3; the caller must have negotiated it).
[[nodiscard]] std::string encode_register_request(
    const std::string& program_text, const std::string& topology_text);

/// Splits a REGISTER payload.  A payload without the prefix comes back
/// with an empty topology_text and the payload as program_text verbatim.
[[nodiscard]] RegisterRequest split_register_request(
    const std::string& payload);

}  // namespace logsim::serve
