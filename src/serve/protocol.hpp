#pragma once
// Wire protocol of the serve layer: a small length-prefixed binary framing
// with a versioned fixed-size header and a CRC-checked payload.
//
//   offset size field
//   0      4    magic "SWC1" (little-endian 0x31435753)
//   4      1    protocol version (kProtocolVersion)
//   5      1    message type (MsgType)
//   6      2    flags (reserved, must be 0)
//   8      4    stream id (0 before HELLO_ACK assigns one)
//   12     8    sequence number (per-stream, client-chosen for SUBMIT_FRAME,
//               echoed in the matching FRAME_DONE)
//   20     4    payload length in bytes
//   24     4    CRC-32 (IEEE) of the payload bytes
//   28     …    payload
//
// Conversation shape (one compression stream per connection):
//   client                          server
//   HELLO {qos, geometry, name,
//          backend, rate target}->
//                                <- HELLO_ACK {stream id in header}   | ERROR
//   SUBMIT_FRAME {pixels}       ->
//                                <- FRAME_DONE {status, latency, bits}
//   STATS {}                    ->
//                                <- STATS_REPLY {telemetry JSON}
//   GOODBYE {}                  ->   (server closes after flushing)
//
// FrameParser is the incremental receive-side state machine: feed() consumes
// arbitrary byte chunks and emits complete validated messages. Malformed
// input (bad magic/version/type, oversized or CRC-corrupt payload) poisons
// the parser — it reports the error and ignores further bytes, never throws,
// never reads out of bounds; the fuzz suite and run_frame_protocol harness
// hold it to that.

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace swc::serve {

inline constexpr std::uint32_t kMagic = 0x31435753u;  // "SWC1" on the wire
// v2 extends HELLO with codec-backend selection and an optional closed-loop
// rate target. The parser rejects other versions outright, so v1 clients get
// a clean BadVersion instead of a misdecoded HELLO.
inline constexpr std::uint8_t kProtocolVersion = 2;
inline constexpr std::size_t kHeaderSize = 28;
// Default ceiling on one message's payload; a 3840x3840 frame is ~14.1 MiB.
inline constexpr std::size_t kDefaultMaxPayload = std::size_t{16} << 20;

enum class MsgType : std::uint8_t {
  Hello = 1,       // client -> server: open a stream (HelloPayload)
  HelloAck = 2,    // server -> client: stream admitted; header carries its id
  SubmitFrame = 3, // client -> server: one frame's raw pixels
  FrameDone = 4,   // server -> client: completion/rejection (FrameDonePayload)
  Stats = 5,       // client -> server: request a telemetry snapshot
  StatsReply = 6,  // server -> client: telemetry JSON text
  Goodbye = 7,     // client -> server: orderly end of stream
  Error = 8,       // server -> client: protocol/admission failure (ErrorPayload)
};

// Per-frame completion status carried in FrameDonePayload. Rejections are
// explicit wire-level responses — a frame is never silently dropped.
enum class FrameStatus : std::uint8_t {
  Ok = 0,
  RejectedBusy = 1,      // realtime tier: engine queue or in-flight cap hit
  RejectedShutdown = 2,  // server tearing down
  BadFrame = 3,          // payload size does not match the stream geometry
};

// Admission/QoS tier requested at HELLO. Realtime maps to
// runtime::SubmitPolicy::Reject (fail fast, rejection on the wire); Bulk to
// Block-style delivery via a bounded connection read pause (the TCP peer is
// throttled instead of any queue growing without bound).
enum class QosTier : std::uint8_t {
  Realtime = 0,
  Bulk = 1,
};

enum class ErrorCode : std::uint16_t {
  ProtocolViolation = 1,  // malformed/unexpected message
  ServerFull = 2,         // admission control: max sessions reached
  BadGeometry = 3,        // HELLO geometry or rate target failed validation
  StreamMismatch = 4,     // header stream id does not match the session's
  UnknownStream = 5,      // engine stream retired underneath the session
  BadBackend = 6,         // HELLO requested a codec backend that is not registered
};

struct FrameHeader {
  std::uint8_t version = kProtocolVersion;
  MsgType type = MsgType::Hello;
  std::uint16_t flags = 0;
  std::uint32_t stream_id = 0;
  std::uint64_t seq = 0;
  std::uint32_t payload_len = 0;
  std::uint32_t payload_crc = 0;
};

// One fully validated message as emitted by FrameParser.
struct Message {
  FrameHeader header;
  std::vector<std::uint8_t> payload;
};

// CRC-32 (IEEE 802.3, reflected) over a byte span.
[[nodiscard]] std::uint32_t crc32(std::span<const std::uint8_t> data) noexcept;

// --- payload codecs ---------------------------------------------------------

// Rate-control request carried in HELLO (v2). None runs the stream open-loop
// at the fixed threshold; the other modes make the server adapt the codec
// threshold toward `rate_target_milli / 1000.0` frame to frame.
enum class RateMode : std::uint8_t {
  None = 0,
  BitsPerPixel = 1,
  Mse = 2,
};

struct HelloPayload {
  QosTier qos = QosTier::Bulk;
  std::uint32_t width = 0;
  std::uint32_t height = 0;
  std::uint32_t window = 0;
  std::int32_t threshold = 0;
  std::string name;       // diagnostic stream name, length-prefixed (u16)
  std::string backend{};  // codec backend name, length-prefixed (u16); "" = server default
  RateMode rate_mode = RateMode::None;
  std::uint32_t rate_target_milli = 0;  // target * 1000 (bpp or MSE per rate_mode)
};

struct FrameDonePayload {
  FrameStatus status = FrameStatus::Ok;
  std::uint64_t latency_ns = 0;   // submit-to-completion inside the server
  std::uint64_t payload_bits = 0; // compressed payload bits of this frame
};

struct ErrorPayload {
  ErrorCode code = ErrorCode::ProtocolViolation;
  std::string message;
};

[[nodiscard]] std::vector<std::uint8_t> encode_payload(const HelloPayload& p);
[[nodiscard]] std::vector<std::uint8_t> encode_payload(const FrameDonePayload& p);
[[nodiscard]] std::vector<std::uint8_t> encode_payload(const ErrorPayload& p);
[[nodiscard]] std::optional<HelloPayload> decode_hello(std::span<const std::uint8_t> payload);
[[nodiscard]] std::optional<FrameDonePayload> decode_frame_done(
    std::span<const std::uint8_t> payload);
[[nodiscard]] std::optional<ErrorPayload> decode_error(std::span<const std::uint8_t> payload);

// Serializes header + payload into one wire frame (fills in payload_len and
// payload_crc from the payload bytes).
[[nodiscard]] std::vector<std::uint8_t> encode_message(MsgType type, std::uint32_t stream_id,
                                                       std::uint64_t seq,
                                                       std::span<const std::uint8_t> payload);

// Patches the seq field of an already encoded frame in place — the loadgen
// hot path reuses one encoded SUBMIT_FRAME and only rewrites the sequence
// number (the CRC covers the payload only, so it stays valid).
void patch_seq(std::span<std::uint8_t> wire_frame, std::uint64_t seq) noexcept;

// --- incremental receive-side parser ----------------------------------------

class FrameParser {
 public:
  enum class Error : std::uint8_t {
    None,
    BadMagic,
    BadVersion,
    BadType,
    BadFlags,
    Oversized,  // payload_len exceeds the configured limit
    BadCrc,
  };

  struct Limits {
    std::size_t max_payload = kDefaultMaxPayload;
  };

  using Sink = std::function<void(Message&&)>;

  // Two constructors rather than `Limits limits = {}`: GCC cannot parse a
  // braced default argument of a nested struct inside its enclosing class.
  FrameParser() = default;
  explicit FrameParser(Limits limits) : limits_(limits) {}

  // Consumes a chunk, invoking `sink` once per complete valid message.
  // Returns false once the stream is poisoned (error() says why); the
  // remainder of the chunk and all further bytes are discarded.
  bool feed(std::span<const std::uint8_t> data, const Sink& sink);

  [[nodiscard]] Error error() const noexcept { return error_; }
  [[nodiscard]] std::size_t messages_parsed() const noexcept { return messages_parsed_; }
  // Bytes currently buffered waiting for the rest of a message — bounded by
  // kHeaderSize + max_payload + the largest chunk ever fed.
  [[nodiscard]] std::size_t buffered_bytes() const noexcept { return buffer_.size() - consumed_; }

 private:
  [[nodiscard]] Error validate_header(const FrameHeader& header) const noexcept;
  void compact();

  Limits limits_;
  std::vector<std::uint8_t> buffer_;
  std::size_t consumed_ = 0;  // prefix of buffer_ already handed out
  Error error_ = Error::None;
  std::size_t messages_parsed_ = 0;
};

[[nodiscard]] const char* to_string(FrameParser::Error error) noexcept;
[[nodiscard]] const char* to_string(MsgType type) noexcept;
[[nodiscard]] const char* to_string(FrameStatus status) noexcept;
[[nodiscard]] const char* to_string(QosTier tier) noexcept;

}  // namespace swc::serve
