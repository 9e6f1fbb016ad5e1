#ifndef IDEVAL_NET_WIRE_H_
#define IDEVAL_NET_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace ideval {

/// Binary framing for the socket front-end (`docs/net.md` is the
/// normative spec). Every message is one frame: a fixed 24-byte
/// little-endian header followed by `payload_len` bytes of opcode-specific
/// payload. Fields are packed at fixed offsets — the header is not a
/// struct cast, so the format is independent of host padding/endianness
/// (values are serialized explicitly as little-endian bytes).
///
///   offset | size | field
///   -------|------|---------------------------------------------
///        0 |    2 | magic (0xD11D)
///        2 |    1 | version (1 or 3)
///        3 |    1 | opcode
///        4 |    8 | session_id (0 when not session-scoped)
///       12 |    8 | request_id (echoed in the matching response)
///       20 |    4 | payload_len
///
/// Version 3 differs from version 1 only in the `kSubmitGroup` payload,
/// which prefixes the encoded query group with a trace id (u64) — the
/// client-chosen trace context the server adopts so client-side and
/// server-side spans of one interaction stitch into a single timeline
/// (docs/observability.md). A client emits a v3 frame only when it has a
/// trace buffer attached; an untraced client stays v1 byte-for-byte.
///
/// Version 2 is retired (it carried approximate completions, which the
/// server no longer produces): a v2 header is malformed, like any other
/// unknown version (docs/net.md).
inline constexpr uint16_t kWireMagic = 0xD11D;
inline constexpr uint8_t kWireVersion = 1;
inline constexpr uint8_t kWireVersionTrace = 3;  ///< Highest understood.
inline constexpr size_t kWireHeaderBytes = 24;
/// Upper bound on a single frame's payload; a larger advertised length is
/// a protocol error, never an allocation.
inline constexpr uint32_t kMaxPayloadBytes = 8u << 20;

/// Frame opcodes. Requests are < 16, responses >= 16; every request gets
/// exactly one direct response (same `request_id`), and `kSubmitGroup`
/// additionally gets one deferred `kGroupComplete` per *admitted* group.
enum class Opcode : uint8_t {
  // Client -> server.
  kPing = 1,          ///< Liveness probe; empty payload.
  kOpenSession = 2,   ///< Open a server session bound to this connection.
  kCloseSession = 3,  ///< Close a session opened on this connection.
  kSubmitGroup = 4,   ///< One query group (payload: encoded queries).
  kDrain = 5,         ///< Flush: respond once the session has no pending
                      ///< groups (all completions delivered or shed).
  // Server -> client.
  kPong = 16,
  kSessionOpened = 17,   ///< Payload: the new session id (u64).
  kSessionClosed = 18,
  kSubmitAck = 19,       ///< Door verdict (payload: SubmitAckPayload).
  kGroupComplete = 20,   ///< Terminal state + results (CompletionPayload).
  kSessionDrained = 21,
  kError = 22,           ///< Payload: error code (u16) + message.
};

const char* OpcodeToString(Opcode op);

/// Error codes carried by `kError` frames.
enum class WireErrorCode : uint16_t {
  kNone = 0,
  kMalformedFrame = 1,   ///< Bad magic/version/length or payload decode.
  kUnknownOpcode = 2,
  kUnknownSession = 3,   ///< Session not open, or bound to another conn.
  kSubmitFailed = 4,     ///< `QueryServer::Submit` returned an error.
  kWriteQueueShed = 5,   ///< Completion dropped: write queue was full.
  kServerShutdown = 6,
};

const char* WireErrorCodeToString(WireErrorCode code);

/// Decoded view of a frame header.
struct FrameHeader {
  uint8_t version = 0;
  Opcode opcode = Opcode::kPing;
  uint64_t session_id = 0;
  uint64_t request_id = 0;
  uint32_t payload_len = 0;
};

/// Appends little-endian primitives and frames into a caller-owned byte
/// buffer. Connections reuse one buffer per direction, so steady-state
/// encoding never allocates (the vector keeps its high-water capacity).
class WireWriter {
 public:
  /// Appends to `out` (not cleared — callers batch multiple frames).
  explicit WireWriter(std::vector<uint8_t>* out) : out_(out) {}

  void U8(uint8_t v) { out_->push_back(v); }
  void U16(uint16_t v);
  void U32(uint32_t v);
  void U64(uint64_t v);
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void F64(double v);
  /// Length-prefixed (u32) bytes.
  void Str(std::string_view s);

  /// Writes a frame header with a placeholder payload length and returns
  /// the frame's start offset in the buffer (pass it to `EndFrame`).
  /// `version` must be a version this library understands (1 or 3).
  size_t BeginFrame(Opcode op, uint64_t session_id, uint64_t request_id,
                    uint8_t version = kWireVersion);

  /// Patches the header's `payload_len` to cover everything appended
  /// since `BeginFrame`.
  void EndFrame(size_t frame_start);

 private:
  std::vector<uint8_t>* out_;
};

/// Bounds-checked little-endian reader over one frame's payload. Any
/// out-of-range read flips `ok()` to false and returns zero values; a
/// decoder checks `ok()` once at the end instead of after every field, and
/// a truncated or corrupted frame can never over-read.
class WireReader {
 public:
  WireReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  uint8_t U8();
  uint16_t U16();
  uint32_t U32();
  uint64_t U64();
  int64_t I64() { return static_cast<int64_t>(U64()); }
  double F64();
  std::string Str();

  /// Sanity bound for count-prefixed repetition: true iff `count` items
  /// of at least `min_bytes_each` could still fit in the remaining
  /// payload. Guards `resize(count)` against hostile length prefixes.
  bool CanContain(uint64_t count, size_t min_bytes_each);

  bool ok() const { return ok_; }
  size_t remaining() const { return size_ - pos_; }
  /// True iff decoding consumed the payload exactly and never over-read.
  bool Done() const { return ok_ && pos_ == size_; }

 private:
  const uint8_t* Take(size_t n);

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
  bool ok_ = true;
};

/// Parses and validates the fixed header from `buf` (which must hold at
/// least `kWireHeaderBytes`). Returns false on bad magic, unsupported
/// version, or `payload_len > kMaxPayloadBytes`.
bool DecodeFrameHeader(const uint8_t* buf, size_t size, FrameHeader* out);

}  // namespace ideval

#endif  // IDEVAL_NET_WIRE_H_
