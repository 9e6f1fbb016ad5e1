#include "net/wire.h"

#include <cstring>

namespace ideval {

const char* OpcodeToString(Opcode op) {
  switch (op) {
    case Opcode::kPing:
      return "ping";
    case Opcode::kOpenSession:
      return "open_session";
    case Opcode::kCloseSession:
      return "close_session";
    case Opcode::kSubmitGroup:
      return "submit_group";
    case Opcode::kDrain:
      return "drain";
    case Opcode::kPong:
      return "pong";
    case Opcode::kSessionOpened:
      return "session_opened";
    case Opcode::kSessionClosed:
      return "session_closed";
    case Opcode::kSubmitAck:
      return "submit_ack";
    case Opcode::kGroupComplete:
      return "group_complete";
    case Opcode::kSessionDrained:
      return "session_drained";
    case Opcode::kError:
      return "error";
  }
  return "unknown";
}

const char* WireErrorCodeToString(WireErrorCode code) {
  switch (code) {
    case WireErrorCode::kNone:
      return "none";
    case WireErrorCode::kMalformedFrame:
      return "malformed_frame";
    case WireErrorCode::kUnknownOpcode:
      return "unknown_opcode";
    case WireErrorCode::kUnknownSession:
      return "unknown_session";
    case WireErrorCode::kSubmitFailed:
      return "submit_failed";
    case WireErrorCode::kWriteQueueShed:
      return "write_queue_shed";
    case WireErrorCode::kServerShutdown:
      return "server_shutdown";
  }
  return "unknown";
}

void WireWriter::U16(uint16_t v) {
  out_->push_back(static_cast<uint8_t>(v));
  out_->push_back(static_cast<uint8_t>(v >> 8));
}

void WireWriter::U32(uint32_t v) {
  out_->push_back(static_cast<uint8_t>(v));
  out_->push_back(static_cast<uint8_t>(v >> 8));
  out_->push_back(static_cast<uint8_t>(v >> 16));
  out_->push_back(static_cast<uint8_t>(v >> 24));
}

void WireWriter::U64(uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out_->push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

void WireWriter::F64(double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  U64(bits);
}

void WireWriter::Str(std::string_view s) {
  U32(static_cast<uint32_t>(s.size()));
  out_->insert(out_->end(), s.begin(), s.end());
}

size_t WireWriter::BeginFrame(Opcode op, uint64_t session_id,
                              uint64_t request_id, uint8_t version) {
  const size_t start = out_->size();
  U16(kWireMagic);
  U8(version);
  U8(static_cast<uint8_t>(op));
  U64(session_id);
  U64(request_id);
  U32(0);  // payload_len, patched by EndFrame.
  return start;
}

void WireWriter::EndFrame(size_t frame_start) {
  const uint32_t payload_len =
      static_cast<uint32_t>(out_->size() - frame_start - kWireHeaderBytes);
  uint8_t* p = out_->data() + frame_start + 20;
  p[0] = static_cast<uint8_t>(payload_len);
  p[1] = static_cast<uint8_t>(payload_len >> 8);
  p[2] = static_cast<uint8_t>(payload_len >> 16);
  p[3] = static_cast<uint8_t>(payload_len >> 24);
}

const uint8_t* WireReader::Take(size_t n) {
  if (!ok_ || n > size_ - pos_) {
    ok_ = false;
    return nullptr;
  }
  const uint8_t* p = data_ + pos_;
  pos_ += n;
  return p;
}

uint8_t WireReader::U8() {
  const uint8_t* p = Take(1);
  return p != nullptr ? p[0] : 0;
}

uint16_t WireReader::U16() {
  const uint8_t* p = Take(2);
  if (p == nullptr) return 0;
  return static_cast<uint16_t>(p[0]) | static_cast<uint16_t>(p[1]) << 8;
}

uint32_t WireReader::U32() {
  const uint8_t* p = Take(4);
  if (p == nullptr) return 0;
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

uint64_t WireReader::U64() {
  const uint8_t* p = Take(8);
  if (p == nullptr) return 0;
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(p[i]) << (8 * i);
  return v;
}

double WireReader::F64() {
  const uint64_t bits = U64();
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string WireReader::Str() {
  const uint32_t len = U32();
  const uint8_t* p = Take(len);
  if (p == nullptr) return std::string();
  return std::string(reinterpret_cast<const char*>(p), len);
}

bool WireReader::CanContain(uint64_t count, size_t min_bytes_each) {
  if (!ok_) return false;
  const size_t rem = size_ - pos_;
  if (min_bytes_each == 0) min_bytes_each = 1;
  if (count > rem / min_bytes_each) {
    ok_ = false;
    return false;
  }
  return true;
}

bool DecodeFrameHeader(const uint8_t* buf, size_t size, FrameHeader* out) {
  if (size < kWireHeaderBytes) return false;
  WireReader r(buf, kWireHeaderBytes);
  const uint16_t magic = r.U16();
  out->version = r.U8();
  out->opcode = static_cast<Opcode>(r.U8());
  out->session_id = r.U64();
  out->request_id = r.U64();
  out->payload_len = r.U32();
  if (magic != kWireMagic) return false;
  if (out->version != kWireVersion && out->version != kWireVersionTrace) {
    return false;
  }
  if (out->payload_len > kMaxPayloadBytes) return false;
  return true;
}

}  // namespace ideval
