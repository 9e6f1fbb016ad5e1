#include "net/net_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace ideval {

namespace {

Status Errno(const char* what) {
  return Status::Internal(std::string(what) + ": " + std::strerror(errno));
}

}  // namespace

Result<std::unique_ptr<NetClient>> NetClient::Connect(
    const std::string& host, int port) {
  if (port < 1 || port > 65535) {
    return Status::InvalidArgument("NetClient: port out of range");
  }
  std::unique_ptr<NetClient> client(new NetClient);
  client->fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (client->fd_ < 0) return Errno("socket");
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("NetClient: bad host " + host);
  }
  if (connect(client->fd_, reinterpret_cast<sockaddr*>(&addr),
              sizeof(addr)) < 0) {
    return Errno("connect");
  }
  const int one = 1;
  setsockopt(client->fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return client;
}

NetClient::~NetClient() {
  if (fd_ >= 0) close(fd_);
}

Status NetClient::SendAll() {
  size_t pos = 0;
  while (pos < wbuf_.size()) {
    const ssize_t n =
        send(fd_, wbuf_.data() + pos, wbuf_.size() - pos, MSG_NOSIGNAL);
    if (n > 0) {
      pos += static_cast<size_t>(n);
      stats_.bytes_sent += n;
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return Errno("send");
  }
  ++stats_.frames_sent;
  wbuf_.clear();
  return Status::OK();
}

Status NetClient::ReadFrame() {
  // Blocks until header + payload are buffered, then decodes in place.
  auto need = [this](size_t bytes) -> Status {
    while (rbuf_.size() - rpos_ < bytes) {
      uint8_t chunk[64 * 1024];
      const ssize_t n = recv(fd_, chunk, sizeof(chunk), 0);
      if (n > 0) {
        stats_.bytes_received += n;
        rbuf_.insert(rbuf_.end(), chunk, chunk + n);
        continue;
      }
      if (n == 0) return Status::Internal("connection closed by server");
      if (errno == EINTR) continue;
      return Errno("recv");
    }
    return Status::OK();
  };
  // Discard the consumed prefix once it gets large.
  if (rpos_ > (1u << 20)) {
    rbuf_.erase(rbuf_.begin(), rbuf_.begin() + rpos_);
    rpos_ = 0;
  }
  IDEVAL_RETURN_NOT_OK(need(kWireHeaderBytes));
  if (!DecodeFrameHeader(rbuf_.data() + rpos_, rbuf_.size() - rpos_,
                         &last_header_)) {
    return Status::Internal("malformed frame header from server");
  }
  IDEVAL_RETURN_NOT_OK(need(kWireHeaderBytes + last_header_.payload_len));
  payload_ = rbuf_.data() + rpos_ + kWireHeaderBytes;
  rpos_ += kWireHeaderBytes + last_header_.payload_len;
  ++stats_.frames_received;
  return Status::OK();
}

void NetClient::TallyCompletion(const FrameHeader& h) {
  const int64_t recv_t0 = trace_ != nullptr ? trace_->NowMicros() : 0;
  WireReader r(payload_, h.payload_len);
  auto done = DecodeCompletion(&r);
  if (!done.ok() || !r.Done()) return;  // Corrupt completion: skip.
  if (trace_ != nullptr) {
    auto it = pending_traces_.find(h.request_id);
    if (it != pending_traces_.end()) {
      TraceContext ctx;
      ctx.buffer = trace_;
      ctx.trace_id = it->second.first;
      ctx.session_id = it->second.second;
      RecordSpan(ctx, SpanKind::kNetClientRecv, trace_->NewSpanId(), 0,
                 recv_t0, trace_->NowMicros(),
                 static_cast<uint32_t>(Opcode::kGroupComplete),
                 static_cast<int64_t>(kWireHeaderBytes + h.payload_len),
                 static_cast<int64_t>(h.request_id));
      pending_traces_.erase(it);
    }
  }
  if (done->terminal == GroupTerminal::kExecuted) {
    ++stats_.completions_executed;
    stats_.latency_ms.push_back(static_cast<double>(done->latency_us) /
                                1000.0);
  } else {
    ++stats_.completions_shed;
  }
  if (done->lcv) ++stats_.lcv_violations;
  stats_.queries_executed += done->queries_executed;
  stats_.queries_failed += done->queries_failed;
  stats_.cache_hits += done->cache_hits;
  if (on_complete_) on_complete_(*done);
}

Status NetClient::Call(uint64_t request_id, Opcode expect) {
  IDEVAL_RETURN_NOT_OK(SendAll());
  while (true) {
    IDEVAL_RETURN_NOT_OK(ReadFrame());
    const FrameHeader& h = last_header_;
    if (h.opcode == Opcode::kGroupComplete) {
      TallyCompletion(h);
      continue;
    }
    if (h.opcode == Opcode::kError) {
      WireReader r(payload_, h.payload_len);
      auto err = DecodeError(&r);
      const WireErrorCode code =
          err.ok() ? err->code : WireErrorCode::kMalformedFrame;
      if (code == WireErrorCode::kWriteQueueShed) {
        // A past submit's completion was shed; its error frame is the
        // completion substitute, not this call's response.
        ++stats_.completions_dropped;
        pending_traces_.erase(h.request_id);
        continue;
      }
      if (h.request_id == request_id) {
        return Status::Internal(
            std::string("server error: ") +
            WireErrorCodeToString(code) +
            (err.ok() && !err->message.empty() ? ": " + err->message : ""));
      }
      continue;  // Error for an unrelated request; nothing to match.
    }
    if (h.request_id != request_id) continue;
    if (h.opcode != expect) {
      return Status::Internal(
          std::string("unexpected response opcode: ") +
          OpcodeToString(h.opcode));
    }
    return Status::OK();
  }
}

Status NetClient::Ping() {
  const uint64_t rid = next_request_id_++;
  WireWriter w(&wbuf_);
  const size_t f = w.BeginFrame(Opcode::kPing, 0, rid);
  w.EndFrame(f);
  return Call(rid, Opcode::kPong);
}

Result<uint64_t> NetClient::OpenSession() {
  const uint64_t rid = next_request_id_++;
  WireWriter w(&wbuf_);
  const size_t f = w.BeginFrame(Opcode::kOpenSession, 0, rid);
  w.EndFrame(f);
  IDEVAL_RETURN_NOT_OK(Call(rid, Opcode::kSessionOpened));
  WireReader r(payload_, last_header_.payload_len);
  const uint64_t session_id = r.U64();
  if (!r.Done()) return Status::Internal("malformed session-opened payload");
  return session_id;
}

Status NetClient::CloseSession(uint64_t session_id) {
  const uint64_t rid = next_request_id_++;
  WireWriter w(&wbuf_);
  const size_t f = w.BeginFrame(Opcode::kCloseSession, session_id, rid);
  w.EndFrame(f);
  return Call(rid, Opcode::kSessionClosed);
}

Result<SubmitAckPayload> NetClient::Submit(
    uint64_t session_id, const std::vector<Query>& queries) {
  const uint64_t rid = next_request_id_++;
  // With a trace buffer attached, the submit goes out as wire v3: the
  // payload leads with a client-chosen trace id the server adopts, so
  // both sides' spans share one trace.
  const uint64_t trace_id = trace_ != nullptr ? trace_->NewTraceId() : 0;
  WireWriter w(&wbuf_);
  const size_t f =
      w.BeginFrame(Opcode::kSubmitGroup, session_id, rid,
                   trace_id != 0 ? kWireVersionTrace : kWireVersion);
  if (trace_id != 0) w.U64(trace_id);
  EncodeQueryGroup(&w, queries);
  w.EndFrame(f);
  const int64_t frame_bytes = static_cast<int64_t>(wbuf_.size() - f);
  const int64_t send_t0 = trace_ != nullptr ? trace_->NowMicros() : 0;
  if (trace_id != 0) pending_traces_[rid] = {trace_id, session_id};
  const Status call_status = Call(rid, Opcode::kSubmitAck);
  if (!call_status.ok()) {
    pending_traces_.erase(rid);  // Failed submit: no completion is due.
    return call_status;
  }
  WireReader r(payload_, last_header_.payload_len);
  IDEVAL_ASSIGN_OR_RETURN(SubmitAckPayload ack, DecodeSubmitAck(&r));
  if (!r.Done()) return Status::Internal("malformed submit-ack payload");
  if (trace_id != 0) {
    // The client-side view of the interaction: submit frame sent ->
    // door ack received (the socket round trip as the user feels it).
    TraceContext ctx;
    ctx.buffer = trace_;
    ctx.trace_id = trace_id;
    ctx.session_id = session_id;
    RecordSpan(ctx, SpanKind::kNetClientSend, trace_->NewSpanId(), 0,
               send_t0, trace_->NowMicros(),
               static_cast<uint32_t>(Opcode::kSubmitGroup), frame_bytes,
               static_cast<int64_t>(rid));
    if (ack.disposition == SubmitDisposition::kThrottled ||
        ack.disposition == SubmitDisposition::kRejected) {
      // Door verdict: no completion will ever arrive for this request.
      pending_traces_.erase(rid);
    }
  }
  return ack;
}

Status NetClient::Drain(uint64_t session_id) {
  const uint64_t rid = next_request_id_++;
  WireWriter w(&wbuf_);
  const size_t f = w.BeginFrame(Opcode::kDrain, session_id, rid);
  w.EndFrame(f);
  return Call(rid, Opcode::kSessionDrained);
}

}  // namespace ideval
