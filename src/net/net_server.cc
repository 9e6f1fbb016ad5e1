#include "net/net_server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/codec.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"

namespace ideval {

namespace {

Status Errno(const char* what) {
  return Status::Internal(std::string(what) + ": " +
                          std::strerror(errno));
}

Status SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Errno("fcntl(O_NONBLOCK)");
  }
  return Status::OK();
}

/// One admitted group's terminal report, in flight from a worker thread's
/// completion callback to the event loop.
struct CompletionItem {
  uint64_t conn_id = 0;
  uint64_t request_id = 0;
  GroupCompletion done;
};

/// The worker-to-loop handoff queue. Owned by a `shared_ptr` that the
/// submit callbacks capture, so a completion firing after `NetServer` is
/// gone lands harmlessly here (`wake_fd` is already -1 by then) instead
/// of touching freed state.
struct CompletionQueue {
  std::mutex mu;
  std::vector<CompletionItem> items;
  int wake_fd = -1;  ///< Self-pipe write end; -1 once the loop is gone.

  void Push(CompletionItem item) {
    std::lock_guard<std::mutex> lock(mu);
    items.push_back(std::move(item));
    if (wake_fd >= 0) {
      const char byte = 1;
      // EAGAIN (pipe full) is fine: a wakeup is already pending.
      [[maybe_unused]] const ssize_t n = write(wake_fd, &byte, 1);
    }
  }
};

/// Per-session routing state: which connection owns the session and how
/// many admitted groups have not had their completion delivered yet.
struct NetSession {
  uint64_t conn_id = 0;
  int64_t pending = 0;
  bool drain_requested = false;
  uint64_t drain_request_id = 0;
};

struct Conn {
  int fd = -1;
  uint64_t id = 0;
  std::vector<uint8_t> rbuf;
  /// Write queue: [wpos, wbuf.size()) is buffered-but-unsent. Both
  /// buffers keep their high-water capacity across frames, so the
  /// steady-state encode/flush path does not allocate.
  std::vector<uint8_t> wbuf;
  size_t wpos = 0;
  std::vector<uint64_t> sessions;  ///< Sessions opened on this conn.
  bool dead = false;

  size_t QueuedBytes() const { return wbuf.size() - wpos; }
};

}  // namespace

struct NetServer::Impl {
  QueryServer* server = nullptr;
  NetServerOptions options;
  TraceBuffer* trace = nullptr;

  int listen_fd = -1;
  int wake_read_fd = -1;
  int wake_write_fd = -1;
  std::shared_ptr<CompletionQueue> cq;
  std::thread loop;
  std::atomic<bool> running{false};
  bool stopped = false;

  // ----- loop-thread-only state -----
  uint64_t next_conn_id = 1;
  std::unordered_map<uint64_t, Conn> conns;
  std::unordered_map<uint64_t, NetSession> sessions;
  std::vector<uint8_t> scratch;  ///< Reused frame-encode buffer.

  // ----- wire counters (relaxed; read by Stats() from any thread) -----
  std::atomic<int64_t> bytes_sent{0};
  std::atomic<int64_t> bytes_received{0};
  std::atomic<int64_t> frames_sent{0};
  std::atomic<int64_t> frames_received{0};
  std::atomic<int64_t> connections_accepted{0};
  std::atomic<int64_t> active_connections{0};
  std::atomic<int64_t> write_queue_shed{0};
  std::atomic<int64_t> protocol_errors{0};

  // Registry-backed mirrors (null when the server has no registry).
  Counter* m_bytes_sent = nullptr;
  Counter* m_bytes_received = nullptr;
  Counter* m_frames_sent = nullptr;
  Counter* m_frames_received = nullptr;
  Counter* m_connections = nullptr;
  Counter* m_shed = nullptr;
  Counter* m_proto_errors = nullptr;
  Gauge* m_active = nullptr;

  void RegisterMetrics(MetricsRegistry* reg);
  void Loop();
  void AcceptNew();
  void HandleReadable(Conn* c);
  void ParseFrames(Conn* c);
  void HandleFrame(Conn* c, const uint8_t* payload, const FrameHeader& h);
  void DrainCompletions();
  void DrainWakePipe();
  void ReapDead();
  void CheckDrain(uint64_t session_id);
  void FlushWrites(Conn* c);
  Conn* FindConn(uint64_t conn_id);

  /// Appends the scratch-encoded frame `[frame_start, scratch.end())` to
  /// the connection's write queue unconditionally (control frames are
  /// never shed) and tries an opportunistic flush.
  void CommitFrame(Conn* c, size_t frame_start);
  void SendError(Conn* c, uint64_t session_id, uint64_t request_id,
                 WireErrorCode code, std::string_view message);
};

void NetServer::Impl::RegisterMetrics(MetricsRegistry* reg) {
  m_bytes_sent = reg->RegisterCounter("ideval_net_bytes_sent_total",
                                      "Bytes written to client sockets");
  m_bytes_received = reg->RegisterCounter(
      "ideval_net_bytes_received_total", "Bytes read from client sockets");
  m_frames_sent = reg->RegisterCounter("ideval_net_frames_sent_total",
                                       "Response frames enqueued");
  m_frames_received = reg->RegisterCounter(
      "ideval_net_frames_received_total", "Request frames decoded");
  m_connections = reg->RegisterCounter(
      "ideval_net_connections_accepted_total", "Connections accepted");
  m_shed = reg->RegisterCounter(
      "ideval_net_write_queue_shed_total",
      "Completion frames shed by the per-connection write-queue bound");
  m_proto_errors = reg->RegisterCounter(
      "ideval_net_protocol_errors_total",
      "Malformed or unknown frames answered with an error frame");
  m_active = reg->RegisterGauge("ideval_net_active_connections",
                                "Currently open client connections");
}

Conn* NetServer::Impl::FindConn(uint64_t conn_id) {
  auto it = conns.find(conn_id);
  return it == conns.end() ? nullptr : &it->second;
}

void NetServer::Impl::Loop() {
  std::vector<pollfd> pfds;
  std::vector<uint64_t> conn_ids;
  while (running.load(std::memory_order_acquire)) {
    pfds.clear();
    conn_ids.clear();
    pfds.push_back({listen_fd, POLLIN, 0});
    pfds.push_back({wake_read_fd, POLLIN, 0});
    for (auto& [id, c] : conns) {
      short events = POLLIN;
      if (c.QueuedBytes() > 0) events |= POLLOUT;
      pfds.push_back({c.fd, events, 0});
      conn_ids.push_back(id);
    }
    const int rc = poll(pfds.data(), static_cast<nfds_t>(pfds.size()), 250);
    if (!running.load(std::memory_order_acquire)) break;
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;  // poll() itself failed; shut the front-end down.
    }
    if ((pfds[1].revents & POLLIN) != 0) DrainWakePipe();
    if ((pfds[0].revents & POLLIN) != 0) AcceptNew();
    for (size_t i = 2; i < pfds.size(); ++i) {
      Conn* c = FindConn(conn_ids[i - 2]);
      if (c == nullptr) continue;
      if ((pfds[i].revents & (POLLIN | POLLERR | POLLHUP)) != 0) {
        HandleReadable(c);
      }
      if (!c->dead && (pfds[i].revents & POLLOUT) != 0) FlushWrites(c);
    }
    DrainCompletions();
    ReapDead();
  }
  // Shutdown: close every socket and every server session still bound to
  // one, so a stopped front-end never leaks open sessions into the
  // `QueryServer` (the symmetric cleanup `ReapDead` does per connection).
  for (auto& [sid, s] : sessions) (void)server->CloseSession(sid);
  for (auto& [id, c] : conns) close(c.fd);
  conns.clear();
  sessions.clear();
  if (m_active != nullptr) m_active->Set(0.0);
  active_connections.store(0, std::memory_order_relaxed);
}

void NetServer::Impl::AcceptNew() {
  while (true) {
    const int fd = accept(listen_fd, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN / transient: try again next poll round.
    if (!SetNonBlocking(fd).ok()) {
      close(fd);
      continue;
    }
    const int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    Conn c;
    c.fd = fd;
    c.id = next_conn_id++;
    conns.emplace(c.id, std::move(c));
    connections_accepted.fetch_add(1, std::memory_order_relaxed);
    const auto active =
        active_connections.fetch_add(1, std::memory_order_relaxed) + 1;
    if (m_connections != nullptr) m_connections->Increment();
    if (m_active != nullptr) m_active->Set(static_cast<double>(active));
  }
}

void NetServer::Impl::HandleReadable(Conn* c) {
  uint8_t chunk[64 * 1024];
  while (true) {
    const ssize_t n = recv(c->fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      bytes_received.fetch_add(n, std::memory_order_relaxed);
      if (m_bytes_received != nullptr) m_bytes_received->Increment(n);
      c->rbuf.insert(c->rbuf.end(), chunk, chunk + n);
      if (static_cast<size_t>(n) < sizeof(chunk)) break;
      continue;
    }
    if (n == 0) {
      c->dead = true;  // Peer closed; frames already buffered still run.
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    c->dead = true;
    break;
  }
  ParseFrames(c);
}

void NetServer::Impl::ParseFrames(Conn* c) {
  size_t pos = 0;
  while (c->rbuf.size() - pos >= kWireHeaderBytes) {
    FrameHeader h;
    if (!DecodeFrameHeader(c->rbuf.data() + pos, c->rbuf.size() - pos, &h)) {
      // Bad magic/version/length: byte framing is lost, the connection
      // cannot be resynchronized. Error out and drop it.
      protocol_errors.fetch_add(1, std::memory_order_relaxed);
      if (m_proto_errors != nullptr) m_proto_errors->Increment();
      SendError(c, 0, 0, WireErrorCode::kMalformedFrame,
                "bad frame header");
      c->dead = true;
      break;
    }
    if (c->rbuf.size() - pos < kWireHeaderBytes + h.payload_len) break;
    HandleFrame(c, c->rbuf.data() + pos + kWireHeaderBytes, h);
    pos += kWireHeaderBytes + h.payload_len;
    if (c->dead) break;
  }
  if (pos > 0) c->rbuf.erase(c->rbuf.begin(), c->rbuf.begin() + pos);
}

void NetServer::Impl::HandleFrame(Conn* c, const uint8_t* payload,
                                  const FrameHeader& h) {
  frames_received.fetch_add(1, std::memory_order_relaxed);
  if (m_frames_received != nullptr) m_frames_received->Increment();
  const int64_t recv_t0 = trace != nullptr ? trace->NowMicros() : 0;
  switch (h.opcode) {
    case Opcode::kPing: {
      WireWriter w(&scratch);
      const size_t f = w.BeginFrame(Opcode::kPong, 0, h.request_id);
      w.EndFrame(f);
      CommitFrame(c, f);
      return;
    }
    case Opcode::kOpenSession: {
      const uint64_t sid = server->OpenSession();
      sessions[sid] = NetSession{c->id, 0, false, 0};
      c->sessions.push_back(sid);
      WireWriter w(&scratch);
      const size_t f = w.BeginFrame(Opcode::kSessionOpened, sid,
                                    h.request_id);
      w.U64(sid);
      w.EndFrame(f);
      CommitFrame(c, f);
      return;
    }
    case Opcode::kCloseSession: {
      auto it = sessions.find(h.session_id);
      if (it == sessions.end() || it->second.conn_id != c->id) {
        SendError(c, h.session_id, h.request_id,
                  WireErrorCode::kUnknownSession, "session not open here");
        return;
      }
      server->CloseSession(h.session_id);
      sessions.erase(it);
      WireWriter w(&scratch);
      const size_t f = w.BeginFrame(Opcode::kSessionClosed, h.session_id,
                                    h.request_id);
      w.EndFrame(f);
      CommitFrame(c, f);
      return;
    }
    case Opcode::kSubmitGroup: {
      auto it = sessions.find(h.session_id);
      if (it == sessions.end() || it->second.conn_id != c->id) {
        SendError(c, h.session_id, h.request_id,
                  WireErrorCode::kUnknownSession, "session not open here");
        return;
      }
      WireReader r(payload, h.payload_len);
      // Wire v3: the payload leads with the client's trace id, which the
      // server adopts so both sides' spans stitch into one timeline.
      const uint64_t client_trace_id =
          h.version >= kWireVersionTrace ? r.U64() : 0;
      auto queries = DecodeQueryGroup(&r);
      if (!queries.ok() || !r.Done()) {
        // Payload-level corruption: the frame was still self-delimited,
        // so the connection survives.
        protocol_errors.fetch_add(1, std::memory_order_relaxed);
        if (m_proto_errors != nullptr) m_proto_errors->Increment();
        SendError(c, h.session_id, h.request_id,
                  WireErrorCode::kMalformedFrame, "bad submit payload");
        return;
      }
      if (trace != nullptr) {
        TraceContext ctx = MakeTraceContext(trace, h.session_id);
        if (client_trace_id != 0) ctx.trace_id = client_trace_id;
        RecordSpan(ctx, SpanKind::kNetRecv, ctx.root_span_id, 0, recv_t0,
                   trace->NowMicros(),
                   static_cast<uint32_t>(h.opcode),
                   static_cast<int64_t>(kWireHeaderBytes + h.payload_len),
                   static_cast<int64_t>(h.request_id));
      }
      auto queue = cq;
      const uint64_t conn_id = c->id;
      const uint64_t request_id = h.request_id;
      auto outcome = server->Submit(
          h.session_id, std::move(*queries),
          [queue, conn_id, request_id](GroupCompletion&& done) {
            // Runs under the server lock on a worker (or submitter)
            // thread: enqueue and tickle the loop, nothing else.
            queue->Push(CompletionItem{conn_id, request_id,
                                       std::move(done)});
          },
          client_trace_id);
      if (!outcome.ok()) {
        SendError(c, h.session_id, h.request_id,
                  WireErrorCode::kSubmitFailed,
                  outcome.status().message());
        return;
      }
      if (outcome->disposition == SubmitDisposition::kEnqueued ||
          outcome->disposition == SubmitDisposition::kCoalesced) {
        ++it->second.pending;
      }
      SubmitAckPayload ack;
      ack.seq = outcome->seq;
      ack.disposition = outcome->disposition;
      ack.load_state = outcome->load.state;
      ack.load_factor = outcome->load.load_factor;
      WireWriter w(&scratch);
      const size_t f = w.BeginFrame(Opcode::kSubmitAck, h.session_id,
                                    h.request_id);
      EncodeSubmitAck(&w, ack);
      w.EndFrame(f);
      CommitFrame(c, f);
      return;
    }
    case Opcode::kDrain: {
      auto it = sessions.find(h.session_id);
      if (it == sessions.end() || it->second.conn_id != c->id) {
        SendError(c, h.session_id, h.request_id,
                  WireErrorCode::kUnknownSession, "session not open here");
        return;
      }
      it->second.drain_requested = true;
      it->second.drain_request_id = h.request_id;
      CheckDrain(h.session_id);
      return;
    }
    default:
      protocol_errors.fetch_add(1, std::memory_order_relaxed);
      if (m_proto_errors != nullptr) m_proto_errors->Increment();
      SendError(c, h.session_id, h.request_id,
                WireErrorCode::kUnknownOpcode, "unknown opcode");
      return;
  }
}

void NetServer::Impl::DrainWakePipe() {
  uint8_t sink[256];
  while (read(wake_read_fd, sink, sizeof(sink)) > 0) {
  }
}

void NetServer::Impl::DrainCompletions() {
  std::vector<CompletionItem> items;
  {
    std::lock_guard<std::mutex> lock(cq->mu);
    items.swap(cq->items);
  }
  for (CompletionItem& item : items) {
    auto sit = sessions.find(item.done.session_id);
    if (sit != sessions.end()) --sit->second.pending;
    Conn* c = FindConn(item.conn_id);
    if (c == nullptr || c->dead) {
      // Connection went away with groups in flight; the report has
      // nowhere to go.
      if (sit != sessions.end()) CheckDrain(item.done.session_id);
      continue;
    }
    const int64_t send_t0 = trace != nullptr ? trace->NowMicros() : 0;
    CompletionPayload payload;
    payload.seq = item.done.seq;
    payload.terminal = item.done.terminal;
    payload.lcv = item.done.lcv;
    payload.queries_executed = item.done.queries_executed;
    payload.queries_failed = item.done.queries_failed;
    payload.cache_hits = item.done.cache_hits;
    payload.queue_wait_us = item.done.queue_wait.micros();
    payload.service_us = item.done.service.micros();
    payload.latency_us = item.done.latency.micros();
    payload.results = std::move(item.done.results);
    WireWriter w(&scratch);
    const size_t f = w.BeginFrame(Opcode::kGroupComplete,
                                  item.done.session_id, item.request_id);
    EncodeCompletion(&w, payload);
    w.EndFrame(f);
    const size_t frame_bytes = scratch.size() - f;
    if (c->QueuedBytes() + frame_bytes >
        static_cast<size_t>(options.max_write_queue_bytes)) {
      // Slow reader: drop the bulky result frame, keep the connection
      // and its control-plane flowing.
      scratch.resize(f);
      write_queue_shed.fetch_add(1, std::memory_order_relaxed);
      if (m_shed != nullptr) m_shed->Increment();
      SendError(c, item.done.session_id, item.request_id,
                WireErrorCode::kWriteQueueShed,
                "completion shed: write queue full");
    } else {
      CommitFrame(c, f);
      if (trace != nullptr) {
        // The send span joins the completed group's own trace (a child
        // of its root span), not a fresh orphan trace — the completion
        // carries the ids across the worker/loop handoff.
        TraceContext ctx;
        ctx.buffer = trace;
        ctx.session_id = item.done.session_id;
        uint64_t parent = 0;
        if (item.done.trace_id != 0) {
          ctx.trace_id = item.done.trace_id;
          parent = item.done.root_span_id;
        } else {
          ctx.trace_id = trace->NewTraceId();
        }
        RecordSpan(ctx, SpanKind::kNetSend, trace->NewSpanId(), parent,
                   send_t0, trace->NowMicros(),
                   static_cast<uint32_t>(Opcode::kGroupComplete),
                   static_cast<int64_t>(frame_bytes),
                   static_cast<int64_t>(item.request_id));
      }
    }
    CheckDrain(item.done.session_id);
  }
}

void NetServer::Impl::CheckDrain(uint64_t session_id) {
  auto it = sessions.find(session_id);
  if (it == sessions.end()) return;
  NetSession& s = it->second;
  if (!s.drain_requested || s.pending > 0) return;
  s.drain_requested = false;
  Conn* c = FindConn(s.conn_id);
  if (c == nullptr || c->dead) return;
  WireWriter w(&scratch);
  const size_t f = w.BeginFrame(Opcode::kSessionDrained, session_id,
                                s.drain_request_id);
  w.EndFrame(f);
  CommitFrame(c, f);
}

void NetServer::Impl::CommitFrame(Conn* c, size_t frame_start) {
  c->wbuf.insert(c->wbuf.end(), scratch.begin() + frame_start,
                 scratch.end());
  scratch.resize(frame_start);
  frames_sent.fetch_add(1, std::memory_order_relaxed);
  if (m_frames_sent != nullptr) m_frames_sent->Increment();
  FlushWrites(c);
}

void NetServer::Impl::SendError(Conn* c, uint64_t session_id,
                                uint64_t request_id, WireErrorCode code,
                                std::string_view message) {
  WireWriter w(&scratch);
  const size_t f = w.BeginFrame(Opcode::kError, session_id, request_id);
  EncodeError(&w, code, message);
  w.EndFrame(f);
  CommitFrame(c, f);
}

void NetServer::Impl::FlushWrites(Conn* c) {
  while (c->wpos < c->wbuf.size()) {
    const ssize_t n = send(c->fd, c->wbuf.data() + c->wpos,
                           c->wbuf.size() - c->wpos, MSG_NOSIGNAL);
    if (n > 0) {
      c->wpos += static_cast<size_t>(n);
      bytes_sent.fetch_add(n, std::memory_order_relaxed);
      if (m_bytes_sent != nullptr) m_bytes_sent->Increment(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (n < 0 && errno == EINTR) continue;
    c->dead = true;
    return;
  }
  c->wbuf.clear();
  c->wpos = 0;
}

void NetServer::Impl::ReapDead() {
  for (auto it = conns.begin(); it != conns.end();) {
    Conn& c = it->second;
    if (!c.dead) {
      ++it;
      continue;
    }
    for (uint64_t sid : c.sessions) {
      auto sit = sessions.find(sid);
      if (sit != sessions.end() && sit->second.conn_id == c.id) {
        server->CloseSession(sid);
        sessions.erase(sit);
      }
    }
    close(c.fd);
    const auto active =
        active_connections.fetch_sub(1, std::memory_order_relaxed) - 1;
    if (m_active != nullptr) m_active->Set(static_cast<double>(active));
    it = conns.erase(it);
  }
}

NetServer::NetServer() : impl_(new Impl) {}

NetServer::~NetServer() { Stop(); }

Result<std::unique_ptr<NetServer>> NetServer::Start(
    QueryServer* server, NetServerOptions options) {
  if (server == nullptr) {
    return Status::InvalidArgument("NetServer: null QueryServer");
  }
  if (options.port < 0 || options.port > 65535) {
    return Status::InvalidArgument("NetServer: port out of range");
  }
  if (options.max_write_queue_bytes < static_cast<int64_t>(kWireHeaderBytes)) {
    return Status::InvalidArgument(
        "NetServer: max_write_queue_bytes smaller than one frame header");
  }
  std::unique_ptr<NetServer> net(new NetServer);
  Impl* impl = net->impl_.get();
  impl->server = server;
  impl->options = std::move(options);
  impl->trace = server->trace_buffer();

  impl->listen_fd = socket(AF_INET, SOCK_STREAM, 0);
  if (impl->listen_fd < 0) return Errno("socket");
  const int one = 1;
  setsockopt(impl->listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(impl->options.port));
  if (inet_pton(AF_INET, impl->options.bind_address.c_str(),
                &addr.sin_addr) != 1) {
    return Status::InvalidArgument("NetServer: bad bind address " +
                                   impl->options.bind_address);
  }
  if (bind(impl->listen_fd, reinterpret_cast<sockaddr*>(&addr),
           sizeof(addr)) < 0) {
    return Errno("bind");
  }
  if (listen(impl->listen_fd, 128) < 0) return Errno("listen");
  IDEVAL_RETURN_NOT_OK(SetNonBlocking(impl->listen_fd));

  sockaddr_in bound;
  socklen_t bound_len = sizeof(bound);
  if (getsockname(impl->listen_fd, reinterpret_cast<sockaddr*>(&bound),
                  &bound_len) < 0) {
    return Errno("getsockname");
  }
  net->port_ = ntohs(bound.sin_port);

  int pipe_fds[2];
  if (pipe(pipe_fds) < 0) return Errno("pipe");
  impl->wake_read_fd = pipe_fds[0];
  impl->wake_write_fd = pipe_fds[1];
  IDEVAL_RETURN_NOT_OK(SetNonBlocking(impl->wake_read_fd));
  IDEVAL_RETURN_NOT_OK(SetNonBlocking(impl->wake_write_fd));

  impl->cq = std::make_shared<CompletionQueue>();
  impl->cq->wake_fd = impl->wake_write_fd;

  if (server->metrics_registry() != nullptr) {
    impl->RegisterMetrics(server->metrics_registry());
  }

  impl->running.store(true, std::memory_order_release);
  impl->loop = std::thread([impl] { impl->Loop(); });
  return net;
}

void NetServer::Stop() {
  Impl* impl = impl_.get();
  if (impl == nullptr || impl->stopped) return;
  impl->stopped = true;
  if (impl->loop.joinable()) {
    impl->running.store(false, std::memory_order_release);
    const char byte = 1;
    [[maybe_unused]] const ssize_t n =
        write(impl->wake_write_fd, &byte, 1);
    impl->loop.join();
  }
  if (impl->cq != nullptr) {
    // Late completion callbacks from still-running worker groups must not
    // write into a closed pipe; park the queue first.
    std::lock_guard<std::mutex> lock(impl->cq->mu);
    impl->cq->wake_fd = -1;
  }
  if (impl->wake_read_fd >= 0) close(impl->wake_read_fd);
  if (impl->wake_write_fd >= 0) close(impl->wake_write_fd);
  if (impl->listen_fd >= 0) close(impl->listen_fd);
  impl->wake_read_fd = impl->wake_write_fd = impl->listen_fd = -1;
}

NetStatsSnapshot NetServer::Stats() const {
  const Impl* impl = impl_.get();
  NetStatsSnapshot s;
  s.bytes_sent = impl->bytes_sent.load(std::memory_order_relaxed);
  s.bytes_received = impl->bytes_received.load(std::memory_order_relaxed);
  s.frames_sent = impl->frames_sent.load(std::memory_order_relaxed);
  s.frames_received =
      impl->frames_received.load(std::memory_order_relaxed);
  s.connections_accepted =
      impl->connections_accepted.load(std::memory_order_relaxed);
  s.active_connections =
      impl->active_connections.load(std::memory_order_relaxed);
  s.write_queue_shed =
      impl->write_queue_shed.load(std::memory_order_relaxed);
  s.protocol_errors = impl->protocol_errors.load(std::memory_order_relaxed);
  return s;
}

void NetServer::FillSnapshot(ServerStatsSnapshot* snap) const {
  snap->net_enabled = true;
  snap->net = Stats();
}

}  // namespace ideval
