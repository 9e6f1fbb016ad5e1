#include "load.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <string>
#include <utility>

#include "net/codec.h"

namespace idebench {

using namespace ideval;

namespace {

constexpr int64_t kDrainTimeoutNs = 30'000'000'000;

Status Errno(const char* what) {
  return Status::Internal(std::string(what) + ": " + std::strerror(errno));
}

timespec ToTimespec(int64_t ns) {
  return timespec{static_cast<time_t>(ns / 1'000'000'000),
                  static_cast<long>(ns % 1'000'000'000)};
}

/// The generator spins through the last stretch before a send instead of
/// sleeping: a timer wake-up in a VM costs tens of microseconds, of very
/// variable length, which would otherwise be added to every latency. The
/// generator has a CPU of its own, so spinning takes nothing from the
/// server.
constexpr int64_t kSpinNs = 100'000;

void WaitUntil(int64_t t_ns) {
  const timespec ts = ToTimespec(t_ns - kSpinNs);
  while (t_ns - NowNs() > kSpinNs &&
         clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
             EINTR) {
  }
  while (NowNs() < t_ns) {
  }
}

int g_generator_cpu = -1;  // Set once by ReserveGeneratorCpu.

/// Puts the calling thread in generator mode for the duration of a
/// replay: on the reserved CPU, and with a 1 ns timer slack so that a
/// sleep ends when asked rather than up to 50 us later, past the spin.
class GeneratorThread {
 public:
  GeneratorThread() : slack_(prctl(PR_GET_TIMERSLACK, 0, 0, 0, 0)) {
    prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0);
    pinned_ = g_generator_cpu >= 0 &&
              sched_getaffinity(0, sizeof(saved_), &saved_) == 0;
    if (pinned_) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(g_generator_cpu, &one);
      sched_setaffinity(0, sizeof(one), &one);
    }
  }
  ~GeneratorThread() {
    if (pinned_) sched_setaffinity(0, sizeof(saved_), &saved_);
    if (slack_ > 0) prctl(PR_SET_TIMERSLACK, slack_, 0, 0, 0);
  }
  GeneratorThread(const GeneratorThread&) = delete;
  GeneratorThread& operator=(const GeneratorThread&) = delete;

 private:
  int slack_;
  bool pinned_ = false;
  cpu_set_t saved_{};
};

}  // namespace

void ReserveGeneratorCpu() {
  cpu_set_t cpus;
  if (sched_getaffinity(0, sizeof(cpus), &cpus) != 0 || CPU_COUNT(&cpus) < 2) {
    return;
  }
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &cpus)) {
      g_generator_cpu = c;
      CPU_CLR(c, &cpus);
      sched_setaffinity(0, sizeof(cpus), &cpus);
      return;
    }
  }
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Status ReplayInProcess(QueryServer* server,
                       const std::vector<uint64_t>& sessions,
                       const std::vector<Arrival>& arrivals,
                       const ReplayOptions& options,
                       std::vector<Slot>* slots) {
  GeneratorThread generator;
  slots->assign(arrivals.size(), Slot{});
  bool window_started = !options.on_window_start;
  std::vector<Query> queries;
  for (size_t i = 0; i < arrivals.size(); ++i) {
    const Arrival& a = arrivals[i];
    Slot* slot = &(*slots)[i];
    slot->intended_ns = options.origin_ns + a.at_ns;
    // Copy the group before sleeping so the copy is not charged to the
    // interaction.
    queries = *a.queries;
    if (!window_started && a.at_ns >= options.window_start_ns) {
      window_started = true;
      options.on_window_start();
    }
    WaitUntil(slot->intended_ns);
    slot->sent_ns = NowNs();
    auto out = server->Submit(
        sessions[a.user], std::move(queries),
        [slot](GroupCompletion&& done) {
          slot->done_ns = NowNs();
          slot->terminal = done.terminal;
          slot->queries_failed = static_cast<int32_t>(done.queries_failed);
          slot->latency_us = done.latency.micros();
          slot->queue_us = done.queue_wait.micros();
          slot->service_us = done.service.micros();
          slot->results = std::move(done.results);
        },
        /*adopted_trace_id=*/0, options.capture_results);
    if (options.traced) slot->sent_end_ns = NowNs();
    if (!out.ok()) {
      slot->submit_failed = true;
      continue;
    }
    slot->disposition = out->disposition;
  }
  // Every admitted group's callback runs before the server counts it as
  // finished, so after the drain each such slot holds its completion.
  server->Drain();
  for (const Slot& s : *slots) {
    if (!s.submit_failed && !s.Refused() && s.done_ns == 0) {
      return Status::Internal("admitted group without a completion");
    }
  }
  return Status::OK();
}

struct WireClient::Conn {
  int fd = -1;
  std::vector<uint8_t> in;
  size_t in_pos = 0;
  std::vector<uint8_t> out;
  size_t out_pos = 0;

  ~Conn() {
    if (fd >= 0) close(fd);
  }
};

WireClient::WireClient() = default;
WireClient::~WireClient() = default;

Result<std::unique_ptr<WireClient>> WireClient::Connect(int port) {
  std::unique_ptr<WireClient> client(new WireClient);
  for (int k = 0; k < kConnections; ++k) {
    auto c = std::make_unique<Conn>();
    c->fd = socket(AF_INET, SOCK_STREAM, 0);
    if (c->fd < 0) return Errno("socket");
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (connect(c->fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
      return Errno("connect");
    }
    const int one = 1;
    setsockopt(c->fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (fcntl(c->fd, F_SETFL, fcntl(c->fd, F_GETFL, 0) | O_NONBLOCK) < 0) {
      return Errno("fcntl");
    }
    client->conns_.push_back(std::move(c));
  }
  return client;
}

Status WireClient::Flush(Conn* c) {
  while (c->out_pos < c->out.size()) {
    const ssize_t n = send(c->fd, c->out.data() + c->out_pos,
                           c->out.size() - c->out_pos, MSG_NOSIGNAL);
    if (n > 0) {
      c->out_pos += static_cast<size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return Status::OK();  // The rest goes out when poll says POLLOUT.
    } else {
      return Errno("send");
    }
  }
  c->out.clear();
  c->out_pos = 0;
  return Status::OK();
}

Status WireClient::Pump(int64_t timeout_ns, const FrameFn& on_frame) {
  pollfd fds[kConnections];
  for (int k = 0; k < kConnections; ++k) {
    const Conn& c = *conns_[k];
    fds[k].fd = c.fd;
    fds[k].events =
        static_cast<short>(POLLIN | (c.out_pos < c.out.size() ? POLLOUT : 0));
    fds[k].revents = 0;
  }
  const timespec ts = ToTimespec(std::max<int64_t>(0, timeout_ns));
  if (ppoll(fds, kConnections, &ts, nullptr) < 0) {
    return errno == EINTR ? Status::OK() : Errno("ppoll");
  }
  for (int k = 0; k < kConnections; ++k) {
    Conn* c = conns_[k].get();
    if (fds[k].revents & POLLOUT) IDEVAL_RETURN_NOT_OK(Flush(c));
    if (!(fds[k].revents & (POLLIN | POLLHUP | POLLERR))) continue;
    for (;;) {
      uint8_t chunk[64 * 1024];
      const ssize_t n = recv(c->fd, chunk, sizeof(chunk), 0);
      if (n > 0) {
        c->in.insert(c->in.end(), chunk, chunk + n);
        continue;
      }
      if (n == 0) return Status::Internal("server closed the connection");
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      return Errno("recv");
    }
    const int64_t t = NowNs();  // The moment these frames were observed.
    while (c->in.size() - c->in_pos >= kWireHeaderBytes) {
      FrameHeader h;
      if (!DecodeFrameHeader(c->in.data() + c->in_pos,
                             c->in.size() - c->in_pos, &h)) {
        return Status::Internal("malformed frame header from server");
      }
      if (c->in.size() - c->in_pos < kWireHeaderBytes + h.payload_len) break;
      IDEVAL_RETURN_NOT_OK(
          on_frame(k, h, c->in.data() + c->in_pos + kWireHeaderBytes, t));
      c->in_pos += kWireHeaderBytes + h.payload_len;
    }
    if (c->in_pos == c->in.size()) {
      c->in.clear();
      c->in_pos = 0;
    }
  }
  return Status::OK();
}

Result<std::vector<uint64_t>> WireClient::OpenSessions(int n) {
  std::vector<uint64_t> ids(n, 0);
  const uint64_t base = next_request_id_;
  next_request_id_ += n;
  for (int u = 0; u < n; ++u) {
    Conn* c = conns_[u % kConnections].get();
    WireWriter w(&c->out);
    w.EndFrame(w.BeginFrame(Opcode::kOpenSession, 0, base + u));
  }
  for (auto& c : conns_) IDEVAL_RETURN_NOT_OK(Flush(c.get()));
  int remaining = n;
  const int64_t deadline = NowNs() + kDrainTimeoutNs;
  auto on_frame = [&](int, const FrameHeader& h, const uint8_t* payload,
                      int64_t) -> Status {
    if (h.opcode != Opcode::kSessionOpened || h.request_id < base ||
        h.request_id >= base + n) {
      return Status::Internal("unexpected frame while opening sessions");
    }
    WireReader r(payload, h.payload_len);
    ids[h.request_id - base] = r.U64();
    if (!r.Done()) return Status::Internal("malformed session-opened frame");
    --remaining;
    return Status::OK();
  };
  while (remaining > 0) {
    if (NowNs() > deadline) return Status::Internal("session open timed out");
    IDEVAL_RETURN_NOT_OK(Pump(deadline - NowNs(), on_frame));
  }
  return ids;
}

Status WireClient::Replay(const std::vector<uint64_t>& sessions,
                          const std::vector<Arrival>& arrivals,
                          const ReplayOptions& options,
                          std::vector<Slot>* slots) {
  GeneratorThread generator;
  const size_t n = arrivals.size();
  slots->assign(n, Slot{});
  const uint64_t base = next_request_id_;
  next_request_id_ += n;
  int64_t outstanding = 0;
  const bool traced = options.traced;

  auto on_frame = [&](int, const FrameHeader& h, const uint8_t* payload,
                      int64_t t) -> Status {
    if (h.request_id < base || h.request_id >= base + n) {
      return Status::Internal("frame for an unknown request");
    }
    Slot& s = (*slots)[h.request_id - base];
    s.bytes += static_cast<int64_t>(kWireHeaderBytes + h.payload_len);
    WireReader r(payload, h.payload_len);
    switch (h.opcode) {
      case Opcode::kSubmitAck: {
        s.ack_ns = t;
        auto ack = DecodeSubmitAck(&r);
        if (!ack.ok() || !r.Done()) {
          return Status::Internal("malformed submit ack");
        }
        s.disposition = ack->disposition;
        if (s.Refused()) --outstanding;  // No completion will follow.
        return Status::OK();
      }
      case Opcode::kGroupComplete: {
        s.done_ns = t;
        const int64_t d0 = traced ? NowNs() : 0;
        auto done = DecodeCompletion(&r, h.version);
        if (traced) s.decode_ns = NowNs() - d0;
        if (!done.ok() || !r.Done()) {
          return Status::Internal("malformed completion");
        }
        s.terminal = done->terminal;
        s.queries_failed = static_cast<int32_t>(done->queries_failed);
        s.latency_us = done->latency_us;
        s.queue_us = done->queue_wait_us;
        s.service_us = done->service_us;
        if (options.capture_results) s.results = std::move(done->results);
        --outstanding;
        return Status::OK();
      }
      case Opcode::kError: {
        auto err = DecodeError(&r);
        if (err.ok() && err->code == WireErrorCode::kWriteQueueShed) {
          // The server counts these too; the run fails on its count.
          s.submit_failed = true;
          --outstanding;
          return Status::OK();
        }
        return Status::Internal(
            "server error frame: " +
            (err.ok() ? std::string(WireErrorCodeToString(err->code)) + " " +
                            err->message
                      : std::string("undecodable")));
      }
      default:
        return Status::Internal(std::string("unexpected opcode ") +
                                OpcodeToString(h.opcode));
    }
  };

  bool window_started = !options.on_window_start;
  size_t next = 0;
  int64_t drain_deadline = 0;
  for (;;) {
    while (next < n && options.origin_ns + arrivals[next].at_ns <= NowNs()) {
      const Arrival& a = arrivals[next];
      Slot& s = (*slots)[next];
      s.intended_ns = options.origin_ns + a.at_ns;
      if (!window_started && a.at_ns >= options.window_start_ns) {
        window_started = true;
        options.on_window_start();
      }
      Conn* c = conns_[a.user % kConnections].get();
      s.sent_ns = NowNs();
      const size_t before = c->out.size();
      WireWriter w(&c->out);
      const size_t f =
          w.BeginFrame(Opcode::kSubmitGroup, sessions[a.user], base + next);
      EncodeQueryGroup(&w, *a.queries);
      w.EndFrame(f);
      if (traced) s.encode_ns = NowNs() - s.sent_ns;
      s.bytes += static_cast<int64_t>(c->out.size() - before);
      IDEVAL_RETURN_NOT_OK(Flush(c));
      if (traced) s.sent_end_ns = NowNs();
      ++outstanding;
      ++next;
    }
    if (next == n) {
      if (outstanding == 0) break;
      if (drain_deadline == 0) drain_deadline = NowNs() + kDrainTimeoutNs;
      if (NowNs() > drain_deadline) {
        return Status::Internal("wire replay: completions never arrived");
      }
    }
    // While an answer is due the generator polls without blocking: were its
    // CPU allowed to go idle, each completion would also wait for that CPU
    // to wake, a host-dependent delay that belongs to no layer measured.
    const int64_t wake = next < n ? options.origin_ns + arrivals[next].at_ns
                                  : drain_deadline;
    const int64_t timeout = outstanding > 0 ? 0 : wake - NowNs() - kSpinNs;
    IDEVAL_RETURN_NOT_OK(Pump(timeout, on_frame));
  }
  return Status::OK();
}

}  // namespace idebench
