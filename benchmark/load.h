#ifndef IDEVAL_BENCHMARK_LOAD_H_
#define IDEVAL_BENCHMARK_LOAD_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/result.h"
#include "net/wire.h"
#include "serve/server.h"
#include "workloads.h"

namespace idebench {

using ideval::GroupTerminal;
using ideval::QueryResultData;
using ideval::QueryServer;
using ideval::Status;
using ideval::SubmitDisposition;

/// Steady-clock nanoseconds; every timestamp below is on this clock.
int64_t NowNs();

/// Splits the CPUs this process may use: the first is reserved for the
/// load generator while a replay runs, and the calling thread, with every
/// thread it starts from now on (server workers, the poller, the socket
/// loop), is confined to the rest. The generator then never queues behind
/// a worker for a core. No-op on a single CPU.
void ReserveGeneratorCpu();

/// What became of one scheduled arrival. Written once, by whoever
/// observes each event: the generator thread for send/ack/wire
/// completions, a server worker (through the completion callback) for
/// in-process completions.
struct Slot {
  int64_t intended_ns = 0;  ///< Schedule origin + `Arrival::at_ns`.
  int64_t sent_ns = 0;      ///< `Submit` entered / frame encoding began.
  int64_t sent_end_ns = 0;  ///< Traced: `Submit` returned / frame written.
  int64_t ack_ns = 0;       ///< Wire: `kSubmitAck` read.
  int64_t done_ns = 0;      ///< Terminal state observed; 0 = none (yet).
  int64_t encode_ns = 0;    ///< Traced wire: `EncodeQueryGroup` time.
  int64_t decode_ns = 0;    ///< Traced wire: `DecodeCompletion` time.
  int64_t bytes = 0;        ///< Wire: frame bytes both ways.
  // Server-reported (from `GroupCompletion` / `CompletionPayload`).
  int64_t latency_us = 0;
  int64_t queue_us = 0;
  int64_t service_us = 0;
  int32_t queries_failed = 0;
  SubmitDisposition disposition = SubmitDisposition::kEnqueued;
  GroupTerminal terminal = GroupTerminal::kExecuted;
  bool submit_failed = false;  ///< `Submit` errored or the wire refused it.
  /// Verification runs only: per-query results in submission order.
  std::vector<std::optional<QueryResultData>> results;

  bool Refused() const {
    return disposition == SubmitDisposition::kRejected ||
           disposition == SubmitDisposition::kThrottled;
  }
  /// Executed with every query answered.
  bool Served() const {
    return !submit_failed && !Refused() && done_ns != 0 &&
           terminal == GroupTerminal::kExecuted && queries_failed == 0;
  }
};

struct ReplayOptions {
  /// Steady-clock instant of `at_ns == 0`.
  int64_t origin_ns = 0;
  /// Take the extra timestamps the span ledger needs (submit return,
  /// codec calls). Off in the measured window.
  bool traced = false;
  /// Ask for result payloads (verification). The wire always carries them.
  bool capture_results = false;
  /// Called once on the generator thread just before the first arrival
  /// with `at_ns >= window_start_ns` is sent.
  int64_t window_start_ns = 0;
  std::function<void()> on_window_start;
};

/// Open-loop, in-process: one thread (the caller) calls
/// `QueryServer::Submit` at each arrival's intended time, whatever state
/// earlier arrivals are in, then drains the server. `sessions[a.user]` is
/// the server session of each arrival's user. The completion callback
/// stores a timestamp and the server's report into the arrival's
/// preallocated slot; it takes no lock and allocates nothing.
Status ReplayInProcess(QueryServer* server,
                       const std::vector<uint64_t>& sessions,
                       const std::vector<Arrival>& arrivals,
                       const ReplayOptions& options, std::vector<Slot>* slots);

/// Open-loop over the wire: the caller's thread multiplexes two loopback
/// connections to a `NetServer` with poll(), speaking `net/wire.h` frames
/// directly so completions are observed as soon as they arrive rather
/// than inside a blocking call.
class WireClient {
 public:
  static constexpr int kConnections = 2;

  static Result<std::unique_ptr<WireClient>> Connect(int port);
  ~WireClient();

  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;

  /// Opens `n` sessions, user `u` on connection `u % kConnections`.
  Result<std::vector<uint64_t>> OpenSessions(int n);

  /// As `ReplayInProcess`, over the sockets; `sessions` must be one
  /// `OpenSessions` result of this client, so that user `u`'s frames go
  /// to the connection its session is bound to.
  Status Replay(const std::vector<uint64_t>& sessions,
                const std::vector<Arrival>& arrivals,
                const ReplayOptions& options, std::vector<Slot>* slots);

 private:
  struct Conn;
  /// Called per complete frame; `t_ns` is when its bytes were read.
  using FrameFn = std::function<Status(int conn, const ideval::FrameHeader&,
                                       const uint8_t* payload, int64_t t_ns)>;

  WireClient();
  Status Flush(Conn* c);
  /// Waits up to `timeout_ns` for socket activity, flushes pending writes,
  /// and hands every complete received frame to `on_frame`.
  Status Pump(int64_t timeout_ns, const FrameFn& on_frame);

  std::vector<std::unique_ptr<Conn>> conns_;
  uint64_t next_request_id_ = 1;
};

}  // namespace idebench

#endif  // IDEVAL_BENCHMARK_LOAD_H_
