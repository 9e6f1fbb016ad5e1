#ifndef IDEVAL_NET_NET_CLIENT_H_
#define IDEVAL_NET_NET_CLIENT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "engine/query.h"
#include "net/codec.h"
#include "net/wire.h"
#include "obs/trace.h"

namespace ideval {

/// Client-side wire tallies. `bytes_*` mirror the server's counters from
/// the other end of the socket: after every session has drained and the
/// connection is closed, this client's `bytes_sent` is contained in the
/// server's `net_bytes_received` (exactly equal when it is the only
/// client), which the serve tests assert.
struct NetClientStats {
  int64_t bytes_sent = 0;
  int64_t bytes_received = 0;
  int64_t frames_sent = 0;
  int64_t frames_received = 0;
  /// Deferred terminal reports, one per admitted group:
  /// executed + shed + dropped == groups acked kEnqueued/kCoalesced.
  int64_t completions_executed = 0;
  int64_t completions_shed = 0;     ///< Server shed (stale/coalesced).
  int64_t completions_dropped = 0;  ///< Write-queue shed error frames.
  int64_t lcv_violations = 0;
  int64_t queries_executed = 0;
  int64_t queries_failed = 0;
  int64_t cache_hits = 0;
  /// Server-reported submit->terminal latency of executed groups.
  std::vector<double> latency_ms;
};

/// Blocking client for the `NetServer` wire protocol — what `LoadDriver`
/// clients become in `--net` mode. One instance owns one TCP connection
/// and may multiplex any number of sessions; it is NOT thread-safe (the
/// net load driver gives each client thread its own instance, mirroring
/// the one-thread-per-client in-process driver).
///
/// Deferred `kGroupComplete` frames interleave with direct responses on
/// the same socket; every blocking call drains and tallies them while
/// waiting for its own response, so completions are never lost and the
/// socket never deadlocks.
class NetClient {
 public:
  static Result<std::unique_ptr<NetClient>> Connect(const std::string& host,
                                                    int port);

  ~NetClient();

  NetClient(const NetClient&) = delete;
  NetClient& operator=(const NetClient&) = delete;

  /// Round-trips a ping frame.
  Status Ping();

  /// Opens a server session bound to this connection.
  Result<uint64_t> OpenSession();

  Status CloseSession(uint64_t session_id);

  /// Submits one query group and blocks for the door ack. The group's
  /// terminal report arrives later as a completion (tallied in `stats()`
  /// and offered to the `on_complete` hook).
  Result<SubmitAckPayload> Submit(uint64_t session_id,
                                  const std::vector<Query>& queries);

  /// Blocks until the session has no pending groups server-side — i.e.
  /// every admitted group's completion (or its write-queue-shed error)
  /// has been received. After draining all sessions, the byte counters
  /// on both ends of the socket agree.
  Status Drain(uint64_t session_id);

  /// Optional hook observing every completion as it is tallied.
  void set_on_complete(std::function<void(const CompletionPayload&)> fn) {
    on_complete_ = std::move(fn);
  }

  /// Attaches a span buffer: every subsequent `Submit` pre-allocates a
  /// trace id from it, stamps the id into a wire-v3 frame (which the
  /// server adopts, stitching both processes into one timeline), and
  /// records client-side spans — `kNetClientSend` covering the
  /// submit->ack round trip and `kNetClientRecv` per completion frame.
  /// Null detaches (frames revert to v1). The buffer must outlive this
  /// client; sharing the server's buffer (in-process benches) keeps one
  /// epoch for both sides.
  void set_trace_buffer(TraceBuffer* buffer) { trace_ = buffer; }

  const NetClientStats& stats() const { return stats_; }

 private:
  NetClient() = default;

  Status SendAll();
  /// Blocks until one full frame is buffered; leaves it decoded in
  /// `last_header_` with the payload at `payload_`.
  Status ReadFrame();
  /// Sends the frame just built in `wbuf_` and loops reading frames,
  /// tallying completions, until the direct response for `request_id`
  /// arrives (returned via `last_header_`/`payload_`). An error frame
  /// for `request_id` is converted to a non-OK status unless it is a
  /// write-queue shed (those are completion substitutes).
  Status Call(uint64_t request_id, Opcode expect);
  void TallyCompletion(const FrameHeader& h);

  int fd_ = -1;
  uint64_t next_request_id_ = 1;
  std::vector<uint8_t> wbuf_;
  std::vector<uint8_t> rbuf_;
  size_t rpos_ = 0;
  FrameHeader last_header_;
  const uint8_t* payload_ = nullptr;
  NetClientStats stats_;
  std::function<void(const CompletionPayload&)> on_complete_;
  TraceBuffer* trace_ = nullptr;
  /// request id -> (trace id, session id) of submits whose completion is
  /// still due; lets `TallyCompletion` file its receive span under the
  /// right trace. Entries are erased at the terminal frame (completion
  /// or write-queue-shed error) and on unadmitted door verdicts.
  std::unordered_map<uint64_t, std::pair<uint64_t, uint64_t>>
      pending_traces_;
};

}  // namespace ideval

#endif  // IDEVAL_NET_NET_CLIENT_H_
