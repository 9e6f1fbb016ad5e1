#ifndef IDEVAL_NET_CODEC_H_
#define IDEVAL_NET_CODEC_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "engine/query.h"
#include "net/wire.h"
#include "serve/server.h"
#include "serve/session.h"

namespace ideval {

/// Payload codecs on top of `net/wire.h` primitives: the query shapes a
/// client submits and the result/ack/completion payloads the server sends
/// back. Encoders append to the caller's reusable buffer (no hot-path
/// allocation beyond buffer growth to the high-water mark); decoders read
/// through a bounds-checked `WireReader` and return `Status` on any
/// truncated, corrupted, or over-long payload.
///
/// Variant tags (u8, 0 is reserved/invalid so a zeroed buffer never
/// decodes): Query {1 select, 2 histogram, 3 join_page}; Predicate
/// {1 range, 2 string_eq, 3 string_in}; Value {1 int64, 2 double,
/// 3 string}; result {1 row_set, 2 histogram}.

/// Door verdict for one `kSubmitGroup`, echoed as `kSubmitAck`.
struct SubmitAckPayload {
  uint64_t seq = 0;
  SubmitDisposition disposition = SubmitDisposition::kEnqueued;
  LoadState load_state = LoadState::kIdle;
  double load_factor = 0.0;

  bool operator==(const SubmitAckPayload&) const = default;
};

/// Terminal report for one admitted group, carried by `kGroupComplete`.
/// Mirrors `GroupCompletion` minus the session id (that rides in the
/// frame header).
struct CompletionPayload {
  uint64_t seq = 0;
  GroupTerminal terminal = GroupTerminal::kExecuted;
  bool lcv = false;
  int64_t queries_executed = 0;
  int64_t queries_failed = 0;
  int64_t cache_hits = 0;
  int64_t queue_wait_us = 0;
  int64_t service_us = 0;
  int64_t latency_us = 0;
  /// One slot per query in submission order; empty = that query failed.
  /// Empty vector for shed groups.
  std::vector<std::optional<QueryResultData>> results;
};

/// Error payload of a `kError` frame.
struct ErrorPayload {
  WireErrorCode code = WireErrorCode::kNone;
  std::string message;
};

void EncodeQueryGroup(WireWriter* w, const std::vector<Query>& queries);
Result<std::vector<Query>> DecodeQueryGroup(WireReader* r);

void EncodeSubmitAck(WireWriter* w, const SubmitAckPayload& ack);
Result<SubmitAckPayload> DecodeSubmitAck(WireReader* r);

/// Completion codec. Versions 1 and 3 share one completion payload.
void EncodeCompletion(WireWriter* w, const CompletionPayload& done);
Result<CompletionPayload> DecodeCompletion(WireReader* r);
/// As above. `version` is the frame header's and selects nothing, since
/// every understood version has the same completion layout; the overload
/// stays for callers that pass the header through, such as the
/// repository benchmark's load generator (benchmark/load.cc).
Result<CompletionPayload> DecodeCompletion(WireReader* r, uint8_t version);

void EncodeError(WireWriter* w, WireErrorCode code, std::string_view message);
Result<ErrorPayload> DecodeError(WireReader* r);

}  // namespace ideval

#endif  // IDEVAL_NET_CODEC_H_
