#ifndef IDEVAL_OBS_TRACE_H_
#define IDEVAL_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace ideval {

/// What one span covers in the serve pipeline. The paper's frontend
/// metrics (LCV, QIF) are derived quantities; these spans are the
/// per-interaction timeline they derive from — where a group sat in the
/// queue, whether the cache coalesced it, which shard straggled.
enum class SpanKind : uint8_t {
  kGroup = 0,     ///< Root: submission -> terminal (executed or shed).
  kAdmission,     ///< Instant: the door verdict (disposition in `detail`).
  kQueueWait,     ///< Admitted -> dispatched to a group worker.
  kCacheLookup,   ///< One `ResultCache::Execute` (outcome in `detail`).
  kExecute,       ///< Backend busy: one query's scan/aggregate wall time.
  kScatter,       ///< Sharded: plan + fan-out to the shard pool.
  kShardExec,     ///< Sharded: one partial on one shard engine.
  kMerge,         ///< Sharded: partial-combine wall time.
  kNetRecv,       ///< Socket front-end: one request frame decoded.
  kNetSend,       ///< Socket front-end: one response frame written.
  kNetClientSend,    ///< Client: submit frame sent -> ack received (RTT).
  kNetClientRecv,    ///< Client: completion frame decoded and tallied.
};

const char* SpanKindToString(SpanKind kind);

/// Terminal state of a `kGroup` root span, in `SpanRecord::detail`'s low
/// byte. Bit 8 (`kGroupLcvBit`) flags a late-contradicting-visualization
/// violation on an executed group.
enum class GroupTerminal : uint32_t {
  kExecuted = 0,
  kShedThrottled = 1,
  kRejected = 2,
  kShedCoalesced = 3,  ///< Superseded by a newer debounced submission.
  kShedStale = 4,      ///< Skip-stale shed (overflow or at dispatch).
};

inline constexpr uint32_t kGroupLcvBit = 1u << 8;

const char* GroupTerminalToString(GroupTerminal terminal);

/// One fixed-size span record. No strings, no heap: recording a span is a
/// struct copy into a preallocated ring, so the hot path never allocates.
///
/// `detail` and `attr0..2` are kind-specific:
///
///   kind         | detail                  | attr0..attr2
///   -------------|-------------------------|----------------------------
///   kGroup       | GroupTerminal | LCV bit | ok, failed, cache hits
///   kAdmission   | disposition (0..3)      | load state, queue depth,
///                |                         |   load factor (x1000)
///   kQueueWait   | —                       | queue depth at admit
///   kCacheLookup | outcome (1 hit, 2 miss, | —
///                |   3 coalesced, 0 error) |
///   kExecute     | —                       | tuples scanned,
///                |                         |   blocks scanned/pruned
///   kScatter     | —                       | subtasks, planned, failed
///   kShardExec   | lane                    | shard, blocks scanned/pruned
///   kMerge       | —                       | merged, failed
///   kNetRecv     | opcode                  | bytes, request id
///   kNetSend     | opcode                  | bytes, request id
///   kNetClientSend | opcode                | bytes, request id
///   kNetClientRecv | opcode                | bytes, request id
struct SpanRecord {
  uint64_t trace_id = 0;        ///< Shared by every span of one group.
  uint64_t span_id = 0;
  uint64_t parent_span_id = 0;  ///< 0 = root.
  uint64_t session_id = 0;
  SpanKind kind = SpanKind::kGroup;
  uint32_t detail = 0;
  int64_t start_us = 0;  ///< Microseconds since the buffer epoch.
  int64_t end_us = 0;
  int64_t attr0 = 0;
  int64_t attr1 = 0;
  int64_t attr2 = 0;
};

struct TraceOptions {
  /// Total span capacity across all shards; once full the oldest records
  /// are overwritten (newest-N retention) and `dropped` counts the loss.
  int64_t capacity_spans = 1 << 16;
  /// Ring shards, each behind its own mutex. Spans shard by trace id, so
  /// concurrent sessions do not contend and one trace stays together.
  int num_shards = 8;
};

struct TraceBufferStats {
  int64_t recorded = 0;  ///< Spans ever accepted.
  int64_t dropped = 0;   ///< Spans overwritten by newer ones.
  int64_t live = 0;      ///< Spans currently held.
  int64_t capacity = 0;  ///< Maximum live spans.
};

/// A lock-sharded, bounded ring buffer of span records — the always-
/// compiled tracing backend. Tracing off means no buffer exists at all;
/// every instrumentation site guards on a null `TraceContext::buffer`, so
/// the disabled cost is one branch.
///
/// Thread safety: all methods are safe for concurrent callers.
class TraceBuffer {
 public:
  explicit TraceBuffer(TraceOptions options);

  TraceBuffer(const TraceBuffer&) = delete;
  TraceBuffer& operator=(const TraceBuffer&) = delete;

  /// Re-anchors timestamps; the owning server passes its own epoch so
  /// span times line up with its `SimTime` clock.
  void set_epoch(std::chrono::steady_clock::time_point epoch) {
    epoch_ = epoch;
  }

  /// Microseconds since the epoch (the span timestamp domain).
  int64_t NowMicros() const;

  uint64_t NewTraceId() {
    return next_trace_id_.fetch_add(1, std::memory_order_relaxed);
  }
  uint64_t NewSpanId() {
    return next_span_id_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Copies `record` into its trace's ring shard, overwriting the oldest
  /// record there when full.
  void Record(const SpanRecord& record);

  /// Every live span, ordered by (start, span id).
  std::vector<SpanRecord> Snapshot() const;

  TraceBufferStats Stats() const;

  /// Renders the live spans as Chrome trace-event JSON; see
  /// `ChromeTraceJson`.
  std::string ChromeTraceJson() const;

  /// Writes `ChromeTraceJson()` to `path` (openable in ui.perfetto.dev or
  /// chrome://tracing).
  Status ExportChromeTrace(const std::string& path) const;

  const TraceOptions& options() const { return options_; }

 private:
  struct Shard {
    mutable std::mutex mu;
    std::vector<SpanRecord> ring;  ///< Fixed capacity, preallocated.
    size_t next = 0;               ///< Next write slot.
    size_t count = 0;              ///< Live records (<= ring.size()).
    int64_t recorded = 0;
    int64_t dropped = 0;
  };

  TraceOptions options_;
  std::chrono::steady_clock::time_point epoch_;
  std::atomic<uint64_t> next_trace_id_{1};
  std::atomic<uint64_t> next_span_id_{1};
  std::vector<std::unique_ptr<Shard>> shards_;
};

/// The per-query-group trace handle, carried from submission through
/// admission, queue wait, cache lookup, shard execution, and merge. A
/// default-constructed (null-buffer) context disables every span it is
/// handed to.
struct TraceContext {
  TraceBuffer* buffer = nullptr;
  uint64_t trace_id = 0;
  uint64_t root_span_id = 0;  ///< The kGroup span every stage nests under.
  uint64_t session_id = 0;

  bool enabled() const { return buffer != nullptr; }
};

/// Makes an enabled context with fresh trace/root ids, or a disabled one
/// when `buffer` is null.
TraceContext MakeTraceContext(TraceBuffer* buffer, uint64_t session_id);

/// RAII span for work that starts and ends on one thread: starts at
/// construction, records itself at `End` (or destruction). On a disabled
/// context every method is a no-op behind one branch.
class Span {
 public:
  Span() = default;

  /// Starts a span under `parent_span_id` at `start_us` (now if < 0).
  Span(const TraceContext& ctx, SpanKind kind, uint64_t parent_span_id,
       int64_t start_us = -1);

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  Span(Span&& other) noexcept;
  Span& operator=(Span&& other) noexcept;

  ~Span() { End(); }

  bool enabled() const { return buffer_ != nullptr; }
  uint64_t id() const { return record_.span_id; }

  void SetDetail(uint32_t detail) { record_.detail = detail; }
  void SetAttrs(int64_t a0, int64_t a1 = 0, int64_t a2 = 0) {
    record_.attr0 = a0;
    record_.attr1 = a1;
    record_.attr2 = a2;
  }

  /// Records the span, ending at `end_us` (now if < 0). Idempotent.
  void End(int64_t end_us = -1);

 private:
  TraceBuffer* buffer_ = nullptr;
  SpanRecord record_;
};

/// Records an already-timed span in one call — for spans whose start and
/// end were observed on different threads (the root group span, queue
/// waits) or that must be closed retroactively (shed groups). No-op on a
/// disabled context.
void RecordSpan(const TraceContext& ctx, SpanKind kind, uint64_t span_id,
                uint64_t parent_span_id, int64_t start_us, int64_t end_us,
                uint32_t detail = 0, int64_t attr0 = 0, int64_t attr1 = 0,
                int64_t attr2 = 0);

/// Renders spans as Chrome trace-event JSON (the `{"traceEvents": [...]}`
/// envelope of "X" complete events, timestamps in microseconds). Sessions
/// map to processes and pipeline stages nest on one track per session;
/// concurrent shard partials get per-lane tracks so slices never overlap.
/// The output opens directly in ui.perfetto.dev or chrome://tracing.
std::string ChromeTraceJson(const std::vector<SpanRecord>& spans);

}  // namespace ideval

#endif  // IDEVAL_OBS_TRACE_H_
