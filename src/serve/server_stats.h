#ifndef IDEVAL_SERVE_SERVER_STATS_H_
#define IDEVAL_SERVE_SERVER_STATS_H_

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "common/sim_time.h"
#include "common/streaming_stats.h"
#include "obs/attribution.h"
#include "obs/trace.h"
#include "serve/admission.h"
#include "serve/result_cache.h"

namespace ideval {

/// Per-session group accounting. Every submitted group lands in exactly
/// one terminal bucket, so after a drain
///
///     submitted == executed + shed_stale + shed_coalesced
///                + shed_throttled + rejected
///
/// holds per session and (summed) globally. The door verdict is counted
/// separately: `admitted` is the groups that entered the queue, so
///
///     submitted == admitted + shed_throttled + rejected
///     admitted  == executed + shed_stale + shed_coalesced   (after drain)
///
/// — throttle/reject happen at the door, stale/coalesced sheds happen to
/// groups that were already admitted.
struct SessionCounters {
  int64_t groups_submitted = 0;
  int64_t groups_admitted = 0;  ///< Entered the queue (door verdict).
  int64_t groups_executed = 0;
  int64_t groups_shed_stale = 0;      ///< Skip-stale dispatch/overflow.
  int64_t groups_shed_coalesced = 0;  ///< Debounce replacement.
  int64_t groups_shed_throttled = 0;  ///< Throttle door shedding.
  int64_t groups_rejected = 0;        ///< Backpressure (queue full / load).
  int64_t queries_executed = 0;
  int64_t queries_failed = 0;
  int64_t cache_hits = 0;
  int64_t lcv_violations = 0;

  int64_t GroupsShed() const {
    return groups_shed_stale + groups_shed_coalesced + groups_shed_throttled;
  }
  SessionCounters& operator+=(const SessionCounters& o);
};

/// One session's row in a stats snapshot.
struct SessionStatsRow {
  uint64_t session_id = 0;
  SessionCounters counters;
  double qif_qps = 0.0;   ///< Live sliding-window QIF of this session.
  int64_t queued = 0;     ///< Pending groups at snapshot time.
  int64_t queue_hwm = 0;  ///< Deepest the queue has ever been.
};

/// Socket front-end counters (`src/net/net_server.h`), folded into the
/// server snapshot when a `NetServer` is attached. Bytes/frames count
/// wire traffic as seen by the server; after every client has drained
/// and disconnected, `net_bytes_sent` equals the sum of client-side
/// bytes received (and vice versa) — a reconciliation the serve tests
/// assert exactly.
struct NetStatsSnapshot {
  int64_t bytes_sent = 0;
  int64_t bytes_received = 0;
  int64_t frames_sent = 0;
  int64_t frames_received = 0;
  int64_t connections_accepted = 0;
  int64_t active_connections = 0;  ///< Gauge: currently open sockets.
  /// Completion frames dropped because a connection's bounded write
  /// queue was full (the client got a small error frame instead).
  int64_t write_queue_shed = 0;
  /// Malformed/unknown frames answered with an error frame.
  int64_t protocol_errors = 0;
};

/// Observability HTTP endpoint counters (`src/net/http_endpoint.h`),
/// folded into the server snapshot when an `HttpEndpoint` is attached
/// (and mirrored into `ideval_http_*` registry counters when the server
/// has a metrics registry).
struct HttpStatsSnapshot {
  int64_t requests = 0;       ///< Request lines parsed.
  int64_t responses_ok = 0;   ///< 200s served.
  int64_t not_found = 0;      ///< 404s (unknown route or facility off).
  int64_t bad_requests = 0;   ///< 400s (malformed or oversized request).
  int64_t connections_rejected = 0;  ///< 503s from the connection cap.
  int64_t slow_client_closes = 0;    ///< Write-timeout disconnects.
  int64_t bytes_sent = 0;
};

/// Consistent point-in-time view of a running `QueryServer`.
struct ServerStatsSnapshot {
  int num_workers = 0;
  /// Engine shards behind the server; 1 = unsharded.
  int num_shards = 1;
  /// Dedicated shard-executor threads (0 when unsharded).
  int shard_workers = 0;
  AdmissionPolicy configured_policy = AdmissionPolicy::kFifo;
  AdmissionPolicy effective_policy = AdmissionPolicy::kFifo;
  int64_t sessions_open = 0;
  double uptime_s = 0.0;

  /// Sum over all sessions (reconciles with the per-session rows by
  /// construction).
  SessionCounters totals;
  int64_t groups_queued = 0;  ///< Still pending at snapshot time.
  int64_t queue_hwm = 0;      ///< Deepest any session queue has been.

  // Wall-clock latency of executed groups, submit -> last query done.
  double latency_mean_ms = 0.0;
  double latency_p50_ms = 0.0;
  double latency_p90_ms = 0.0;
  double latency_max_ms = 0.0;
  /// Pure service time (dispatch -> done), the capacity denominator.
  double service_mean_ms = 0.0;
  // Per-phase attribution of the service time (sharded servers; for an
  // unsharded server scatter/merge are zero and execute == service).
  double scatter_mean_ms = 0.0;  ///< Plan + fan-out to the shard pool.
  double execute_mean_ms = 0.0;  ///< Fan-out done -> last partial done.
  double merge_mean_ms = 0.0;    ///< Partial-combine wall time.
  double merge_max_ms = 0.0;     ///< Worst merge (saturation indicator).

  double qif_qps = 0.0;         ///< Global offered load, sliding window.
  double throughput_qps = 0.0;  ///< Executed queries / uptime (lifetime).
  /// Executed queries per second over the live sliding window — the
  /// lifetime average hides saturation onset mid-run; this does not.
  double throughput_window_qps = 0.0;
  double lcv_fraction = 0.0;    ///< Violations / executed groups.
  /// Events dropped from the sliding windows because a burst hit
  /// `OnlineMetrics::kMaxWindowEntries`; nonzero means the windowed
  /// rates above are floors, not exact.
  int64_t qif_window_truncations = 0;

  /// Shared result cache counters (`enable_shared_cache` servers only).
  bool result_cache_enabled = false;
  ResultCacheStats result_cache;

  /// Trace-buffer occupancy (`enable_tracing` servers only).
  bool tracing_enabled = false;
  TraceBufferStats trace_buffer;
  /// Per-phase tail-latency attribution folded from the live span buffer
  /// (`enable_tracing` servers, and only when the snapshot was taken with
  /// `with_attribution` — the periodic poller skips the span scan).
  bool attribution_enabled = false;
  AttributionReport attribution;
  /// Slow-query log size (`slow_query_ms >= 0` servers only).
  bool slow_log_enabled = false;
  int64_t slow_queries_logged = 0;

  /// SIMD kernel / elastic-morsel state (docs/kernels.md).
  /// `kernel_isa` names the kernel table the backend resolved at
  /// startup ("scalar", "sse4.2", "avx2" — identical results, different
  /// speed); `morsel_queries` counts histogram scans a worker posted for
  /// idle workers to join and `morsels_executed` the morsels those
  /// helpers claimed (both 0 on single-worker and sharded servers).
  std::string kernel_isa = "scalar";
  int64_t morsels_executed = 0;
  int64_t morsel_queries = 0;

  /// Incremental drag answers (docs/serve.md): groups answered from the
  /// session's previous group plus the rows the moved bound swept, and
  /// those rows. Read from the `ideval_drag_*_total` counters themselves,
  /// so with a registry shared by several servers they are its totals.
  int64_t drag_groups = 0;
  int64_t drag_rows_swept = 0;

  /// Socket front-end counters (servers fronted by a `NetServer` only).
  bool net_enabled = false;
  NetStatsSnapshot net;

  /// Observability endpoint counters (servers with an `HttpEndpoint`
  /// attached only).
  bool http_enabled = false;
  HttpStatsSnapshot http;

  /// SLO engine rollup (`enable_slo` servers only, docs/observability.md):
  /// the live any-critical verdict, lifetime ok/warn→critical (and
  /// →warn) transition counts summed across SLOs, and the number of
  /// flight-recorder bundles captured so far.
  bool slo_enabled = false;
  bool slo_any_critical = false;
  int64_t slo_critical_transitions = 0;
  int64_t slo_warn_transitions = 0;
  int64_t slo_bundles = 0;

  LoadAssessment load;

  std::vector<SessionStatsRow> sessions;

  /// Renders the snapshot as aligned text tables (global battery plus a
  /// per-session breakdown).
  std::string ToText() const;

  /// Renders the headline battery — config, totals, latency/throughput,
  /// load, per-phase attribution when present, SLO rollup — as one JSON
  /// object (the flight recorder's `stats` section and the HTTP
  /// endpoint's machine-readable snapshot).
  std::string ToJson() const;
};

/// Thread-safe online accumulators for the server's latency/throughput
/// battery: Welford mean/variance and P² quantiles from
/// `common/streaming_stats` behind a mutex, plus the global QIF window.
/// O(1) state per metric — sessions never buffer per-query history.
class OnlineMetrics {
 public:
  /// Hard element cap on each sliding-window deque. Trimming by horizon
  /// alone lets one burst grow the deque without bound; past the cap the
  /// oldest event is dropped and counted as a truncation (the windowed
  /// rate becomes a floor instead of the process becoming an OOM).
  static constexpr int64_t kMaxWindowEntries = 8192;

  explicit OnlineMetrics(Duration qif_window);

  /// Records a submission (admitted or not) at `now`.
  void RecordSubmit(SimTime now);

  /// Records a group that completed at `now` with `queries` successful
  /// queries (feeds the windowed throughput alongside the latency
  /// battery).
  void RecordGroupComplete(SimTime now, Duration latency, Duration service,
                           int64_t queries);

  /// Attributes one completed group's service time to the scatter /
  /// execute / merge phases. An unsharded server records
  /// (0, service, 0) so `execute` always means "backend busy".
  void RecordPhases(Duration scatter, Duration execute, Duration merge);

  /// Global sliding-window QIF at `now`.
  double QifQps(SimTime now);

  /// Copies the latency/service estimators into `snap`.
  void FillSnapshot(ServerStatsSnapshot* snap, SimTime now);

 private:
  /// One timestamped completion in the throughput window.
  struct Completion {
    SimTime time;
    int64_t queries = 0;
  };

  /// Drops past-horizon (and, beyond the cap, excess) entries from both
  /// windows. Caller holds `mu_`.
  void TrimWindows(SimTime now);

  std::mutex mu_;
  Duration window_;
  std::deque<SimTime> submits_;
  std::deque<Completion> completions_;
  int64_t window_query_sum_ = 0;  ///< Sum of `completions_` queries.
  int64_t truncations_ = 0;       ///< Entries dropped by the element cap.
  StreamingMeanVar latency_ms_;
  P2Quantile latency_p50_;
  P2Quantile latency_p90_;
  StreamingMeanVar service_ms_;
  StreamingMeanVar scatter_ms_;
  StreamingMeanVar execute_ms_;
  StreamingMeanVar merge_ms_;
};

}  // namespace ideval

#endif  // IDEVAL_SERVE_SERVER_STATS_H_
