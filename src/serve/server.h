#ifndef IDEVAL_SERVE_SERVER_H_
#define IDEVAL_SERVE_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "common/result.h"
#include "common/sim_time.h"
#include "engine/engine.h"
#include "engine/sharded_engine.h"
#include "obs/flight_recorder.h"
#include "obs/metrics_registry.h"
#include "obs/slo.h"
#include "obs/slow_query_log.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "serve/admission.h"
#include "serve/result_cache.h"
#include "serve/server_stats.h"
#include "serve/session.h"

namespace ideval {

/// Construction options for `QueryServer`.
struct ServerOptions {
  /// Worker threads executing queries. `Create` rejects values < 1.
  int num_workers = 4;
  /// Bounded per-session queue; a full queue means backpressure (FIFO /
  /// throttle) or shedding (skip-stale). `Create` rejects values < 1.
  int max_queue_per_session = 8;
  /// How session queues admit and drain work.
  AdmissionPolicy policy = AdmissionPolicy::kFifo;
  /// Minimum inter-group interval for `kThrottle`.
  Duration throttle_min_interval = Duration::Millis(100);
  /// Quiet period before a pending `kDebounce` group becomes runnable.
  Duration debounce_quiet = Duration::Millis(50);
  /// When true, the admission controller switches the effective policy to
  /// `kSkipStale` while the server is overloaded (Fig. 3 as a control
  /// loop) and rejects with backpressure past `reject_factor`.
  bool adaptive_admission = false;
  AdmissionOptions admission;
  /// Shared cross-session result cache (`serve/result_cache.h`): one
  /// invalidation-aware, sharded LRU above the backend — any session's
  /// execution serves every other session's equivalent query, and
  /// concurrent identical misses coalesce into one backend run. Works
  /// over both backends (it sits *above* `ShardedEngine`'s scatter/merge).
  bool enable_shared_cache = false;
  int64_t shared_cache_bytes = 64 << 20;
  int shared_cache_shards = 16;
  /// Dedicated shard-executor threads for the sharded `Create` overload;
  /// 0 = one per shard. Ignored for an unsharded server.
  int shard_workers = 0;
  /// Per-query tracing (`obs/trace.h`): every submission gets a trace id
  /// and emits spans for admission, queue wait, cache lookup, execution,
  /// scatter/shard/merge into a bounded ring buffer exportable as a
  /// Perfetto timeline. Off by default; when off, every instrumentation
  /// site reduces to one null-pointer branch.
  bool enable_tracing = false;
  /// Ring capacity (span records); oldest spans are overwritten once
  /// full. `Create` rejects values < 1 when tracing is enabled.
  int64_t trace_buffer_spans = 1 << 16;
  /// Slow-query log threshold in milliseconds; negative disables the
  /// log. Executed groups at or above the threshold — or flagging an LCV
  /// violation — land in a bounded structured log, independent of
  /// `enable_tracing`.
  double slow_query_ms = -1.0;
  /// Registry-backed metrics (`obs/metrics_registry.h`): every terminal
  /// counter and the latency/service distributions also stream into
  /// named counters/histograms, scrapeable as Prometheus text or JSON.
  /// Off by default; when off, every site is one branch (the same
  /// discipline as tracing). After a drain the registry counters
  /// reconcile exactly with `ServerStatsSnapshot` totals — *if* this
  /// server is the registry's only writer; servers sharing one registry
  /// aggregate into the same series.
  bool enable_metrics = false;
  /// Registry to publish into; null means `MetricsRegistry::Global()`.
  /// Tests and embedded multi-server processes pass their own.
  MetricsRegistry* metrics_registry = nullptr;
  /// Background stats poller period in milliseconds; <= 0 disables it.
  /// When > 0 a `StatsPoller` thread snapshots the server every period
  /// into a `TimeSeriesRing` (`timeseries()`) — QIF, windowed
  /// throughput, LCV, queue depth, shed/reject rates, cache hit rate,
  /// trace drops — the per-second series behind `BENCH_serve.json`.
  double stats_poll_ms = 0.0;
  /// Ring capacity in samples once the poller is on (default ten
  /// minutes at 1 s resolution). `Create` rejects values < 1 when the
  /// poller is enabled.
  int64_t stats_ring_samples = 600;
  /// Continuous SLO evaluation (docs/observability.md): declarative
  /// objectives over the stats-poller sample stream — an LCV-fraction
  /// budget (always, the paper's Fig. 2 metric as an operational
  /// target), an optional p90-deadline SLO, an optional
  /// shed/reject-rate SLO — evaluated every poll with SRE-style
  /// multi-window multi-burn-rate logic driving a per-SLO
  /// ok→warn→critical state machine with hysteresis. A critical
  /// transition triggers one flight-recorder bundle. Requires
  /// `stats_poll_ms` > 0 (evaluation rides the poller thread).
  bool enable_slo = false;
  /// LCV error budget: allowed fraction of executed groups violating
  /// their latency constraint. Must lie in (0, 1).
  double slo_lcv_target = 0.1;
  /// p90 latency deadline in ms; <= 0 disables the latency SLO. Its
  /// budget is fixed at 0.1 (10% of active polls may exceed it).
  double slo_latency_p90_ms = 0.0;
  /// Shed/reject budget: allowed fraction of submissions turned away
  /// at the door or dropped from the queues; <= 0 disables the shed
  /// SLO. Must be < 1.
  double slo_shed_target = 0.0;
  /// Multi-window pairs (seconds): critical when burn >=
  /// `slo_critical_burn` on BOTH fast windows, warn when burn >=
  /// `slo_warn_burn` on both slow windows. All four must be > 0.
  double slo_fast_window_s = 5.0;
  double slo_fast_confirm_window_s = 60.0;
  double slo_slow_window_s = 60.0;
  double slo_slow_confirm_window_s = 300.0;
  double slo_critical_burn = 14.4;
  double slo_warn_burn = 1.0;
  /// Hysteresis: a critical (warn) state downgrades only after its
  /// entry condition has been quiet this long, so one sustained breach
  /// is one transition and one bundle — no flapping.
  double slo_clear_hold_s = 60.0;
  /// Feed the SLO-critical verdict into the admission controller
  /// (`AdmissionController::SetSloCritical`), so adaptive admission
  /// reacts to the user-facing objective rather than raw EWMA alone.
  bool slo_admission = false;
  /// Flight-recorder bundle cap (bounded, overwrite-oldest); one
  /// bundle is captured per critical transition, plus on-demand ones.
  int slo_flight_bundles = 4;
};

/// What happened to one submission at the server door.
enum class SubmitDisposition {
  kEnqueued,   ///< Admitted into the session queue.
  kCoalesced,  ///< Admitted, replacing older pending group(s) (debounce).
  kThrottled,  ///< Shed at the door by the throttle policy.
  kRejected,   ///< Backpressure: queue full or hard overload.
};

const char* SubmitDispositionToString(SubmitDisposition d);

struct SubmitOutcome {
  uint64_t seq = 0;  ///< Per-session submission sequence number.
  SubmitDisposition disposition = SubmitDisposition::kEnqueued;
  LoadAssessment load;  ///< Control-loop view at submission time.
};

/// A concurrent interactive query server over an `Engine`.
///
/// The simulated `QueryScheduler` replays the execution-delay cascade of
/// Fig. 2 on a virtual clock; `QueryServer` is the same serving problem
/// under genuine concurrency: a fixed worker pool executes real queries
/// over real wall time, per-client sessions have isolated bounded queues,
/// and the paper's drain policies (§7.1) plus throttling/debouncing
/// (§3.1.2) act as live admission policies. An `AdmissionController`
/// watches live QIF vs. backend service rate and — in adaptive mode —
/// switches to shedding or rejects with backpressure when interaction
/// outpaces execution (Fig. 3's "overwhelmed backend" quadrant).
///
/// Groups of one session execute one at a time in submission order
/// (sessions model a single frontend connection), but any number of
/// sessions execute in parallel across the worker pool.
///
/// With a sharded backend (the `ShardedEngine` overload of `Create`), a
/// dispatched group goes through three phases instead of one: *scatter*
/// (each query is planned into per-shard subtasks and fanned out to a
/// dedicated shard-worker pool), *execute* (partials run concurrently on
/// the shards), and *merge* (the group worker combines partials into the
/// response an unsharded engine would have produced) — only then does the
/// session see a completion. `OnlineMetrics` attributes service time to
/// the three phases, and the admission controller's capacity estimate
/// accounts for the shard pool and the merge stage separately.
///
/// With the shared result cache (`ServerOptions::enable_shared_cache`),
/// every query of every session funnels through one `ResultCache` layered
/// above the backend: hits and coalesced waits skip the backend entirely,
/// so repeated crossfilter interactions cost a map lookup instead of a
/// scan, and the admission controller's service-time EWMA shrinks on hits
/// — its capacity estimate (and therefore the saturation knee) rises on
/// cache-friendly workloads with no extra plumbing. Over a sharded
/// backend the cache's miss path scatters and merges a single query
/// (`ExecuteOneSharded`); the per-phase attribution then collapses into
/// the `execute` phase since the backend runs inside the cache.
///
/// All public methods are thread-safe.
class QueryServer {
 public:
  /// Validates `options`, creates the server, and starts the worker pool.
  /// `engine` must outlive the server, have all tables registered, and is
  /// used read-only.
  static Result<std::unique_ptr<QueryServer>> Create(const Engine* engine,
                                                     ServerOptions options);

  /// Sharded variant: groups scatter across `sharded`'s shards and merge
  /// before completing. `sharded` must outlive the server, have all
  /// tables partitioned/replicated, and is used read-only.
  static Result<std::unique_ptr<QueryServer>> Create(
      const ShardedEngine* sharded, ServerOptions options);

  /// Stops the workers (queued-but-unstarted groups are abandoned; call
  /// `Drain` first for a clean shutdown).
  ~QueryServer();

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// Opens an isolated session and returns its id.
  uint64_t OpenSession();

  /// Marks a session closed: future submissions fail, pending work still
  /// drains, stats are retained.
  Status CloseSession(uint64_t session_id);

  /// Submits one coordinated query group on behalf of `session_id`. The
  /// returned outcome says whether it was admitted, shed, or pushed back.
  /// Errors only on unknown/closed sessions or empty groups.
  Result<SubmitOutcome> Submit(uint64_t session_id,
                               std::vector<Query> queries);

  /// As above, with a terminal-state callback: invoked exactly once for
  /// every *admitted* group (disposition `kEnqueued` / `kCoalesced`) when
  /// it reaches its terminal state — executed (with per-query results
  /// captured) or shed after admission (stale / coalesced). Door verdicts
  /// (`kThrottled` / `kRejected`) are fully described by the returned
  /// outcome and never invoke the callback, so a networked caller can
  /// answer those synchronously and wait for exactly one completion per
  /// admitted group. The callback runs under the server lock — on a
  /// worker thread or inside a later `Submit` of the same session — and
  /// must not call back into this server (see `GroupCompletionFn`).
  Result<SubmitOutcome> Submit(uint64_t session_id,
                               std::vector<Query> queries,
                               GroupCompletionFn on_complete);

  /// As above, adopting an externally chosen trace id (cross-process
  /// propagation: a networked client stamps its trace id into the submit
  /// frame and the server's spans join that trace instead of opening a
  /// fresh one, so one Chrome timeline covers both sides of the socket).
  /// `adopted_trace_id` 0 — or tracing off — degrades to the overload
  /// above. `capture_results` false keeps the callback (terminal
  /// reports, latencies) but skips copying per-query result payloads
  /// into it — for callers that want completion timing at
  /// fire-and-forget cost (the CO-safe load recorder).
  Result<SubmitOutcome> Submit(uint64_t session_id,
                               std::vector<Query> queries,
                               GroupCompletionFn on_complete,
                               uint64_t adopted_trace_id,
                               bool capture_results = true);

  /// Blocks until every admitted group has finished executing.
  void Drain();

  /// Stops the worker pool. Idempotent.
  void Stop();

  /// Consistent point-in-time stats (prunes sliding windows, hence
  /// non-const). With tracing on, `with_attribution` additionally folds
  /// the live span buffer into a per-phase tail-latency attribution
  /// (`snap.attribution`) — an O(spans) scan, so the periodic stats
  /// poller skips it and only deliberate snapshots (bench reports, the
  /// HTTP `/stats` route's callers) pay for it.
  ServerStatsSnapshot Snapshot(bool with_attribution = true);

  /// The shared result cache, or null when `enable_shared_cache` is off.
  /// `Clear` / `InvalidateTable` / `Stats` are safe on a live server;
  /// invalidate inside the same quiesced window as any backend mutation
  /// (see `Engine::ClearCaches`'s quiesce contract).
  ResultCache* result_cache() { return result_cache_.get(); }
  const ResultCache* result_cache() const { return result_cache_.get(); }

  /// The span ring buffer, or null when `enable_tracing` is off.
  /// `Snapshot` / `Stats` / `ExportChromeTrace` are safe on a live
  /// server.
  TraceBuffer* trace_buffer() { return trace_.get(); }
  const TraceBuffer* trace_buffer() const { return trace_.get(); }

  /// The slow-query log, or null when `slow_query_ms` is negative.
  const SlowQueryLog* slow_query_log() const { return slow_log_.get(); }

  /// The registry this server publishes into, or null when
  /// `enable_metrics` is off. Scrape with `ExpositionText` /
  /// `ExpositionJson`.
  MetricsRegistry* metrics_registry() { return mreg_; }
  const MetricsRegistry* metrics_registry() const { return mreg_; }

  /// The poller-filled per-period sample ring, or null when
  /// `stats_poll_ms` <= 0.
  const TimeSeriesRing* timeseries() const { return timeseries_.get(); }

  /// Builds one `StatsSample` from a fresh snapshot — what the poller
  /// pushes every period. Public so benches can stamp a final sample at
  /// drain time regardless of period phase. Rates-per-second fields are
  /// deltas against the previous call; call from one thread at a time
  /// (the poller, or the bench after the poller stopped).
  StatsSample SampleStats();

  /// The SLO engine, or null when `enable_slo` is off. `Status` /
  /// `ToJson` / `any_critical` are safe on a live server.
  const SloEngine* slo_engine() const { return slo_.get(); }

  /// The flight recorder, or null when `enable_slo` is off. `List` /
  /// `ToJson` are safe on a live server.
  const FlightRecorder* flight_recorder() const { return flight_.get(); }

  /// True while any SLO sits in the critical state — a relaxed read of
  /// the poller thread's latest verdict. Always false with SLOs off.
  bool slo_critical() const {
    return slo_critical_.load(std::memory_order_relaxed);
  }

  /// True once `Stop` has begun: the server is going away and should
  /// fail its health check (`/healthz` 503) so load balancers stop
  /// routing to it.
  bool draining() const {
    return stopping_.load(std::memory_order_relaxed);
  }

  /// Captures one flight-recorder bundle on demand (the HTTP
  /// `/debug/flightrecorder?capture=1` route, bench dumps). Returns the
  /// bundle id, or -1 when the recorder is off (`enable_slo` false).
  int64_t CaptureFlightBundle(const std::string& reason);

  const ServerOptions& options() const { return options_; }

 private:
  QueryServer(const Engine* engine, const ShardedEngine* sharded,
              ServerOptions options);

  /// Option checks shared by both `Create` overloads.
  static Status ValidateOptions(const ServerOptions& options);

  void WorkerLoop();

  /// One planned partial waiting for (or being run by) a shard worker.
  /// The pointed-to group state lives on the dispatching group worker's
  /// stack; it stays valid until that worker has observed completion
  /// under `done_mu`.
  struct ShardTask {
    /// The planned per-shard partial, pointing into the dispatching
    /// worker's `ShardPlan` (valid until completion, like the rest).
    const ShardedEngine::Subtask* subtask = nullptr;
    /// Slot for the partial result and its wall execution time.
    std::optional<Result<QueryResponse>>* result = nullptr;
    Duration* wall = nullptr;
    // Group-completion bookkeeping (guarded by *done_mu).
    std::mutex* done_mu = nullptr;
    std::condition_variable* done_cv = nullptr;
    int* remaining = nullptr;
    /// Tracing (disabled context when tracing is off): the shard worker
    /// emits a kShardExec span under `parent_span` on lane `lane`.
    TraceContext trace;
    uint64_t parent_span = 0;
    int32_t shard = 0;
    int32_t lane = 0;
  };

  void ShardWorkerLoop();

  /// Per-group tally of the scatter/execute/merge pipeline.
  struct GroupOutcome {
    int64_t executed = 0;  ///< Queries whose merged response is OK.
    int64_t failed = 0;    ///< Plan, partial, or merge failures.
    Duration scatter;      ///< Plan + fan-out.
    Duration execute;      ///< Fan-out done -> last partial done.
    Duration merge;        ///< Partial-combine wall time.
    Duration shard_exec_mean;  ///< Mean partial wall time (capacity feed).
  };

  /// Runs one admitted group through the sharded pipeline, emitting
  /// scatter/shard/merge spans under `trace`'s root when enabled. Called
  /// by a group worker outside the server lock. When `capture` is
  /// non-null it is resized to the group size and each query's merged
  /// result lands in its submission-order slot (failures stay empty) —
  /// the completion-callback result path.
  GroupOutcome ExecuteGroupSharded(
      const std::vector<Query>& queries, const TraceContext& trace,
      std::vector<std::optional<QueryResultData>>* capture);

  /// Scatters, executes, and merges a single query on the sharded
  /// backend, returning the merged response: the shared cache's miss path
  /// over `sharded_`. Per-shard spans parent under `parent_span_id`.
  /// Called outside every lock (the shard pool has its own).
  Result<QueryResponse> ExecuteOneSharded(const Query& query,
                                          const TraceContext& trace,
                                          uint64_t parent_span_id);

  /// The unsharded miss path (the shared cache's backend and the
  /// cacheless worker path). On a multi-worker server a histogram of two
  /// or more morsels is posted for idle workers to join while this thread
  /// scans too (docs/serve.md); everything else runs on `engine_`
  /// directly. Called outside every lock.
  Result<QueryResponse> ExecuteUnsharded(const Query& query);

  /// The incremental answer to `queries` from session `s`'s drag base
  /// (`Engine::ExecuteHistogramDrag`), counted in the drag counters, or
  /// nullopt when it does not apply. Unsharded backends only. Called
  /// outside every lock by the worker holding `s`'s busy flag.
  std::optional<std::vector<QueryResponse>> AnswerDrag(
      ServeSession* s, const std::vector<Query>& queries);

  /// A histogram scan posted on the board: lives on its owner's stack
  /// until the owner has unposted it and every helper has finished.
  struct PostedScan {
    const HistogramScan* scan = nullptr;
    // Guarded by mu_.
    std::vector<HistogramPartial> partials;  ///< Helpers' partials.
    int joined = 0;                          ///< Helpers that joined.
    int finished = 0;                        ///< Helpers done.
    std::condition_variable done_cv;         ///< Signals `finished`.
  };

  /// Joins one posted scan with unclaimed morsels, if any: runs its steal
  /// loop outside `*lock` and hands the partial to the owner. Returns
  /// false when no scan needs help. Caller holds `*lock` (on `mu_`).
  bool HelpPostedScan(std::unique_lock<std::mutex>* lock);

  /// Emits the instant kAdmission span for a submission and, when the
  /// verdict is terminal (shed or rejected at the door), closes the root
  /// group span too. No-op when tracing is off.
  void TraceAdmission(const TraceContext& trace, const SubmitOutcome& out,
                      SimTime now, int64_t queue_depth);

  /// Wall-clock time since server start, as a `SimTime` so the metric
  /// stack's types apply to live timestamps too.
  SimTime Now() const;
  std::chrono::steady_clock::time_point ToSteady(SimTime t) const;

  /// Picks the next dispatchable session (round-robin, honoring per
  /// -session serialization and debounce quiet periods). Returns null if
  /// nothing is runnable; `*deadline` is set when work becomes runnable
  /// at a known future time. Caller holds `mu_`.
  ServeSession* PickSession(SimTime now, SimTime* deadline,
                            bool* has_deadline);

  /// Pops the next group of `session` per the effective policy, shedding
  /// stale ones with accounting. Caller holds `mu_`.
  PendingGroup PopGroup(ServeSession* session);

  /// Stats-poller observer (runs on the poller thread, no server lock
  /// held): feeds the fresh sample to the SLO engine, publishes the
  /// critical verdict (and forwards it to the admission controller when
  /// `slo_admission` is on), and captures one flight-recorder bundle on
  /// each ok/warn→critical transition.
  void ObserveSample(const StatsSample& sample);

  /// Shared bundle-capture body (poller transitions and on-demand).
  int64_t CaptureBundle(const std::string& reason, double t_s);

  const Engine* engine_;            ///< Unsharded backend (or null).
  const ShardedEngine* sharded_;    ///< Sharded backend (or null).
  ServerOptions options_;
  std::chrono::steady_clock::time_point epoch_;

  std::mutex mu_;
  std::condition_variable work_cv_;   ///< Workers wait for runnable work.
  std::condition_variable idle_cv_;   ///< Drain waits for quiescence.
  SessionManager sessions_;           ///< Guarded by mu_.
  AdmissionController controller_;    ///< Guarded by mu_.
  AdmissionPolicy effective_policy_;  ///< Guarded by mu_.
  size_t rr_cursor_ = 0;              ///< Round-robin start. Guarded by mu_.
  int64_t in_flight_ = 0;             ///< Groups being executed right now.
  bool stop_ = false;
  /// The board of scans idle workers may join, and the number of workers
  /// parked on `work_cv_`. Guarded by mu_.
  std::vector<PostedScan*> posted_scans_;
  int parked_workers_ = 0;

  /// Registry handles for the hot-path sites. All null when
  /// `enable_metrics` is off, so each site costs one branch; when on,
  /// each increment is one relaxed atomic — no lock is ever taken on the
  /// serve path for metrics.
  struct HotMetrics {
    Counter* submitted = nullptr;
    Counter* admitted = nullptr;
    Counter* executed = nullptr;
    Counter* shed_stale = nullptr;
    Counter* shed_coalesced = nullptr;
    Counter* shed_throttled = nullptr;
    Counter* rejected = nullptr;
    Counter* queries_executed = nullptr;
    Counter* queries_failed = nullptr;
    Counter* cache_hits = nullptr;
    Counter* lcv_violations = nullptr;
    Histogram* latency_ms = nullptr;
    Histogram* service_ms = nullptr;
    // Morsel family (docs/kernels.md) — zero on single-worker and
    // sharded servers, same stable-schema discipline.
    Counter* morsel_morsels = nullptr;
    Counter* morsel_queries = nullptr;
  };
  /// Gauges refreshed from every `Snapshot()` (so a scrape after a
  /// snapshot — or the poller's periodic one — sees current values).
  struct GaugeMetrics {
    Gauge* qif_qps = nullptr;
    Gauge* throughput_window_qps = nullptr;
    Gauge* queue_depth = nullptr;
    Gauge* lcv_fraction = nullptr;
    Gauge* load_factor = nullptr;
    Gauge* sessions_open = nullptr;
    Gauge* cache_hit_rate = nullptr;
    Gauge* trace_dropped = nullptr;
    /// Static after construction: the backend's resolved kernel ISA as
    /// `KernelIsaLevel` (0 scalar, 1 sse4.2, 2 avx2).
    Gauge* kernel_isa_level = nullptr;
  };

  /// Registers the serve metric family into `mreg_`. Constructor-only.
  void RegisterMetrics();
  /// Pushes `snap`'s instantaneous values into the gauges.
  void UpdateGauges(const ServerStatsSnapshot& snap);

  OnlineMetrics metrics_;  ///< Internally synchronized.
  MetricsRegistry* mreg_ = nullptr;  ///< Null when metrics are off.
  HotMetrics hot_;
  GaugeMetrics gauges_;
  /// Poller state (null unless `stats_poll_ms` > 0). The poller thread
  /// is the only `SampleStats` caller while running; `poll_prev_` is its
  /// private delta baseline.
  std::unique_ptr<TimeSeriesRing> timeseries_;
  std::unique_ptr<StatsPoller> poller_;
  StatsSample poll_prev_;
  /// SLO evaluation + black-box capture (both null unless `enable_slo`).
  /// Both internally synchronized; `slo_critical_` mirrors the engine's
  /// verdict for lock-free reads on the health path, and `stopping_`
  /// flips at the top of `Stop` (the health check's draining signal).
  std::unique_ptr<SloEngine> slo_;
  std::unique_ptr<FlightRecorder> flight_;
  std::atomic<bool> slo_critical_{false};
  std::atomic<bool> stopping_{false};
  /// Shared cache above the backend (null unless enabled) and the backend
  /// callable its misses execute. Both internally synchronized.
  std::unique_ptr<ResultCache> result_cache_;
  ResultCache::TracedBackend cache_backend_;
  /// Tracing backend (null unless `enable_tracing`) and slow-query log
  /// (null unless `slow_query_ms >= 0`). Both internally synchronized.
  std::unique_ptr<TraceBuffer> trace_;
  std::unique_ptr<SlowQueryLog> slow_log_;
  std::vector<std::thread> workers_;

  /// Morsels claimed by helpers of posted scans, and scans posted.
  /// Relaxed atomics read by `Snapshot` — no ordering against anything.
  std::atomic<int64_t> morsels_executed_{0};
  std::atomic<int64_t> morsel_queries_{0};

  /// Groups answered by `AnswerDrag` and the rows their sweeps visited:
  /// the registry's `ideval_drag_*_total` counters when metrics are on,
  /// the server's own otherwise. One store each; `Snapshot` reads it.
  Counter own_drag_groups_{"ideval_drag_groups_total"};
  Counter own_drag_rows_swept_{"ideval_drag_rows_swept_total"};
  Counter* drag_groups_ = &own_drag_groups_;
  Counter* drag_rows_swept_ = &own_drag_rows_swept_;

  // --- Shard-executor pool (sharded servers only). ---
  std::mutex shard_mu_;
  std::condition_variable shard_cv_;
  std::deque<ShardTask> shard_queue_;  ///< Guarded by shard_mu_.
  bool shard_stop_ = false;            ///< Guarded by shard_mu_.
  std::vector<std::thread> shard_threads_;
};

}  // namespace ideval

#endif  // IDEVAL_SERVE_SERVER_H_
