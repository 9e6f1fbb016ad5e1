#ifndef IDEVAL_HARNESS_BENCHMARK_RUNNER_H_
#define IDEVAL_HARNESS_BENCHMARK_RUNNER_H_

#include <optional>
#include <string>

#include "common/result.h"
#include "common/sim_time.h"
#include "common/stats.h"
#include "device/device_model.h"
#include "engine/engine.h"
#include "metrics/frontend_metrics.h"
#include "prefetch/scroll_loader.h"
#include "serve/admission.h"
#include "sim/query_scheduler.h"

namespace ideval {

/// Which query interface the benchmark drives (§2.1: each device-interface
/// combination generates a unique workload, so it is a first-class axis).
enum class InterfaceKind {
  kInertialScroll,
  kCrossfilter,
  kCompositeExplore,
};

const char* InterfaceKindToString(InterfaceKind kind);

/// A declarative benchmark specification, in the spirit of the IDEBench
/// effort the paper discusses (§4.1.3, §9): a complete interactive
/// workload — dataset, interface, device, users, backend, optimizations —
/// described as data, so that runs are comparable and shareable.
///
/// Specs serialize to/from a `key = value` text format (see
/// `ParseWorkloadSpec` / `WorkloadSpecToText`) so they can live in files
/// next to results.
struct WorkloadSpec {
  std::string name = "workload";
  InterfaceKind interface_kind = InterfaceKind::kCrossfilter;
  DeviceType device = DeviceType::kMouse;
  EngineProfile engine = EngineProfile::kInMemoryColumnStore;
  int num_users = 3;
  uint64_t seed = 1;
  /// Dataset rows; 0 = the case study's published size.
  int64_t rows = 0;

  // --- Optimization knobs (all off by default). ---
  /// KL suppression threshold; negative = disabled (§7.1, Algorithm 2).
  double kl_threshold = -1.0;
  /// Minimum issue interval; zero = no throttling (§3.1.2).
  Duration throttle_interval;
  /// Backend queue policy (§7.1, Algorithm 1).
  SchedulingPolicy policy = SchedulingPolicy::kFifo;
  int num_connections = 2;

  // --- Interface-specific knobs. ---
  /// Crossfilter: slider adjustments per user.
  int crossfilter_moves = 15;
  /// Scroll: loading strategy and fetch size (§6.2).
  ScrollLoadStrategy scroll_strategy = ScrollLoadStrategy::kTimerFetch;
  int64_t scroll_tuples_per_fetch = 58;
  /// Composite: session length in minutes (§8's study required >= 20).
  double explore_session_minutes = 20.0;

  // --- Live-server knobs (src/serve/). ---
  /// Worker threads for the live `QueryServer`; 0 = replay on the
  /// simulated scheduler instead (the default, fully deterministic mode).
  int serve_threads = 0;
  /// Concurrent client threads in live mode; 0 = one per user.
  int serve_clients = 0;
  /// Bounded per-session queue depth in live mode.
  int serve_queue_cap = 8;
  /// Live admission policy (§7.1 drain policies + §3.1.2 shapers).
  AdmissionPolicy admission = AdmissionPolicy::kFifo;
  /// Let the admission controller switch to shedding under overload.
  bool adaptive_admission = false;
  /// Shared cross-session result cache in live mode
  /// (`ServerOptions::enable_shared_cache`): one invalidation-aware LRU
  /// above the backend with single-flight coalescing. Works with any
  /// `serve_shards`.
  bool serve_shared_cache = false;
  /// Engine shards behind the live server; > 1 range-partitions the
  /// workload table across that many `Engine` instances and every group
  /// goes through the scatter/execute/merge pipeline.
  int serve_shards = 1;
  /// Trace replay speed-up for the live load driver (>= 1 recommended).
  double time_compression = 50.0;
  /// Per-query tracing in live mode (`ServerOptions::enable_tracing`):
  /// every group records admission/queue/cache/shard/merge spans into the
  /// server's ring buffer. Off by default — the hot path stays span-free.
  bool serve_trace = false;
  /// Ring-buffer capacity (spans) when `serve_trace` is on.
  int64_t serve_trace_buffer_spans = 1 << 16;
  /// Slow-query log threshold in milliseconds; negative = log disabled.
  /// LCV-violating groups are logged regardless of latency.
  double serve_slow_query_ms = -1.0;
  /// Registry-backed serve metrics (`ServerOptions::enable_metrics`):
  /// terminal counters and latency histograms scrapeable as Prometheus
  /// text / JSON. Off by default.
  bool serve_metrics = false;
  /// Stats-poller period in milliseconds (`ServerOptions::
  /// stats_poll_ms`); <= 0 disables the background time-series sampler.
  double serve_stats_poll_ms = 0.0;
  /// Drive live mode over loopback TCP through the `src/net/` socket
  /// front-end instead of in-process submission: clients become real
  /// `NetClient` connections and every group crosses the wire.
  bool serve_net = false;
  /// Port for `serve_net` (1..65535); 0 picks an ephemeral port.
  int serve_net_port = 0;
  /// Declarative SLOs over the stats-poller samples
  /// (`ServerOptions::enable_slo`, docs/observability.md): multi-window
  /// multi-burn-rate evaluation plus the flight recorder. Requires
  /// `serve_stats_poll_ms > 0`.
  bool serve_slo = false;
  /// LCV-violation error budget for the always-on LCV SLO (fraction of
  /// executed groups allowed to miss their budget).
  double serve_slo_lcv_target = 0.1;
  /// p90 latency deadline in milliseconds; > 0 adds a latency SLO.
  double serve_slo_latency_p90_ms = 0.0;
  /// Shed+reject error budget; > 0 adds a shed-rate SLO.
  double serve_slo_shed_target = 0.0;
  /// Multiplier over the default SRE windows (5s/1m fast, 1m/5m slow)
  /// and the clear hold — compressed runs shrink it below 1 so an SLO
  /// episode fits inside a benchmark.
  double serve_slo_window_scale = 1.0;
  /// Feed the critical bit into the admission controller
  /// (`ServerOptions::slo_admission`).
  bool serve_slo_admission = false;

  // --- Engine knobs (simulated and live modes). ---
  /// Build zone maps at registration and prune scan blocks whose min/max
  /// range cannot match (`EngineOptions::enable_zone_maps`). Results are
  /// bitwise identical; only the work (and modelled time) shrinks.
  bool engine_zone_maps = false;
};

/// Parses the `key = value` format (one pair per line; '#' comments and
/// blank lines ignored). Unknown keys and malformed values are errors —
/// a benchmark spec that silently ignores options is not a benchmark.
Result<WorkloadSpec> ParseWorkloadSpec(const std::string& text);

/// Serializes a spec to the same format (round-trips through the parser).
std::string WorkloadSpecToText(const WorkloadSpec& spec);

/// Aggregate results of one benchmark run: the paper's system-factor
/// battery plus interface-specific extras.
struct WorkloadReport {
  WorkloadSpec spec;

  // Workload shape.
  int64_t interaction_events = 0;  ///< Device/widget events generated.
  int64_t queries_generated = 0;   ///< Queries the interface produced.
  int64_t queries_executed = 0;    ///< After suppression/skip.
  int64_t queries_suppressed = 0;  ///< Dropped client-side (KL/throttle).
  int64_t groups_skipped = 0;      ///< Shed by the backend (skip policy).
  int64_t groups_rejected = 0;     ///< Pushed back (live-server mode).

  // System factors.
  double qif = 0.0;                 ///< Queries/second issued.
  double lcv_fraction = 0.0;        ///< §7.2 definition (crossfilter) or
                                    ///< stall-episode fraction (scroll).
  double median_latency_ms = 0.0;   ///< Perceived, executed queries.
  double p90_latency_ms = 0.0;
  double max_latency_ms = 0.0;
  double throughput_qps = 0.0;

  /// Scroll-only extras.
  std::optional<double> mean_stall_ms;
  std::optional<int64_t> stalls;

  /// Human factors (aggregated over users).
  double mean_session_s = 0.0;
  double mean_interactions_per_user = 0.0;

  /// Renders the report as an aligned text block.
  std::string ToText() const;
};

/// Materializes the spec — builds the dataset, simulates the users on the
/// device/interface, applies the client-side optimizations, replays the
/// workload against the backend — and measures the full metric battery.
/// Deterministic for a given spec when `serve_threads == 0` (simulated
/// scheduler). With `serve_threads > 0` the same trace-derived workload is
/// instead driven through the live multi-threaded `QueryServer` by
/// concurrent clients (crossfilter/explore interfaces only); timings are
/// then wall-clock and machine-dependent, trace generation stays seeded.
Result<WorkloadReport> RunWorkload(const WorkloadSpec& spec);

}  // namespace ideval

#endif  // IDEVAL_HARNESS_BENCHMARK_RUNNER_H_
