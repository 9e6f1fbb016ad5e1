#include "serve/server.h"

#include <algorithm>
#include <utility>

#include "common/build_info.h"
#include "common/text_table.h"

namespace ideval {

const char* SubmitDispositionToString(SubmitDisposition d) {
  switch (d) {
    case SubmitDisposition::kEnqueued:
      return "enqueued";
    case SubmitDisposition::kCoalesced:
      return "coalesced";
    case SubmitDisposition::kThrottled:
      return "throttled";
    case SubmitDisposition::kRejected:
      return "rejected";
  }
  return "unknown";
}

Status QueryServer::ValidateOptions(const ServerOptions& options) {
  if (options.num_workers < 1) {
    return Status::InvalidArgument(
        StrFormat("num_workers must be >= 1, got %d", options.num_workers));
  }
  if (options.max_queue_per_session < 1) {
    return Status::InvalidArgument(
        StrFormat("max_queue_per_session must be >= 1, got %d",
                  options.max_queue_per_session));
  }
  if (options.throttle_min_interval < Duration::Zero()) {
    return Status::InvalidArgument("throttle_min_interval must be >= 0");
  }
  if (options.debounce_quiet < Duration::Zero()) {
    return Status::InvalidArgument("debounce_quiet must be >= 0");
  }
  if (options.admission.window <= Duration::Zero()) {
    return Status::InvalidArgument("admission window must be > 0");
  }
  if (options.enable_shared_cache && options.shared_cache_bytes < 1) {
    return Status::InvalidArgument("shared_cache_bytes must be >= 1");
  }
  if (options.enable_shared_cache && options.shared_cache_shards < 1) {
    return Status::InvalidArgument("shared_cache_shards must be >= 1");
  }
  if (options.shard_workers < 0) {
    return Status::InvalidArgument(
        StrFormat("shard_workers must be >= 0, got %d",
                  options.shard_workers));
  }
  if (options.enable_tracing && options.trace_buffer_spans < 1) {
    return Status::InvalidArgument(
        StrFormat("trace_buffer_spans must be >= 1, got %lld",
                  static_cast<long long>(options.trace_buffer_spans)));
  }
  if (options.stats_poll_ms > 0.0 && options.stats_ring_samples < 1) {
    return Status::InvalidArgument(
        StrFormat("stats_ring_samples must be >= 1, got %lld",
                  static_cast<long long>(options.stats_ring_samples)));
  }
  if (options.enable_slo) {
    if (options.stats_poll_ms <= 0.0) {
      return Status::InvalidArgument(
          "enable_slo requires stats_poll_ms > 0 (SLO evaluation rides "
          "the stats poller)");
    }
    if (!(options.slo_lcv_target > 0.0 && options.slo_lcv_target < 1.0)) {
      return Status::InvalidArgument("slo_lcv_target must lie in (0, 1)");
    }
    if (options.slo_shed_target >= 1.0) {
      return Status::InvalidArgument("slo_shed_target must be < 1");
    }
    if (options.slo_fast_window_s <= 0.0 ||
        options.slo_fast_confirm_window_s <= 0.0 ||
        options.slo_slow_window_s <= 0.0 ||
        options.slo_slow_confirm_window_s <= 0.0) {
      return Status::InvalidArgument("SLO windows must all be > 0");
    }
    if (options.slo_critical_burn <= 0.0 || options.slo_warn_burn <= 0.0) {
      return Status::InvalidArgument("SLO burn thresholds must be > 0");
    }
    if (options.slo_clear_hold_s < 0.0) {
      return Status::InvalidArgument("slo_clear_hold_s must be >= 0");
    }
    if (options.slo_flight_bundles < 1) {
      return Status::InvalidArgument("slo_flight_bundles must be >= 1");
    }
  }
  return Status::OK();
}

Result<std::unique_ptr<QueryServer>> QueryServer::Create(
    const Engine* engine, ServerOptions options) {
  if (engine == nullptr) {
    return Status::InvalidArgument("QueryServer needs an engine");
  }
  IDEVAL_RETURN_NOT_OK(ValidateOptions(options));
  auto server = std::unique_ptr<QueryServer>(
      new QueryServer(engine, /*sharded=*/nullptr, std::move(options)));
  server->workers_.reserve(
      static_cast<size_t>(server->options_.num_workers));
  for (int i = 0; i < server->options_.num_workers; ++i) {
    server->workers_.emplace_back([s = server.get()] { s->WorkerLoop(); });
  }
  // The poller starts last, once the server is fully serveable.
  if (server->poller_ != nullptr) server->poller_->Start();
  return server;
}

Result<std::unique_ptr<QueryServer>> QueryServer::Create(
    const ShardedEngine* sharded, ServerOptions options) {
  if (sharded == nullptr) {
    return Status::InvalidArgument("QueryServer needs a sharded engine");
  }
  IDEVAL_RETURN_NOT_OK(ValidateOptions(options));
  auto server = std::unique_ptr<QueryServer>(
      new QueryServer(/*engine=*/nullptr, sharded, std::move(options)));
  const int shard_pool = server->options_.shard_workers > 0
                             ? server->options_.shard_workers
                             : sharded->num_shards();
  server->shard_threads_.reserve(static_cast<size_t>(shard_pool));
  for (int i = 0; i < shard_pool; ++i) {
    server->shard_threads_.emplace_back(
        [s = server.get()] { s->ShardWorkerLoop(); });
  }
  server->workers_.reserve(
      static_cast<size_t>(server->options_.num_workers));
  for (int i = 0; i < server->options_.num_workers; ++i) {
    server->workers_.emplace_back([s = server.get()] { s->WorkerLoop(); });
  }
  if (server->poller_ != nullptr) server->poller_->Start();
  return server;
}

QueryServer::QueryServer(const Engine* engine, const ShardedEngine* sharded,
                         ServerOptions options)
    : engine_(engine),
      sharded_(sharded),
      options_(std::move(options)),
      epoch_(std::chrono::steady_clock::now()),
      controller_(sharded == nullptr
                      ? AdmissionController(options_.num_workers,
                                            options_.admission)
                      : AdmissionController(
                            options_.num_workers, sharded->num_shards(),
                            options_.shard_workers > 0
                                ? options_.shard_workers
                                : sharded->num_shards(),
                            options_.admission)),
      effective_policy_(options_.policy),
      metrics_(options_.admission.window) {
  if (options_.enable_shared_cache) {
    ResultCacheOptions copts;
    copts.byte_budget = options_.shared_cache_bytes;
    copts.num_shards = options_.shared_cache_shards;
    result_cache_ = std::make_unique<ResultCache>(copts);
    cache_backend_ =
        sharded_ != nullptr
            ? ResultCache::TracedBackend(
                  [this](const Query& q, const TraceContext& trace,
                         uint64_t parent) {
                    return ExecuteOneSharded(q, trace, parent);
                  })
            : ResultCache::TracedBackend(
                  [this](const Query& q, const TraceContext&, uint64_t) {
                    return ExecuteUnsharded(q);
                  });
  }
  if (options_.enable_tracing) {
    TraceOptions topts;
    topts.capacity_spans = options_.trace_buffer_spans;
    trace_ = std::make_unique<TraceBuffer>(topts);
    // Share the server's epoch so span timestamps line up with `Now()`.
    trace_->set_epoch(epoch_);
  }
  if (options_.slow_query_ms >= 0.0) {
    SlowQueryLogOptions sopts;
    sopts.threshold = Duration::MillisF(options_.slow_query_ms);
    slow_log_ = std::make_unique<SlowQueryLog>(sopts);
  }
  if (options_.enable_metrics) {
    mreg_ = options_.metrics_registry != nullptr
                ? options_.metrics_registry
                : &MetricsRegistry::Global();
    RegisterMetrics();
  }
  if (options_.enable_slo) {
    SloEngineOptions so;
    const auto apply_windows = [this](SloSpec* spec) {
      spec->fast_window_s = options_.slo_fast_window_s;
      spec->fast_confirm_window_s = options_.slo_fast_confirm_window_s;
      spec->slow_window_s = options_.slo_slow_window_s;
      spec->slow_confirm_window_s = options_.slo_slow_confirm_window_s;
      spec->critical_burn = options_.slo_critical_burn;
      spec->warn_burn = options_.slo_warn_burn;
      spec->clear_hold_s = options_.slo_clear_hold_s;
    };
    SloSpec lcv;
    lcv.name = "lcv";
    lcv.objective = SloObjective::kLcvFraction;
    lcv.target = options_.slo_lcv_target;
    apply_windows(&lcv);
    so.slos.push_back(lcv);
    if (options_.slo_latency_p90_ms > 0.0) {
      SloSpec lat;
      lat.name = "latency_p90";
      lat.objective = SloObjective::kLatencyDeadline;
      lat.target = 0.1;  // 10% of active polls may miss the deadline.
      lat.latency_deadline_ms = options_.slo_latency_p90_ms;
      apply_windows(&lat);
      so.slos.push_back(lat);
    }
    if (options_.slo_shed_target > 0.0) {
      SloSpec shed;
      shed.name = "shed_rate";
      shed.objective = SloObjective::kShedRate;
      shed.target = options_.slo_shed_target;
      apply_windows(&shed);
      so.slos.push_back(shed);
    }
    slo_ = std::make_unique<SloEngine>(so, mreg_);
    FlightRecorderOptions fopts;
    fopts.max_bundles = options_.slo_flight_bundles;
    flight_ = std::make_unique<FlightRecorder>(fopts, mreg_);
  }
  if (options_.stats_poll_ms > 0.0) {
    timeseries_ =
        std::make_unique<TimeSeriesRing>(options_.stats_ring_samples);
    poller_ = std::make_unique<StatsPoller>(
        Duration::MillisF(options_.stats_poll_ms),
        [this] { return SampleStats(); }, timeseries_.get(),
        slo_ != nullptr ? std::function<void(const StatsSample&)>(
                              [this](const StatsSample& sample) {
                                ObserveSample(sample);
                              })
                        : nullptr);
  }
}

void QueryServer::RegisterMetrics() {
  hot_.submitted = mreg_->RegisterCounter(
      "ideval_serve_groups_submitted_total",
      "Query groups submitted (admitted or not)");
  hot_.admitted = mreg_->RegisterCounter(
      "ideval_serve_groups_admitted_total",
      "Query groups past the admission door into a session queue");
  hot_.executed = mreg_->RegisterCounter(
      "ideval_serve_groups_executed_total",
      "Query groups that ran to completion");
  hot_.shed_stale = mreg_->RegisterCounter(
      "ideval_serve_groups_shed_stale_total",
      "Groups shed as stale (skip-stale dispatch or overflow)");
  hot_.shed_coalesced = mreg_->RegisterCounter(
      "ideval_serve_groups_shed_coalesced_total",
      "Groups superseded by a newer debounced submission");
  hot_.shed_throttled = mreg_->RegisterCounter(
      "ideval_serve_groups_shed_throttled_total",
      "Groups shed at the door by the throttle policy");
  hot_.rejected = mreg_->RegisterCounter(
      "ideval_serve_groups_rejected_total",
      "Groups pushed back (queue full or hard overload)");
  hot_.queries_executed = mreg_->RegisterCounter(
      "ideval_serve_queries_executed_total",
      "Successful queries inside executed groups");
  hot_.queries_failed = mreg_->RegisterCounter(
      "ideval_serve_queries_failed_total",
      "Failed queries inside executed groups");
  hot_.cache_hits = mreg_->RegisterCounter(
      "ideval_serve_cache_hits_total",
      "Queries answered by the shared result cache");
  hot_.lcv_violations = mreg_->RegisterCounter(
      "ideval_serve_lcv_violations_total",
      "Executed groups that finished after a newer submission (LCV)");
  hot_.latency_ms = mreg_->RegisterHistogram(
      "ideval_serve_group_latency_ms",
      "Perceived latency of executed groups, submit to done (ms)");
  hot_.service_ms = mreg_->RegisterHistogram(
      "ideval_serve_group_service_ms",
      "Backend busy time of executed groups, dispatch to done (ms)");
  hot_.morsel_morsels = mreg_->RegisterCounter(
      "ideval_morsel_morsels_total",
      "Morsels of posted histogram scans claimed by helping workers");
  hot_.morsel_queries = mreg_->RegisterCounter(
      "ideval_morsel_queries_total",
      "Histogram scans posted for idle workers to join");
  if (Counter* c = mreg_->RegisterCounter(
          "ideval_drag_groups_total",
          "Histogram groups answered from the session's previous group")) {
    drag_groups_ = c;
  }
  if (Counter* c = mreg_->RegisterCounter(
          "ideval_drag_rows_swept_total",
          "Rows the drag answers swept instead of scanning")) {
    drag_rows_swept_ = c;
  }
  gauges_.qif_qps = mreg_->RegisterGauge(
      "ideval_serve_qif_qps", "Offered load over the sliding window");
  gauges_.throughput_window_qps = mreg_->RegisterGauge(
      "ideval_serve_throughput_window_qps",
      "Executed queries per second over the sliding window");
  gauges_.queue_depth = mreg_->RegisterGauge(
      "ideval_serve_queue_depth", "Groups pending across all sessions");
  gauges_.lcv_fraction = mreg_->RegisterGauge(
      "ideval_serve_lcv_fraction", "LCV violations / executed groups");
  gauges_.load_factor = mreg_->RegisterGauge(
      "ideval_serve_load_factor", "Offered / capacity (Fig. 3 ratio)");
  gauges_.sessions_open = mreg_->RegisterGauge(
      "ideval_serve_sessions_open", "Currently open sessions");
  gauges_.cache_hit_rate = mreg_->RegisterGauge(
      "ideval_serve_cache_hit_rate",
      "Shared result cache hit rate (-1 when the cache is off)");
  gauges_.trace_dropped = mreg_->RegisterGauge(
      "ideval_serve_trace_dropped",
      "Spans overwritten in the trace ring (0 when tracing is off)");
  gauges_.kernel_isa_level = mreg_->RegisterGauge(
      "ideval_kernel_isa_level",
      "Resolved SIMD kernel ISA (0 scalar, 1 sse4.2, 2 avx2, 3 avx512)");
  gauges_.kernel_isa_level->Set(static_cast<double>(KernelIsaLevel(
      engine_ != nullptr ? engine_->kernel_isa() : sharded_->kernel_isa())));
  // Build identity (docs/metrics.md): the registry is label-less, so the
  // identity rides the help string and the value is the constant 1 —
  // scrapers read the HELP line, dashboards can still join on presence.
  Gauge* build_info = mreg_->RegisterGauge(
      "ideval_build_info",
      "Build identity (constant 1): " + BuildInfoText() + " isa=" +
          KernelIsaToString(engine_ != nullptr ? engine_->kernel_isa()
                                               : sharded_->kernel_isa()));
  build_info->Set(1.0);
}

void QueryServer::UpdateGauges(const ServerStatsSnapshot& snap) {
  if (gauges_.qif_qps == nullptr) return;
  gauges_.qif_qps->Set(snap.qif_qps);
  gauges_.throughput_window_qps->Set(snap.throughput_window_qps);
  gauges_.queue_depth->Set(static_cast<double>(snap.groups_queued));
  gauges_.lcv_fraction->Set(snap.lcv_fraction);
  gauges_.load_factor->Set(snap.load.load_factor);
  gauges_.sessions_open->Set(static_cast<double>(snap.sessions_open));
  gauges_.cache_hit_rate->Set(
      snap.result_cache_enabled ? snap.result_cache.HitRate() : -1.0);
  gauges_.trace_dropped->Set(
      snap.tracing_enabled ? static_cast<double>(snap.trace_buffer.dropped)
                           : 0.0);
}

QueryServer::~QueryServer() { Stop(); }

SimTime QueryServer::Now() const {
  const auto elapsed = std::chrono::steady_clock::now() - epoch_;
  return SimTime::FromMicros(
      std::chrono::duration_cast<std::chrono::microseconds>(elapsed)
          .count());
}

std::chrono::steady_clock::time_point QueryServer::ToSteady(SimTime t) const {
  return epoch_ + std::chrono::microseconds(t.micros());
}

uint64_t QueryServer::OpenSession() {
  std::lock_guard<std::mutex> lock(mu_);
  return sessions_.Open(options_.admission.window)->id();
}

Status QueryServer::CloseSession(uint64_t session_id) {
  std::lock_guard<std::mutex> lock(mu_);
  ServeSession* s = sessions_.Get(session_id);
  if (s == nullptr) {
    return Status::NotFound(
        StrFormat("no session %llu",
                  static_cast<unsigned long long>(session_id)));
  }
  s->set_closed(true);
  return Status::OK();
}

void QueryServer::TraceAdmission(const TraceContext& trace,
                                 const SubmitOutcome& out, SimTime now,
                                 int64_t queue_depth) {
  if (!trace.enabled()) return;
  RecordSpan(trace, SpanKind::kAdmission, trace.buffer->NewSpanId(),
             trace.root_span_id, now.micros(), now.micros(),
             static_cast<uint32_t>(out.disposition),
             static_cast<int64_t>(out.load.state), queue_depth,
             static_cast<int64_t>(out.load.load_factor * 1000.0));
  // A door shed is the group's terminal state: close the root span too.
  if (out.disposition == SubmitDisposition::kThrottled ||
      out.disposition == SubmitDisposition::kRejected) {
    const GroupTerminal terminal =
        out.disposition == SubmitDisposition::kThrottled
            ? GroupTerminal::kShedThrottled
            : GroupTerminal::kRejected;
    RecordSpan(trace, SpanKind::kGroup, trace.root_span_id,
               /*parent_span_id=*/0, now.micros(), now.micros(),
               static_cast<uint32_t>(terminal));
  }
}

namespace {

/// Builds the terminal report for a group shed after admission and hands
/// it to the group's callback, if any. Caller holds the server lock (the
/// callback contract, see `GroupCompletionFn`).
void NotifyShed(PendingGroup* group, uint64_t session_id,
                GroupTerminal terminal, SimTime now) {
  if (!group->on_complete) return;
  GroupCompletion done;
  done.session_id = session_id;
  done.seq = group->seq;
  done.trace_id = group->trace.trace_id;
  done.root_span_id = group->trace.root_span_id;
  done.terminal = terminal;
  done.latency = now - group->submit_time;
  group->on_complete(std::move(done));
  group->on_complete = nullptr;
}

/// Collects an executed group's exact histogram counts as its queries
/// complete, so the group can become its session's drag base.
class DragBaseBuilder {
 public:
  /// Notes one query's answer; null for a failed query.
  void Add(const QueryResultData* data) {
    const auto* h = data != nullptr ? std::get_if<FixedHistogram>(data)
                                    : nullptr;
    if (h == nullptr) {
      histograms_ = false;
    } else if (histograms_) {
      counts_.emplace_back(h->counts().begin(), h->counts().end());
    }
  }

  /// Makes `*queries` and the collected counts the new `*base` if every
  /// answer was a histogram, and empties `*base` otherwise.
  void Finish(std::vector<Query>* queries, HistogramGroupCounts* base) {
    base->queries.clear();
    base->counts.clear();
    if (!histograms_) return;
    for (Query& q : *queries) {
      base->queries.push_back(std::move(std::get<HistogramQuery>(q)));
    }
    base->counts = std::move(counts_);
  }

 private:
  bool histograms_ = true;
  std::vector<std::vector<int64_t>> counts_;
};

}  // namespace

Result<SubmitOutcome> QueryServer::Submit(uint64_t session_id,
                                          std::vector<Query> queries) {
  return Submit(session_id, std::move(queries), nullptr);
}

Result<SubmitOutcome> QueryServer::Submit(uint64_t session_id,
                                          std::vector<Query> queries,
                                          GroupCompletionFn on_complete) {
  return Submit(session_id, std::move(queries), std::move(on_complete),
                /*adopted_trace_id=*/0);
}

Result<SubmitOutcome> QueryServer::Submit(uint64_t session_id,
                                          std::vector<Query> queries,
                                          GroupCompletionFn on_complete,
                                          uint64_t adopted_trace_id,
                                          bool capture_results) {
  if (queries.empty()) {
    return Status::InvalidArgument("Submit: empty query group");
  }
  const SimTime now = Now();
  metrics_.RecordSubmit(now);

  std::lock_guard<std::mutex> lock(mu_);
  ServeSession* s = sessions_.Get(session_id);
  if (s == nullptr) {
    return Status::NotFound(
        StrFormat("no session %llu",
                  static_cast<unsigned long long>(session_id)));
  }
  if (s->closed()) {
    return Status::FailedPrecondition(
        StrFormat("session %llu is closed",
                  static_cast<unsigned long long>(session_id)));
  }

  SubmitOutcome out;
  out.seq = s->RecordSubmit(now);
  if (hot_.submitted != nullptr) hot_.submitted->Increment();
  controller_.OnSubmit(now);
  out.load = controller_.Assess(now);
  if (options_.adaptive_admission) {
    // Fig. 3 as a control loop: shed stale work while overwhelmed, go
    // back to the configured policy once execution catches up.
    effective_policy_ = out.load.state == LoadState::kOverloaded
                            ? AdmissionPolicy::kSkipStale
                            : options_.policy;
  }

  // The trace handle the group carries through its whole pipeline; a
  // disabled (null-buffer) context when tracing is off. A nonzero
  // adopted id (wire-level propagation) replaces the fresh trace id so
  // the pipeline spans join the client's trace.
  TraceContext trace = MakeTraceContext(trace_.get(), session_id);
  if (trace.enabled() && adopted_trace_id != 0) {
    trace.trace_id = adopted_trace_id;
  }

  if (out.load.reject) {
    ++s->counters().groups_rejected;
    if (hot_.rejected != nullptr) hot_.rejected->Increment();
    out.disposition = SubmitDisposition::kRejected;
    TraceAdmission(trace, out, now,
                   static_cast<int64_t>(s->queue().size()));
    return out;
  }

  SessionCounters& c = s->counters();
  const size_t cap = static_cast<size_t>(options_.max_queue_per_session);
  switch (effective_policy_) {
    case AdmissionPolicy::kThrottle:
      if (s->last_admitted().has_value() &&
          now - *s->last_admitted() < options_.throttle_min_interval) {
        ++c.groups_shed_throttled;
        if (hot_.shed_throttled != nullptr) hot_.shed_throttled->Increment();
        out.disposition = SubmitDisposition::kThrottled;
        TraceAdmission(trace, out, now,
                       static_cast<int64_t>(s->queue().size()));
        return out;
      }
      if (s->queue().size() >= cap) {
        ++c.groups_rejected;
        if (hot_.rejected != nullptr) hot_.rejected->Increment();
        out.disposition = SubmitDisposition::kRejected;
        TraceAdmission(trace, out, now,
                       static_cast<int64_t>(s->queue().size()));
        return out;
      }
      s->set_last_admitted(now);
      break;
    case AdmissionPolicy::kDebounce:
      // Newest-wins coalescing: anything still pending is superseded.
      if (!s->queue().empty()) {
        for (PendingGroup& old : s->queue()) {
          // Terminal state for the superseded groups: their root spans
          // close here, never having reached a worker.
          RecordSpan(old.trace, SpanKind::kGroup, old.trace.root_span_id,
                     /*parent_span_id=*/0, old.submit_time.micros(),
                     now.micros(),
                     static_cast<uint32_t>(GroupTerminal::kShedCoalesced));
          NotifyShed(&old, session_id, GroupTerminal::kShedCoalesced, now);
        }
        c.groups_shed_coalesced +=
            static_cast<int64_t>(s->queue().size());
        if (hot_.shed_coalesced != nullptr) {
          hot_.shed_coalesced->Increment(
              static_cast<int64_t>(s->queue().size()));
        }
        s->queue().clear();
        out.disposition = SubmitDisposition::kCoalesced;
      }
      break;
    case AdmissionPolicy::kFifo:
      if (s->queue().size() >= cap) {
        ++c.groups_rejected;
        if (hot_.rejected != nullptr) hot_.rejected->Increment();
        out.disposition = SubmitDisposition::kRejected;
        TraceAdmission(trace, out, now,
                       static_cast<int64_t>(s->queue().size()));
        return out;
      }
      break;
    case AdmissionPolicy::kSkipStale:
      if (s->queue().size() >= cap) {
        // Shed the stalest pending group instead of pushing back.
        PendingGroup& victim = s->queue().front();
        RecordSpan(victim.trace, SpanKind::kGroup,
                   victim.trace.root_span_id, /*parent_span_id=*/0,
                   victim.submit_time.micros(), now.micros(),
                   static_cast<uint32_t>(GroupTerminal::kShedStale));
        NotifyShed(&victim, session_id, GroupTerminal::kShedStale, now);
        s->queue().pop_front();
        ++c.groups_shed_stale;
        if (hot_.shed_stale != nullptr) hot_.shed_stale->Increment();
      }
      break;
  }

  PendingGroup g;
  g.seq = out.seq;
  g.submit_time = now;
  g.trace = trace;
  g.queries = std::move(queries);
  g.on_complete = std::move(on_complete);
  g.capture_results = capture_results;
  s->queue().push_back(std::move(g));
  ++c.groups_admitted;
  if (hot_.admitted != nullptr) hot_.admitted->Increment();
  s->NoteQueueDepth(static_cast<int64_t>(s->queue().size()));
  TraceAdmission(trace, out, now, static_cast<int64_t>(s->queue().size()));
  work_cv_.notify_all();
  return out;
}

ServeSession* QueryServer::PickSession(SimTime now, SimTime* deadline,
                                       bool* has_deadline) {
  *has_deadline = false;
  const auto& all = sessions_.sessions();
  const size_t n = all.size();
  if (n == 0) return nullptr;
  for (size_t k = 0; k < n; ++k) {
    const size_t i = (rr_cursor_ + k) % n;
    ServeSession* s = all[i].get();
    if (s->busy() || s->queue().empty()) continue;
    if (effective_policy_ == AdmissionPolicy::kDebounce) {
      const SimTime runnable_at = s->last_submit() + options_.debounce_quiet;
      if (now < runnable_at) {
        if (!*has_deadline || runnable_at < *deadline) {
          *deadline = runnable_at;
          *has_deadline = true;
        }
        continue;
      }
    }
    rr_cursor_ = (i + 1) % n;
    return s;
  }
  return nullptr;
}

PendingGroup QueryServer::PopGroup(ServeSession* session) {
  std::deque<PendingGroup>& q = session->queue();
  if (effective_policy_ == AdmissionPolicy::kSkipStale) {
    // Jump to the newest pending group; everything older is stale.
    if (q.size() > 1) {
      const SimTime now = Now();
      for (size_t i = 0; i + 1 < q.size(); ++i) {
        RecordSpan(q[i].trace, SpanKind::kGroup, q[i].trace.root_span_id,
                   /*parent_span_id=*/0, q[i].submit_time.micros(),
                   now.micros(),
                   static_cast<uint32_t>(GroupTerminal::kShedStale));
        NotifyShed(&q[i], session->id(), GroupTerminal::kShedStale, now);
      }
    }
    session->counters().groups_shed_stale +=
        static_cast<int64_t>(q.size()) - 1;
    if (hot_.shed_stale != nullptr) {
      hot_.shed_stale->Increment(static_cast<int64_t>(q.size()) - 1);
    }
    PendingGroup g = std::move(q.back());
    q.clear();
    return g;
  }
  PendingGroup g = std::move(q.front());
  q.pop_front();
  return g;
}

Result<QueryResponse> QueryServer::ExecuteUnsharded(const Query& query) {
  // Selects and join pages stop early at LIMIT, so they stay on this
  // thread; so does everything on a one-worker server.
  const auto* hq = std::get_if<HistogramQuery>(&query);
  if (hq == nullptr || options_.num_workers < 2) return engine_->Execute(query);
  IDEVAL_ASSIGN_OR_RETURN(std::unique_ptr<HistogramScan> scan,
                          engine_->PrepareHistogram(*hq));
  PostedScan post;
  post.scan = scan.get();
  const bool elastic = scan->queue.num_morsels >= 2;
  if (elastic) {
    int64_t wake = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      posted_scans_.push_back(&post);
      wake = std::min<int64_t>(parked_workers_, scan->queue.num_morsels - 1);
    }
    morsel_queries_.fetch_add(1, std::memory_order_relaxed);
    if (hot_.morsel_queries != nullptr) hot_.morsel_queries->Increment();
    for (int64_t i = 0; i < wake; ++i) work_cv_.notify_one();
  }
  HistogramPartial own;
  engine_->RunHistogramMorsels(*scan, &own);
  if (elastic) {
    // Unposted under the lock, so no helper joins after this point;
    // wait only for those that did.
    std::unique_lock<std::mutex> lock(mu_);
    posted_scans_.erase(
        std::find(posted_scans_.begin(), posted_scans_.end(), &post));
    post.done_cv.wait(lock, [&post] { return post.finished == post.joined; });
  }
  post.partials.push_back(std::move(own));
  return engine_->MergeHistogram(*scan, post.partials);
}

std::optional<std::vector<QueryResponse>> QueryServer::AnswerDrag(
    ServeSession* s, const std::vector<Query>& queries) {
  auto answers = engine_->ExecuteHistogramDrag(s->drag_base(), queries);
  if (answers.has_value()) {
    drag_groups_->Increment();
    // Each answer reports the group's one sweep.
    drag_rows_swept_->Increment(answers->front().stats.tuples_scanned);
  }
  return answers;
}

bool QueryServer::HelpPostedScan(std::unique_lock<std::mutex>* lock) {
  // A relaxed read of the queue: a stale answer only costs an empty join.
  auto it = std::find_if(
      posted_scans_.begin(), posted_scans_.end(), [](const PostedScan* p) {
        const MorselQueue& q = p->scan->queue;
        return q.next.load(std::memory_order_relaxed) < q.num_morsels;
      });
  if (it == posted_scans_.end()) return false;
  PostedScan* post = *it;
  ++post->joined;
  lock->unlock();
  HistogramPartial partial;
  const int64_t claimed = engine_->RunHistogramMorsels(*post->scan, &partial);
  lock->lock();
  post->partials.push_back(std::move(partial));
  // The owner may return the moment `finished` catches up: `post` must not
  // be touched after this.
  if (++post->finished == post->joined) post->done_cv.notify_one();
  morsels_executed_.fetch_add(claimed, std::memory_order_relaxed);
  if (hot_.morsel_morsels != nullptr) hot_.morsel_morsels->Increment(claimed);
  return true;
}

void QueryServer::ShardWorkerLoop() {
  std::unique_lock<std::mutex> lock(shard_mu_);
  for (;;) {
    shard_cv_.wait(lock,
                   [this] { return shard_stop_ || !shard_queue_.empty(); });
    // Drain before exiting so a group worker blocked on its partials is
    // never stranded by shutdown.
    if (shard_queue_.empty()) return;
    ShardTask task = shard_queue_.front();
    shard_queue_.pop_front();
    lock.unlock();

    const SimTime t0 = Now();
    Result<QueryResponse> r =
        sharded_->shard(task.subtask->shard)->Execute(task.subtask->query);
    const Duration wall = Now() - t0;
    if (task.trace.enabled()) {
      RecordSpan(task.trace, SpanKind::kShardExec,
                 task.trace.buffer->NewSpanId(), task.parent_span,
                 t0.micros(), (t0 + wall).micros(),
                 static_cast<uint32_t>(task.lane), task.shard,
                 r.ok() ? r->stats.blocks_scanned : 0,
                 r.ok() ? r->stats.blocks_pruned : 0);
    }
    {
      // Notify under the lock: the instant `remaining` hits zero the
      // dispatching worker may wake and destroy the group state, so no
      // touch of task.* may happen after the decrement outside done_mu.
      std::lock_guard<std::mutex> done(*task.done_mu);
      task.result->emplace(std::move(r));
      *task.wall = wall;
      if (--*task.remaining == 0) task.done_cv->notify_one();
    }
    lock.lock();
  }
}

QueryServer::GroupOutcome QueryServer::ExecuteGroupSharded(
    const std::vector<Query>& queries, const TraceContext& trace,
    std::vector<std::optional<QueryResultData>>* capture) {
  GroupOutcome out;
  if (capture != nullptr) capture->resize(queries.size());
  const SimTime t0 = Now();
  // Allocated up front so shard workers can parent their spans under the
  // execute window before it is recorded.
  const uint64_t execute_span_id =
      trace.enabled() ? trace.buffer->NewSpanId() : 0;

  // Plan every query into per-shard subtasks. Plan failures fail the
  // query immediately; its partials never reach the shard pool.
  struct PlannedQuery {
    const Query* query = nullptr;
    size_t query_index = 0;  ///< Submission-order slot in `capture`.
    ShardedEngine::ShardPlan plan;
    size_t first_slot = 0;  ///< Index of its first partial in the slots.
  };
  std::vector<PlannedQuery> planned;
  planned.reserve(queries.size());
  size_t total_subtasks = 0;
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const Query& query = queries[qi];
    auto plan = sharded_->Plan(query);
    if (!plan.ok()) {
      ++out.failed;
      continue;
    }
    PlannedQuery pq;
    pq.query = &query;
    pq.query_index = qi;
    pq.plan = std::move(*plan);
    pq.first_slot = total_subtasks;
    total_subtasks += pq.plan.subtasks.size();
    planned.push_back(std::move(pq));
  }

  // Group completion state, on this worker's stack. Shard workers hold
  // pointers into it until the last decrement under done_mu, after which
  // the wait below returns and the state may be destroyed.
  std::vector<std::optional<Result<QueryResponse>>> slots(total_subtasks);
  std::vector<Duration> walls(total_subtasks);
  std::mutex done_mu;
  std::condition_variable done_cv;
  int remaining = static_cast<int>(total_subtasks);

  {
    std::lock_guard<std::mutex> lock(shard_mu_);
    for (const PlannedQuery& pq : planned) {
      for (size_t i = 0; i < pq.plan.subtasks.size(); ++i) {
        const auto& sub = pq.plan.subtasks[i];
        ShardTask task;
        task.subtask = &sub;
        task.result = &slots[pq.first_slot + i];
        task.wall = &walls[pq.first_slot + i];
        task.done_mu = &done_mu;
        task.done_cv = &done_cv;
        task.remaining = &remaining;
        task.trace = trace;
        task.parent_span = execute_span_id;
        task.shard = static_cast<int32_t>(sub.shard);
        task.lane = static_cast<int32_t>(pq.first_slot + i);
        shard_queue_.push_back(task);
      }
    }
  }
  shard_cv_.notify_all();
  const SimTime t1 = Now();  // Scatter done: all partials queued.
  RecordSpan(trace, SpanKind::kScatter,
             trace.enabled() ? trace.buffer->NewSpanId() : 0,
             trace.root_span_id, t0.micros(), t1.micros(), /*detail=*/0,
             static_cast<int64_t>(total_subtasks),
             static_cast<int64_t>(planned.size()), out.failed);

  {
    std::unique_lock<std::mutex> done(done_mu);
    done_cv.wait(done, [&remaining] { return remaining == 0; });
  }
  const SimTime t2 = Now();  // Execute done: last partial finished.
  if (trace.enabled()) {
    // The execute window's attrs aggregate the partials' work stats
    // (slots are still intact here; the merge below consumes them).
    int64_t tuples = 0, scanned = 0, pruned = 0;
    for (const auto& slot : slots) {
      if (!slot->ok()) continue;
      tuples += (*slot)->stats.tuples_scanned;
      scanned += (*slot)->stats.blocks_scanned;
      pruned += (*slot)->stats.blocks_pruned;
    }
    RecordSpan(trace, SpanKind::kExecute, execute_span_id,
               trace.root_span_id, t1.micros(), t2.micros(), /*detail=*/0,
               tuples, scanned, pruned);
  }

  // Merge each query's partials into the response an unsharded engine
  // would have produced.
  for (const PlannedQuery& pq : planned) {
    std::vector<QueryResponse> partials;
    partials.reserve(pq.plan.subtasks.size());
    bool partial_failed = false;
    for (size_t i = 0; i < pq.plan.subtasks.size(); ++i) {
      auto& slot = slots[pq.first_slot + i];
      if (!slot->ok()) {
        partial_failed = true;
        break;
      }
      partials.push_back(std::move(**slot));
    }
    if (partial_failed) {
      ++out.failed;
      continue;
    }
    auto merged = sharded_->Merge(*pq.query, pq.plan, std::move(partials));
    if (merged.ok()) {
      ++out.executed;
      if (capture != nullptr) {
        (*capture)[pq.query_index] = std::move(merged->data);
      }
    } else {
      ++out.failed;
    }
  }
  const SimTime t3 = Now();
  RecordSpan(trace, SpanKind::kMerge,
             trace.enabled() ? trace.buffer->NewSpanId() : 0,
             trace.root_span_id, t2.micros(), t3.micros(), /*detail=*/0,
             out.executed, out.failed);

  out.scatter = t1 - t0;
  out.execute = t2 - t1;
  out.merge = t3 - t2;
  if (total_subtasks > 0) {
    Duration sum;
    for (const Duration& w : walls) sum = sum + w;
    out.shard_exec_mean =
        Duration::Micros(sum.micros() / static_cast<int64_t>(total_subtasks));
  }
  return out;
}

Result<QueryResponse> QueryServer::ExecuteOneSharded(
    const Query& query, const TraceContext& trace,
    uint64_t parent_span_id) {
  Span scatter(trace, SpanKind::kScatter, parent_span_id);
  IDEVAL_ASSIGN_OR_RETURN(ShardedEngine::ShardPlan plan,
                          sharded_->Plan(query));
  const size_t n = plan.subtasks.size();
  std::vector<std::optional<Result<QueryResponse>>> slots(n);
  std::vector<Duration> walls(n);
  std::mutex done_mu;
  std::condition_variable done_cv;
  int remaining = static_cast<int>(n);

  {
    std::lock_guard<std::mutex> lock(shard_mu_);
    for (size_t i = 0; i < n; ++i) {
      const auto& sub = plan.subtasks[i];
      ShardTask task;
      task.subtask = &sub;
      task.result = &slots[i];
      task.wall = &walls[i];
      task.done_mu = &done_mu;
      task.done_cv = &done_cv;
      task.remaining = &remaining;
      task.trace = trace;
      task.parent_span = parent_span_id;
      task.shard = static_cast<int32_t>(sub.shard);
      task.lane = static_cast<int32_t>(i);
      shard_queue_.push_back(task);
    }
  }
  shard_cv_.notify_all();
  scatter.SetAttrs(static_cast<int64_t>(n), 1, 0);
  scatter.End();
  {
    std::unique_lock<std::mutex> done(done_mu);
    done_cv.wait(done, [&remaining] { return remaining == 0; });
  }

  std::vector<QueryResponse> partials;
  partials.reserve(n);
  for (auto& slot : slots) {
    IDEVAL_RETURN_NOT_OK(slot->status());
    partials.push_back(std::move(**slot));
  }
  Span merge(trace, SpanKind::kMerge, parent_span_id);
  auto merged = sharded_->Merge(query, plan, std::move(partials));
  merge.SetAttrs(merged.ok() ? 1 : 0, merged.ok() ? 0 : 1);
  return merged;
}

void QueryServer::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (stop_) return;
    SimTime deadline;
    bool has_deadline = false;
    ServeSession* s = PickSession(Now(), &deadline, &has_deadline);
    if (s == nullptr) {
      // Sessions first: only a worker with nothing runnable helps.
      if (HelpPostedScan(&lock)) continue;
      ++parked_workers_;
      if (has_deadline) {
        work_cv_.wait_until(lock, ToSteady(deadline));
      } else {
        work_cv_.wait(lock);
      }
      --parked_workers_;
      continue;
    }
    PendingGroup group = PopGroup(s);
    s->set_busy(true);
    ++in_flight_;
    lock.unlock();

    // --- Execution, outside the server lock. The busy flag serializes
    // all access to this session's drag base.
    const SimTime start = Now();
    // The wait the user felt before any work began: submit -> dispatch.
    RecordSpan(group.trace, SpanKind::kQueueWait,
               group.trace.enabled() ? group.trace.buffer->NewSpanId() : 0,
               group.trace.root_span_id, group.submit_time.micros(),
               start.micros());
    int64_t executed = 0;
    int64_t failed = 0;
    int64_t hits = 0;
    // Result capture is keyed off the completion callback: the classic
    // fire-and-forget path never copies or holds result payloads.
    // Callbacks submitted with `capture_results` off (the CO recorder)
    // get timing without the copies either.
    const bool capture =
        static_cast<bool>(group.on_complete) && group.capture_results;
    std::vector<std::optional<QueryResultData>> results;
    if (capture) results.reserve(group.queries.size());
    GroupOutcome sharded_out;
    if (result_cache_ != nullptr) {
      // Shared cache above either backend: one lookup per query; misses
      // run the backend (single-flight) inside the cache. Over the
      // unsharded backend a miss takes the session's drag answer when
      // there is one: no scan and no morsel post.
      const bool drag = sharded_ == nullptr;
      std::optional<std::vector<QueryResponse>> answers;
      if (drag) answers = AnswerDrag(s, group.queries);
      DragBaseBuilder next;
      size_t qi = 0;
      const ResultCache::TracedBackend take_answer =
          [&answers, &qi](const Query&, const TraceContext&, uint64_t) {
            return Result<QueryResponse>(std::move((*answers)[qi]));
          };
      for (; qi < group.queries.size(); ++qi) {
        auto r = result_cache_->Execute(
            group.queries[qi], answers ? take_answer : cache_backend_,
            group.trace, group.trace.root_span_id);
        if (r.ok()) {
          ++executed;
          if (r->outcome != CacheOutcome::kMiss) ++hits;
          next.Add(&r->response.data);
          // Copy, not move: the cache retains its entry for later hits.
          if (capture) results.emplace_back(r->response.data);
        } else {
          ++failed;
          next.Add(nullptr);
          if (capture) results.emplace_back(std::nullopt);
        }
      }
      if (drag) next.Finish(&group.queries, &s->drag_base());
    } else if (sharded_ != nullptr) {
      sharded_out = ExecuteGroupSharded(group.queries, group.trace,
                                        capture ? &results : nullptr);
      executed = sharded_out.executed;
      failed = sharded_out.failed;
    } else {
      // Without the shared cache the worker takes the session's drag
      // answer when there is one.
      std::optional<std::vector<QueryResponse>> answers =
          AnswerDrag(s, group.queries);
      DragBaseBuilder next;
      for (size_t qi = 0; qi < group.queries.size(); ++qi) {
        Span exec(group.trace, SpanKind::kExecute,
                  group.trace.root_span_id);
        auto r = answers ? Result<QueryResponse>(std::move((*answers)[qi]))
                         : ExecuteUnsharded(group.queries[qi]);
        if (r.ok()) {
          ++executed;
          exec.SetAttrs(r->stats.tuples_scanned, r->stats.blocks_scanned,
                        r->stats.blocks_pruned);
          next.Add(&r->data);
          if (capture) results.emplace_back(std::move(r->data));
        } else {
          ++failed;
          next.Add(nullptr);
          if (capture) results.emplace_back(std::nullopt);
        }
      }
      next.Finish(&group.queries, &s->drag_base());
    }
    const SimTime finish = Now();
    metrics_.RecordGroupComplete(finish, finish - group.submit_time,
                                 finish - start, executed);
    if (hot_.latency_ms != nullptr) {
      hot_.latency_ms->Record((finish - group.submit_time).millis());
      hot_.service_ms->Record((finish - start).millis());
    }
    // With the shared cache the backend runs inside the cache, so phase
    // attribution collapses into `execute` even over a sharded backend.
    if (sharded_ != nullptr && result_cache_ == nullptr) {
      metrics_.RecordPhases(sharded_out.scatter, sharded_out.execute,
                            sharded_out.merge);
    } else {
      metrics_.RecordPhases(Duration::Zero(), finish - start,
                            Duration::Zero());
    }

    lock.lock();
    SessionCounters& c = s->counters();
    ++c.groups_executed;
    c.queries_executed += executed;
    c.queries_failed += failed;
    c.cache_hits += hits;
    const bool lcv = s->CheckLcvViolation(group.seq, finish);
    if (lcv) {
      ++c.lcv_violations;
    }
    if (hot_.executed != nullptr) {
      hot_.executed->Increment();
      hot_.queries_executed->Increment(executed);
      hot_.queries_failed->Increment(failed);
      hot_.cache_hits->Increment(hits);
      if (lcv) hot_.lcv_violations->Increment();
    }
    // The group reached its terminal state: close the root span opened at
    // Submit, and offer the interaction to the slow-query log.
    RecordSpan(group.trace, SpanKind::kGroup, group.trace.root_span_id,
               /*parent_span_id=*/0, group.submit_time.micros(),
               finish.micros(),
               static_cast<uint32_t>(GroupTerminal::kExecuted) |
                   (lcv ? kGroupLcvBit : 0u),
               executed, failed, hits);
    if (slow_log_ != nullptr) {
      SlowQueryRecord rec;
      rec.trace_id = group.trace.trace_id;
      rec.session_id = s->id();
      rec.seq = group.seq;
      rec.submit_us = group.submit_time.micros();
      rec.queue_ms = (start - group.submit_time).millis();
      rec.service_ms = (finish - start).millis();
      rec.latency_ms = (finish - group.submit_time).millis();
      rec.queries_ok = executed;
      rec.queries_failed = failed;
      rec.cache_hits = hits;
      rec.lcv = lcv;
      slow_log_->MaybeRecord(rec);
    }
    if (sharded_ != nullptr && result_cache_ == nullptr) {
      controller_.OnCompleteSharded(finish, finish - start,
                                    sharded_out.shard_exec_mean,
                                    sharded_out.merge);
    } else {
      // Cache hits complete in microseconds, so on cache-friendly
      // workloads the service EWMA shrinks and the capacity estimate
      // rises — admission control sees the cache as extra throughput.
      controller_.OnComplete(finish, finish - start);
    }
    if (group.on_complete) {
      GroupCompletion done;
      done.session_id = s->id();
      done.seq = group.seq;
      done.trace_id = group.trace.trace_id;
      done.root_span_id = group.trace.root_span_id;
      done.terminal = GroupTerminal::kExecuted;
      done.lcv = lcv;
      done.queries_executed = executed;
      done.queries_failed = failed;
      done.cache_hits = hits;
      done.queue_wait = start - group.submit_time;
      done.service = finish - start;
      done.latency = finish - group.submit_time;
      done.results = std::move(results);
      group.on_complete(std::move(done));
    }
    s->set_busy(false);
    --in_flight_;
    if (!s->queue().empty()) work_cv_.notify_all();
    idle_cv_.notify_all();
  }
}

void QueryServer::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] {
    if (in_flight_ > 0) return false;
    for (const auto& s : sessions_.sessions()) {
      if (!s->queue().empty()) return false;
    }
    return true;
  });
}

void QueryServer::Stop() {
  // Flip the draining signal first so the health check fails while the
  // joins below are still in flight (an HTTP endpoint may outlive us).
  stopping_.store(true, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) return;
    stop_ = true;
  }
  // Poller first: its callback snapshots the server, so it must be gone
  // before any serving state is torn down.
  if (poller_ != nullptr) poller_->Stop();
  work_cv_.notify_all();
  // Group workers first: any in-flight sharded group still needs the
  // shard pool to finish its partials before its worker can exit.
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
  {
    std::lock_guard<std::mutex> lock(shard_mu_);
    shard_stop_ = true;
  }
  shard_cv_.notify_all();
  for (auto& w : shard_threads_) {
    if (w.joinable()) w.join();
  }
}

ServerStatsSnapshot QueryServer::Snapshot(bool with_attribution) {
  const SimTime now = Now();
  ServerStatsSnapshot snap;
  {
    std::lock_guard<std::mutex> lock(mu_);
    snap.num_workers = options_.num_workers;
    snap.num_shards = sharded_ != nullptr ? sharded_->num_shards() : 1;
    snap.shard_workers = static_cast<int>(shard_threads_.size());
    snap.configured_policy = options_.policy;
    snap.effective_policy = effective_policy_;
    snap.sessions_open = sessions_.OpenCount();
    snap.uptime_s = now.seconds();
    for (const auto& s : sessions_.sessions()) {
      SessionStatsRow row;
      row.session_id = s->id();
      row.counters = s->counters();
      row.qif_qps = s->QifQps(now);
      row.queued = static_cast<int64_t>(s->queue().size());
      row.queue_hwm = s->queue_hwm();
      snap.totals += row.counters;
      snap.groups_queued += row.queued;
      snap.queue_hwm = std::max(snap.queue_hwm, row.queue_hwm);
      snap.sessions.push_back(std::move(row));
    }
    snap.load = controller_.Assess(now);
  }
  snap.kernel_isa = KernelIsaToString(
      engine_ != nullptr ? engine_->kernel_isa() : sharded_->kernel_isa());
  snap.morsels_executed = morsels_executed_.load(std::memory_order_relaxed);
  snap.morsel_queries = morsel_queries_.load(std::memory_order_relaxed);
  snap.drag_groups = drag_groups_->value();
  snap.drag_rows_swept = drag_rows_swept_->value();
  if (result_cache_ != nullptr) {
    snap.result_cache_enabled = true;
    snap.result_cache = result_cache_->Stats();
  }
  if (trace_ != nullptr) {
    snap.tracing_enabled = true;
    snap.trace_buffer = trace_->Stats();
    if (with_attribution) {
      snap.attribution_enabled = true;
      snap.attribution = ComputeAttribution(trace_->Snapshot());
    }
  }
  if (slow_log_ != nullptr) {
    snap.slow_log_enabled = true;
    snap.slow_queries_logged = slow_log_->logged();
  }
  if (slo_ != nullptr) {
    snap.slo_enabled = true;
    snap.slo_any_critical = slo_->any_critical();
    for (const SloStatus& st : slo_->Status()) {
      snap.slo_critical_transitions += st.critical_transitions;
      snap.slo_warn_transitions += st.warn_transitions;
    }
    if (flight_ != nullptr) snap.slo_bundles = flight_->captured();
  }
  metrics_.FillSnapshot(&snap, now);
  snap.throughput_qps =
      snap.uptime_s > 0.0
          ? static_cast<double>(snap.totals.queries_executed) / snap.uptime_s
          : 0.0;
  snap.lcv_fraction =
      snap.totals.groups_executed > 0
          ? static_cast<double>(snap.totals.lcv_violations) /
                static_cast<double>(snap.totals.groups_executed)
          : 0.0;
  if (mreg_ != nullptr) UpdateGauges(snap);
  return snap;
}

StatsSample QueryServer::SampleStats() {
  // No attribution: the poller calls this every period and must not pay
  // the O(spans) trace-buffer scan each time.
  const ServerStatsSnapshot snap = Snapshot(/*with_attribution=*/false);
  StatsSample s;
  s.t_s = snap.uptime_s;
  s.qif_qps = snap.qif_qps;
  s.throughput_window_qps = snap.throughput_window_qps;
  s.queue_depth = snap.groups_queued;
  s.lcv_fraction = snap.lcv_fraction;
  s.load_factor = snap.load.load_factor;
  s.load_state = static_cast<int32_t>(snap.load.state);
  s.cache_hit_rate =
      snap.result_cache_enabled ? snap.result_cache.HitRate() : -1.0;
  s.trace_dropped = snap.tracing_enabled ? snap.trace_buffer.dropped : 0;
  s.latency_p50_ms = snap.latency_p50_ms;
  s.latency_p90_ms = snap.latency_p90_ms;
  s.submitted = snap.totals.groups_submitted;
  s.executed = snap.totals.groups_executed;
  s.shed = snap.totals.GroupsShed();
  s.rejected = snap.totals.groups_rejected;
  s.lcv_violations = snap.totals.lcv_violations;
  // Per-second rates from the cumulative deltas against the previous
  // sample (zero on the first, and whenever the clock has not advanced).
  const double dt = s.t_s - poll_prev_.t_s;
  if (dt > 0.0 && poll_prev_.t_s > 0.0) {
    s.shed_per_s = static_cast<double>(s.shed - poll_prev_.shed) / dt;
    s.reject_per_s =
        static_cast<double>(s.rejected - poll_prev_.rejected) / dt;
  }
  poll_prev_ = s;
  return s;
}

void QueryServer::ObserveSample(const StatsSample& sample) {
  // Poller thread, no server lock held (the poller unlocks around its
  // sample + observer calls), so locking `mu_` or snapshotting from the
  // capture path below is safe.
  if (slo_ == nullptr) return;
  const SloEngine::EvalResult r = slo_->Evaluate(sample);
  if (options_.slo_admission) {
    std::lock_guard<std::mutex> lock(mu_);
    controller_.SetSloCritical(r.any_critical);
  }
  if (r.entered_critical && flight_ != nullptr) {
    CaptureBundle("slo:" + r.entered + ":critical", sample.t_s);
  }
  // Published last, so whoever sees the page also finds its bundle.
  slo_critical_.store(r.any_critical, std::memory_order_relaxed);
}

int64_t QueryServer::CaptureFlightBundle(const std::string& reason) {
  if (flight_ == nullptr) return -1;
  return CaptureBundle(reason, Now().seconds());
}

int64_t QueryServer::CaptureBundle(const std::string& reason, double t_s) {
  FlightRecorder::Sources src;
  src.trace = trace_.get();
  src.slow_log = slow_log_.get();
  src.timeseries = timeseries_.get();
  src.stats_json = [this] {
    return Snapshot(/*with_attribution=*/true).ToJson();
  };
  if (slo_ != nullptr) {
    src.slo_json = [this] { return slo_->ToJson(); };
  }
  return flight_->Capture(src, reason, t_s);
}

}  // namespace ideval
