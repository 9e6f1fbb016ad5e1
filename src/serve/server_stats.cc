#include "serve/server_stats.h"

#include "common/json_writer.h"
#include "common/text_table.h"
#include "engine/kernels/kernels.h"

namespace ideval {

SessionCounters& SessionCounters::operator+=(const SessionCounters& o) {
  groups_submitted += o.groups_submitted;
  groups_admitted += o.groups_admitted;
  groups_executed += o.groups_executed;
  groups_shed_stale += o.groups_shed_stale;
  groups_shed_coalesced += o.groups_shed_coalesced;
  groups_shed_throttled += o.groups_shed_throttled;
  groups_rejected += o.groups_rejected;
  queries_executed += o.queries_executed;
  queries_failed += o.queries_failed;
  cache_hits += o.cache_hits;
  lcv_violations += o.lcv_violations;
  return *this;
}

OnlineMetrics::OnlineMetrics(Duration qif_window)
    : window_(qif_window), latency_p50_(0.5), latency_p90_(0.9) {}

void OnlineMetrics::TrimWindows(SimTime now) {
  const SimTime horizon = now - window_;
  while (!submits_.empty() && submits_.front() < horizon) {
    submits_.pop_front();
  }
  while (!completions_.empty() && completions_.front().time < horizon) {
    window_query_sum_ -= completions_.front().queries;
    completions_.pop_front();
  }
}

void OnlineMetrics::RecordSubmit(SimTime now) {
  std::lock_guard<std::mutex> lock(mu_);
  if (static_cast<int64_t>(submits_.size()) >= kMaxWindowEntries) {
    submits_.pop_front();
    ++truncations_;
  }
  submits_.push_back(now);
  TrimWindows(now);
}

void OnlineMetrics::RecordGroupComplete(SimTime now, Duration latency,
                                        Duration service, int64_t queries) {
  std::lock_guard<std::mutex> lock(mu_);
  latency_ms_.Add(latency.millis());
  latency_p50_.Add(latency.millis());
  latency_p90_.Add(latency.millis());
  service_ms_.Add(service.millis());
  if (static_cast<int64_t>(completions_.size()) >= kMaxWindowEntries) {
    window_query_sum_ -= completions_.front().queries;
    completions_.pop_front();
    ++truncations_;
  }
  completions_.push_back({now, queries});
  window_query_sum_ += queries;
  TrimWindows(now);
}

void OnlineMetrics::RecordPhases(Duration scatter, Duration execute,
                                 Duration merge) {
  std::lock_guard<std::mutex> lock(mu_);
  scatter_ms_.Add(scatter.millis());
  execute_ms_.Add(execute.millis());
  merge_ms_.Add(merge.millis());
}

double OnlineMetrics::QifQps(SimTime now) {
  std::lock_guard<std::mutex> lock(mu_);
  TrimWindows(now);
  return static_cast<double>(submits_.size()) / window_.seconds();
}

void OnlineMetrics::FillSnapshot(ServerStatsSnapshot* snap, SimTime now) {
  std::lock_guard<std::mutex> lock(mu_);
  TrimWindows(now);
  snap->qif_qps =
      static_cast<double>(submits_.size()) / window_.seconds();
  snap->throughput_window_qps =
      static_cast<double>(window_query_sum_) / window_.seconds();
  snap->qif_window_truncations = truncations_;
  snap->latency_mean_ms = latency_ms_.mean();
  snap->latency_max_ms = latency_ms_.max();
  snap->latency_p50_ms = latency_p50_.Estimate();
  snap->latency_p90_ms = latency_p90_.Estimate();
  snap->service_mean_ms = service_ms_.mean();
  snap->scatter_mean_ms = scatter_ms_.mean();
  snap->execute_mean_ms = execute_ms_.mean();
  snap->merge_mean_ms = merge_ms_.mean();
  snap->merge_max_ms = merge_ms_.max();
}

std::string ServerStatsSnapshot::ToText() const {
  TextTable global({"metric", "value"});
  global.AddRow({"workers", StrFormat("%d", num_workers)});
  if (num_shards > 1) {
    global.AddRow({"shards / shard workers",
                   StrFormat("%d / %d", num_shards, shard_workers)});
  }
  {
    // One probe line next to the resolved ISA, so a stats dump is enough
    // to tell whether "scalar" means "pinned" or "this CPU has nothing
    // better".
    const CpuFeatures cpu = ProbeCpu();
    global.AddRow({"kernel ISA (cpu probe)",
                   StrFormat("%s (sse42=%d avx2=%d avx512=%d)",
                             kernel_isa.c_str(), cpu.sse42 ? 1 : 0,
                             cpu.avx2 ? 1 : 0, cpu.avx512 ? 1 : 0)});
  }
  if (morsel_queries > 0) {
    global.AddCountRow("posted scans / helper morsels",
                       {morsel_queries, morsels_executed});
  }
  if (drag_groups > 0) {
    global.AddCountRow("drag answers / rows swept",
                       {drag_groups, drag_rows_swept});
  }
  global.AddRow({"policy (configured / effective)",
                 StrFormat("%s / %s",
                           AdmissionPolicyToString(configured_policy),
                           AdmissionPolicyToString(effective_policy))});
  global.AddCountRow("sessions", {sessions_open});
  global.AddRow({"uptime", StrFormat("%.2f s", uptime_s)});
  global.AddCountRow(
      "groups submitted / executed / shed / rejected / queued",
      {totals.groups_submitted, totals.groups_executed, totals.GroupsShed(),
       totals.groups_rejected, groups_queued});
  global.AddCountRow(
      "shed breakdown (stale / coalesced / throttled)",
      {totals.groups_shed_stale, totals.groups_shed_coalesced,
       totals.groups_shed_throttled});
  global.AddCountRow(
      "door verdicts (admitted / shed at door / rejected)",
      {totals.groups_admitted, totals.groups_shed_throttled,
       totals.groups_rejected});
  global.AddCountRow("queue depth (now / high-water)",
                     {groups_queued, queue_hwm});
  global.AddCountRow("queries executed / failed",
                     {totals.queries_executed, totals.queries_failed});
  global.AddCountRow("cache hits", {totals.cache_hits});
  if (result_cache_enabled) {
    global.AddRow(
        {"result cache (hit / miss / coalesced; hit rate)",
         StrFormat("%lld / %lld / %lld; %.1f%%",
                   static_cast<long long>(result_cache.hits),
                   static_cast<long long>(result_cache.misses),
                   static_cast<long long>(result_cache.coalesced),
                   100.0 * result_cache.HitRate())});
    global.AddCountRow(
        "result cache entries / bytes / evicted / invalidated",
        {result_cache.entries, result_cache.bytes, result_cache.evictions,
         result_cache.invalidations});
  }
  if (tracing_enabled) {
    global.AddCountRow(
        "trace buffer (live / capacity / recorded / dropped)",
        {trace_buffer.live, trace_buffer.capacity, trace_buffer.recorded,
         trace_buffer.dropped});
  }
  if (attribution_enabled && attribution.groups > 0) {
    global.AddCountRow("attribution groups folded", {attribution.groups});
    const auto attribution_row = [&global](const char* name,
                                           const PhaseBreakdown& b) {
      global.AddRow(
          {StrFormat("attribution %s (queue/scatter/exec/merge/other -> "
                     "total ms; net send)",
                     name),
           StrFormat("%.2f / %.2f / %.2f / %.2f / %.2f -> %.2f; %.2f",
                     b.queue_ms, b.scatter_ms, b.shard_exec_ms, b.merge_ms,
                     b.other_ms, b.latency_ms, b.net_send_ms)});
    };
    attribution_row("mean", attribution.mean);
    attribution_row("p50", attribution.p50);
    attribution_row("p90", attribution.p90);
    attribution_row("p99", attribution.p99);
  }
  if (slow_log_enabled) {
    global.AddCountRow("slow queries logged", {slow_queries_logged});
  }
  if (net_enabled) {
    global.AddCountRow("net bytes sent / received",
                       {net.bytes_sent, net.bytes_received});
    global.AddCountRow("net frames sent / received",
                       {net.frames_sent, net.frames_received});
    global.AddCountRow("net connections (accepted / active)",
                       {net.connections_accepted, net.active_connections});
    global.AddCountRow("net write-queue shed / protocol errors",
                       {net.write_queue_shed, net.protocol_errors});
  }
  if (http_enabled) {
    global.AddCountRow("http requests (total / 200 / 404 / 400)",
                       {http.requests, http.responses_ok, http.not_found,
                        http.bad_requests});
    global.AddCountRow(
        "http conns rejected / slow closes / bytes sent",
        {http.connections_rejected, http.slow_client_closes,
         http.bytes_sent});
  }
  if (slo_enabled) {
    global.AddRow({"SLO (state / critical transitions / warn transitions)",
                   StrFormat("%s / %lld / %lld",
                             slo_any_critical ? "CRITICAL" : "ok",
                             static_cast<long long>(slo_critical_transitions),
                             static_cast<long long>(slo_warn_transitions))});
    global.AddCountRow("flight-recorder bundles captured", {slo_bundles});
  }
  global.AddRow({"latency mean / p50 / p90 / max (ms)",
                 StrFormat("%.2f / %.2f / %.2f / %.2f", latency_mean_ms,
                           latency_p50_ms, latency_p90_ms, latency_max_ms)});
  global.AddRow({"mean service time", StrFormat("%.2f ms", service_mean_ms)});
  if (num_shards > 1) {
    global.AddRow(
        {"phase means (scatter / execute / merge; merge max)",
         StrFormat("%.3f / %.3f / %.3f ms; %.3f ms", scatter_mean_ms,
                   execute_mean_ms, merge_mean_ms, merge_max_ms)});
  }
  global.AddRow({"QIF (live window)", StrFormat("%.1f groups/s", qif_qps)});
  global.AddRow({"throughput (lifetime / window)",
                 StrFormat("%.1f / %.1f queries/s", throughput_qps,
                           throughput_window_qps)});
  global.AddRow({"LCV fraction", StrFormat("%.3f", lcv_fraction)});
  if (qif_window_truncations > 0) {
    global.AddCountRow("window truncations", {qif_window_truncations});
  }
  global.AddRow(
      {"load (offered / capacity / state)",
       StrFormat("%.1f / %.1f groups/s -> %s", load.offered_qps,
                 load.capacity_qps, LoadStateToString(load.state))});
  if (load.shard_exec_capacity_qps > 0.0 || load.merge_capacity_qps > 0.0) {
    global.AddRow({"capacity bounds (shard pool / merge stage)",
                   StrFormat("%.1f / %.1f groups/s",
                             load.shard_exec_capacity_qps,
                             load.merge_capacity_qps)});
  }

  std::string out = global.ToString();
  if (!sessions.empty()) {
    TextTable per({"session", "submitted", "admitted", "executed", "shed",
                   "rejected", "cache hits", "LCV", "queue hwm", "QIF"});
    for (const auto& row : sessions) {
      per.AddRow(
          {StrFormat("%llu", static_cast<unsigned long long>(row.session_id)),
           StrFormat("%lld",
                     static_cast<long long>(row.counters.groups_submitted)),
           StrFormat("%lld",
                     static_cast<long long>(row.counters.groups_admitted)),
           StrFormat("%lld",
                     static_cast<long long>(row.counters.groups_executed)),
           StrFormat("%lld",
                     static_cast<long long>(row.counters.GroupsShed())),
           StrFormat("%lld",
                     static_cast<long long>(row.counters.groups_rejected)),
           StrFormat("%lld", static_cast<long long>(row.counters.cache_hits)),
           StrFormat("%lld",
                     static_cast<long long>(row.counters.lcv_violations)),
           StrFormat("%lld", static_cast<long long>(row.queue_hwm)),
           StrFormat("%.1f/s", row.qif_qps)});
    }
    out += "\n";
    out += per.ToString();
  }
  return out;
}

std::string ServerStatsSnapshot::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("schema").String("ideval.serverstats.v1");
  w.Key("workers").Int(num_workers);
  w.Key("shards").Int(num_shards);
  w.Key("shard_workers").Int(shard_workers);
  w.Key("policy_configured")
      .String(AdmissionPolicyToString(configured_policy));
  w.Key("policy_effective").String(AdmissionPolicyToString(effective_policy));
  w.Key("kernel_isa").String(kernel_isa);
  w.Key("sessions_open").Int(sessions_open);
  w.Key("uptime_s").Double(uptime_s);
  w.Key("totals").BeginObject();
  w.Key("groups_submitted").Int(totals.groups_submitted);
  w.Key("groups_admitted").Int(totals.groups_admitted);
  w.Key("groups_executed").Int(totals.groups_executed);
  w.Key("groups_shed_stale").Int(totals.groups_shed_stale);
  w.Key("groups_shed_coalesced").Int(totals.groups_shed_coalesced);
  w.Key("groups_shed_throttled").Int(totals.groups_shed_throttled);
  w.Key("groups_rejected").Int(totals.groups_rejected);
  w.Key("queries_executed").Int(totals.queries_executed);
  w.Key("queries_failed").Int(totals.queries_failed);
  w.Key("cache_hits").Int(totals.cache_hits);
  w.Key("lcv_violations").Int(totals.lcv_violations);
  w.EndObject();
  w.Key("groups_queued").Int(groups_queued);
  w.Key("queue_hwm").Int(queue_hwm);
  w.Key("latency_mean_ms").Double(latency_mean_ms);
  w.Key("latency_p50_ms").Double(latency_p50_ms);
  w.Key("latency_p90_ms").Double(latency_p90_ms);
  w.Key("latency_max_ms").Double(latency_max_ms);
  w.Key("service_mean_ms").Double(service_mean_ms);
  w.Key("qif_qps").Double(qif_qps);
  w.Key("throughput_qps").Double(throughput_qps);
  w.Key("throughput_window_qps").Double(throughput_window_qps);
  w.Key("lcv_fraction").Double(lcv_fraction);
  w.Key("load").BeginObject();
  w.Key("offered_qps").Double(load.offered_qps);
  w.Key("capacity_qps").Double(load.capacity_qps);
  w.Key("load_factor").Double(load.load_factor);
  w.Key("state").String(LoadStateToString(load.state));
  w.EndObject();
  if (attribution_enabled) {
    const auto phase = [&w](const char* name, const PhaseBreakdown& b) {
      w.Key(name).BeginObject();
      w.Key("queue_ms").Double(b.queue_ms);
      w.Key("scatter_ms").Double(b.scatter_ms);
      w.Key("shard_exec_ms").Double(b.shard_exec_ms);
      w.Key("merge_ms").Double(b.merge_ms);
      w.Key("other_ms").Double(b.other_ms);
      w.Key("net_send_ms").Double(b.net_send_ms);
      w.Key("latency_ms").Double(b.latency_ms);
      w.EndObject();
    };
    w.Key("attribution").BeginObject();
    w.Key("groups").Int(attribution.groups);
    phase("mean", attribution.mean);
    phase("p50", attribution.p50);
    phase("p90", attribution.p90);
    phase("p99", attribution.p99);
    w.EndObject();
  }
  if (slow_log_enabled) {
    w.Key("slow_queries_logged").Int(slow_queries_logged);
  }
  if (slo_enabled) {
    w.Key("slo").BeginObject();
    w.Key("any_critical").Bool(slo_any_critical);
    w.Key("critical_transitions").Int(slo_critical_transitions);
    w.Key("warn_transitions").Int(slo_warn_transitions);
    w.Key("flight_bundles").Int(slo_bundles);
    w.EndObject();
  }
  w.EndObject();
  return std::move(w).Finish();
}

}  // namespace ideval
