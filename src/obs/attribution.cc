#include "obs/attribution.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

namespace ideval {

namespace {

/// Per-trace accumulator while sweeping the span snapshot.
struct TraceAcc {
  bool has_root = false;
  bool executed = false;
  int64_t root_start_us = 0;
  int64_t root_end_us = 0;
  int64_t queue_us = 0;
  int64_t scatter_us = 0;
  int64_t merge_us = 0;
  int64_t net_send_us = 0;
  std::vector<std::pair<int64_t, int64_t>> exec;  ///< [start, end) spans.
};

/// Total covered length of a set of possibly-overlapping intervals.
int64_t UnionMicros(std::vector<std::pair<int64_t, int64_t>>* intervals) {
  if (intervals->empty()) return 0;
  std::sort(intervals->begin(), intervals->end());
  int64_t covered = 0;
  int64_t lo = (*intervals)[0].first;
  int64_t hi = (*intervals)[0].second;
  for (size_t i = 1; i < intervals->size(); ++i) {
    const auto& iv = (*intervals)[i];
    if (iv.first > hi) {
      covered += hi - lo;
      lo = iv.first;
      hi = iv.second;
    } else if (iv.second > hi) {
      hi = iv.second;
    }
  }
  covered += hi - lo;
  return covered;
}

double Ms(int64_t us) { return static_cast<double>(us) / 1000.0; }

}  // namespace

AttributionReport ComputeAttribution(const std::vector<SpanRecord>& spans) {
  std::unordered_map<uint64_t, TraceAcc> traces;
  traces.reserve(spans.size() / 4 + 1);
  for (const SpanRecord& s : spans) {
    TraceAcc& t = traces[s.trace_id];
    const int64_t dur = s.end_us - s.start_us;
    switch (s.kind) {
      case SpanKind::kGroup: {
        const auto terminal = static_cast<GroupTerminal>(s.detail & 0xff);
        t.has_root = true;
        t.executed = terminal == GroupTerminal::kExecuted;
        t.root_start_us = s.start_us;
        t.root_end_us = s.end_us;
        break;
      }
      case SpanKind::kQueueWait:
        t.queue_us += dur;
        break;
      case SpanKind::kScatter:
        t.scatter_us += dur;
        break;
      case SpanKind::kMerge:
        t.merge_us += dur;
        break;
      case SpanKind::kNetSend:
        t.net_send_us += dur;
        break;
      case SpanKind::kCacheLookup:
      case SpanKind::kExecute:
      case SpanKind::kShardExec:
        t.exec.emplace_back(s.start_us, s.end_us);
        break;
      default:
        // Admission verdicts are instants; net receive and the client-side
        // spans sit outside the group latency envelope.
        break;
    }
  }

  std::vector<PhaseBreakdown> rows;
  rows.reserve(traces.size());
  for (auto& [trace_id, t] : traces) {
    if (!t.has_root || !t.executed) continue;
    PhaseBreakdown b;
    b.trace_id = trace_id;
    b.latency_ms = Ms(t.root_end_us - t.root_start_us);
    b.queue_ms = Ms(t.queue_us);
    b.scatter_ms = Ms(t.scatter_us);
    b.shard_exec_ms = Ms(UnionMicros(&t.exec));
    b.merge_ms = Ms(t.merge_us);
    b.net_send_ms = Ms(t.net_send_us);
    const double accounted =
        b.queue_ms + b.scatter_ms + b.shard_exec_ms + b.merge_ms;
    b.other_ms = std::max(0.0, b.latency_ms - accounted);
    rows.push_back(b);
  }

  AttributionReport report;
  report.groups = static_cast<int64_t>(rows.size());
  if (rows.empty()) return report;

  for (const PhaseBreakdown& b : rows) {
    report.mean.latency_ms += b.latency_ms;
    report.mean.queue_ms += b.queue_ms;
    report.mean.scatter_ms += b.scatter_ms;
    report.mean.shard_exec_ms += b.shard_exec_ms;
    report.mean.merge_ms += b.merge_ms;
    report.mean.other_ms += b.other_ms;
    report.mean.net_send_ms += b.net_send_ms;
  }
  const double n = static_cast<double>(rows.size());
  report.mean.latency_ms /= n;
  report.mean.queue_ms /= n;
  report.mean.scatter_ms /= n;
  report.mean.shard_exec_ms /= n;
  report.mean.merge_ms /= n;
  report.mean.other_ms /= n;
  report.mean.net_send_ms /= n;

  std::sort(rows.begin(), rows.end(),
            [](const PhaseBreakdown& a, const PhaseBreakdown& b) {
              return a.latency_ms < b.latency_ms;
            });
  const auto rank = [&rows](double p) -> const PhaseBreakdown& {
    auto idx = static_cast<size_t>(p * static_cast<double>(rows.size()));
    if (idx >= rows.size()) idx = rows.size() - 1;
    return rows[idx];  // Nearest-rank: the real group at that rank.
  };
  report.p50 = rank(0.50);
  report.p90 = rank(0.90);
  report.p99 = rank(0.99);
  return report;
}

}  // namespace ideval
