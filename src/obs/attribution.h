#ifndef IDEVAL_OBS_ATTRIBUTION_H_
#define IDEVAL_OBS_ATTRIBUTION_H_

#include <cstdint>
#include <vector>

#include "obs/trace.h"

namespace ideval {

/// Where one executed group's latency went, folded from its trace spans.
/// The five in-latency phases partition the root `kGroup` span:
///
///     latency_ms ~= queue_ms + scatter_ms + shard_exec_ms
///                 + merge_ms + other_ms
///
/// `shard_exec_ms` is the *wall-clock union* of every execution-side span
/// (cache lookups, per-query executes, shard partials), so parallel
/// shard lanes count once, not `num_shards` times.
/// `other_ms` is the remainder — dispatch gaps, cross-thread handoff —
/// clamped at zero, which makes the rows sum to the group latency by
/// construction (up to clamping, which only fires when execution spans
/// leak past the root's edges by scheduling jitter).
///
/// `net_send_ms` is the completion frame write on the socket front-end.
/// It happens *after* the group reached its terminal state, so it is
/// reported alongside but deliberately excluded from the sum above.
struct PhaseBreakdown {
  uint64_t trace_id = 0;  ///< 0 in the synthetic mean row.
  double latency_ms = 0.0;  ///< Root span: submit -> terminal.
  double queue_ms = 0.0;    ///< Admit -> dispatch (`kQueueWait`).
  double scatter_ms = 0.0;  ///< Plan + fan-out (`kScatter`).
  /// Backend busy: union of `kCacheLookup`/`kExecute`/`kShardExec`
  /// intervals.
  double shard_exec_ms = 0.0;
  double merge_ms = 0.0;  ///< Partial-combine (`kMerge`).
  double other_ms = 0.0;  ///< Remainder of the root span, >= 0.
  /// Completion frame write (`kNetSend`); outside the latency sum.
  double net_send_ms = 0.0;
};

/// Tail-latency attribution over every executed group with a live root
/// span: the per-phase means plus the breakdowns of the *specific groups*
/// sitting at the p50/p90/p99 latency ranks. Reporting a real group per
/// rank (rather than per-phase percentiles, which mix groups) keeps each
/// row internally consistent: its phases sum to its latency, so "where
/// does the p99 go" has a direct answer.
struct AttributionReport {
  /// Executed groups folded. Groups whose root span was evicted from the
  /// trace ring are skipped, so under heavy span drops this undercounts.
  int64_t groups = 0;
  PhaseBreakdown mean;  ///< Field-wise mean over all folded groups.
  PhaseBreakdown p50;   ///< The group at the median latency rank.
  PhaseBreakdown p90;
  PhaseBreakdown p99;
};

/// Folds a span snapshot (`TraceBuffer::Snapshot`) into an attribution
/// report. Sheds, door rejections, and traces without a root are ignored.
AttributionReport ComputeAttribution(const std::vector<SpanRecord>& spans);

}  // namespace ideval

#endif  // IDEVAL_OBS_ATTRIBUTION_H_
