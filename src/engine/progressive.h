#ifndef IDEVAL_ENGINE_PROGRESSIVE_H_
#define IDEVAL_ENGINE_PROGRESSIVE_H_

#include <chrono>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/result.h"
#include "common/sim_time.h"
#include "engine/cost_model.h"
#include "engine/kernels/kernels.h"
#include "engine/query.h"
#include "storage/table.h"

namespace ideval {

/// One refinement step of a progressive (online-aggregation style) query.
struct ProgressiveStep {
  /// Fraction of the table consumed so far (cumulative).
  double fraction = 0.0;
  /// Histogram estimate from the sample seen so far.
  FixedHistogram estimate{*FixedHistogram::Make(0.0, 1.0, 1)};
  /// Modelled time at which this estimate becomes available (cumulative).
  Duration available_at;
  /// Mean squared error of the normalized estimate against the exact
  /// normalized result — the accuracy metric Incvisage-style evaluations
  /// report per iteration (§3.2.2).
  double mse_vs_exact = 0.0;
};

/// Options for progressive execution.
struct ProgressiveOptions {
  /// Cumulative sample fractions at which estimates are emitted; must be
  /// increasing in (0, 1]. The default doubles the sample per step, the
  /// usual online-aggregation schedule.
  std::vector<double> fractions = {0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0};
  /// Cost model pricing each step's incremental scan.
  CostModel cost_model = CostModel::InMemoryColumnStore();
};

/// Executes `query` progressively over `table`: rows are consumed in a
/// shuffled-stride order (so every prefix is an unbiased sample) and an
/// estimate is emitted at each requested fraction, priced by the cost
/// model. This implements the old-contract inversion §3.2.2 describes:
/// strict latency, approximate answers whose accuracy improves over time.
///
/// The final step is always the exact answer (fraction 1.0 is appended if
/// missing), so callers can treat the last element as ground truth.
Result<std::vector<ProgressiveStep>> RunProgressiveHistogram(
    const TablePtr& table, const HistogramQuery& query,
    const ProgressiveOptions& options);

/// Options for the deadline-aware block-incremental executor — the serve
/// path's progressive mode (docs/progressive.md).
struct ProgressiveDeadlineOptions {
  /// Absolute wall-clock point at which the pass loop stops and returns
  /// its current estimate. Checked *between* passes, never mid-block, so
  /// a pass always completes; unset means run to completion, in which
  /// case the result is exact and bitwise-identical to
  /// `Engine::Execute`.
  std::optional<std::chrono::steady_clock::time_point> deadline;
  /// Two-sided confidence level of the per-bin intervals, in (0, 1).
  double confidence = 0.95;
  /// Selects the start offset of the block-visit permutation, so repeated
  /// refinements of the same query sample different prefixes.
  uint64_t seed = 0;
  /// Hard cap on candidate blocks visited (0 = unlimited). Lets tests
  /// force a deterministic partial result without depending on timing.
  size_t max_blocks = 0;
};

/// One executed pass of the incremental loop; the serve layer turns these
/// into `kProgressivePass` trace spans. Offsets are relative to the start
/// of the executor call.
struct ProgressivePassLog {
  int64_t start_us = 0;
  int64_t end_us = 0;
  int64_t blocks = 0;
  int64_t rows = 0;
};

/// What the deadline executor returns: either the exact histogram (all
/// candidate blocks visited — bitwise-identical to the exact path) or a
/// scaled full-table estimate with per-bin confidence intervals.
struct ProgressiveHistogramResult {
  /// Exact counts when `!approximate`; Horvitz–Thompson-style scaled
  /// estimates `(B/m) * observed` when approximate (docs/progressive.md
  /// derives the math).
  FixedHistogram histogram{*FixedHistogram::Make(0.0, 1.0, 1)};
  bool approximate = false;
  /// Fraction of table rows *resolved*: rows scanned plus rows in pruned
  /// blocks (a pruned block contributes exactly zero, so it is fully
  /// known), over total rows. 1.0 on a completed run.
  double fraction_rows = 1.0;
  /// Confidence level the half-widths were computed at (echo of options).
  double confidence = 0.95;
  /// Per-bin half-widths in count units: the exact bin count lies within
  /// `histogram.count(i) ± ci_half_width[i]` at the stated confidence.
  /// All zeros on an exact run.
  std::vector<double> ci_half_width;
  int64_t passes = 0;
  int64_t blocks_total = 0;    ///< Candidate blocks after zone-map pruning.
  int64_t blocks_visited = 0;
  QueryWorkStats stats;
  Duration execution_time;
  Duration post_aggregation_time;
  std::vector<ProgressivePassLog> pass_log;
};

/// Runs `query` as a sequence of block-incremental passes over `table`,
/// visiting zone-map-sized blocks in a coprime-stride permutation (every
/// prefix is a near-uniform cluster sample of the candidate blocks).
/// Blocks a range predicate rules out via `zone_maps` are pruned up front
/// and contribute exactly zero. Between passes the deadline is checked;
/// on expiry the current estimate is returned with per-bin confidence
/// intervals. Page charges are not modelled — progressive serving targets
/// the in-memory profile. Each pass scans through the SIMD kernel table
/// `kernels` (null = resolve the best ISA for this CPU); every ISA
/// produces bitwise-identical counts, so the estimator and the exact
/// path are ISA-independent.
Result<ProgressiveHistogramResult> RunDeadlineHistogram(
    const TablePtr& table, const TableZoneMaps* zone_maps,
    const HistogramQuery& query, const ProgressiveDeadlineOptions& options,
    const CostModel& cost_model, const KernelOps* kernels = nullptr);

/// Mean squared error between two histograms' normalized distributions.
/// Errors if the bin counts differ.
Result<double> HistogramMse(const FixedHistogram& estimate,
                            const FixedHistogram& exact);

/// Incvisage-style *scored accuracy*: the error of the answer the user
/// accepted, weighted by how long they waited for it — earlier good
/// answers score higher. Returns exp(-error) * exp(-wait / half_life),
/// in (0, 1].
double ScoredAccuracy(double mse, Duration wait, Duration half_life);

}  // namespace ideval

#endif  // IDEVAL_ENGINE_PROGRESSIVE_H_
