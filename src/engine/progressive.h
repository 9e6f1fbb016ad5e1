#ifndef IDEVAL_ENGINE_PROGRESSIVE_H_
#define IDEVAL_ENGINE_PROGRESSIVE_H_

#include <vector>

#include "common/result.h"
#include "common/sim_time.h"
#include "common/stats.h"
#include "engine/cost_model.h"
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
