#include "engine/progressive.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>

#include "engine/predicate.h"

namespace ideval {

Result<double> HistogramMse(const FixedHistogram& estimate,
                            const FixedHistogram& exact) {
  if (estimate.num_bins() != exact.num_bins()) {
    return Status::InvalidArgument(
        "MSE requires histograms with equal bin counts");
  }
  const std::vector<double> p = estimate.Normalized();
  const std::vector<double> q = exact.Normalized();
  double mse = 0.0;
  for (size_t i = 0; i < p.size(); ++i) {
    mse += (p[i] - q[i]) * (p[i] - q[i]);
  }
  return mse / static_cast<double>(p.size());
}

double ScoredAccuracy(double mse, Duration wait, Duration half_life) {
  const double error_term = std::exp(-mse);
  const double hl = std::max(1e-9, half_life.seconds());
  const double time_term = std::exp(-std::max(0.0, wait.seconds()) / hl);
  return error_term * time_term;
}

Result<std::vector<ProgressiveStep>> RunProgressiveHistogram(
    const TablePtr& table, const HistogramQuery& query,
    const ProgressiveOptions& options) {
  if (table == nullptr) {
    return Status::InvalidArgument("RunProgressiveHistogram: null table");
  }
  if (query.bins <= 0) {
    return Status::InvalidArgument("histogram bins must be > 0");
  }
  std::vector<double> fractions = options.fractions;
  for (size_t i = 0; i < fractions.size(); ++i) {
    if (fractions[i] <= 0.0 || fractions[i] > 1.0) {
      return Status::InvalidArgument("fractions must lie in (0, 1]");
    }
    if (i > 0 && fractions[i] <= fractions[i - 1]) {
      return Status::InvalidArgument("fractions must be increasing");
    }
  }
  if (fractions.empty() || fractions.back() < 1.0) {
    fractions.push_back(1.0);
  }

  IDEVAL_ASSIGN_OR_RETURN(
      CompiledPredicates preds,
      CompiledPredicates::Compile(*table, query.predicates));
  IDEVAL_ASSIGN_OR_RETURN(const Column* bin_col,
                          table->ColumnByName(query.bin_column));
  if (bin_col->type() == DataType::kString) {
    return Status::InvalidArgument("histogram over string column");
  }
  IDEVAL_ASSIGN_OR_RETURN(
      FixedHistogram running,
      FixedHistogram::Make(query.bin_lo, query.bin_hi,
                           static_cast<size_t>(query.bins)));

  const size_t n = table->num_rows();
  const bool is_int = bin_col->type() == DataType::kInt64;
  const int64_t* int_vals = is_int ? bin_col->int64_data().data() : nullptr;
  const double* dbl_vals = is_int ? nullptr : bin_col->double_data().data();

  // Visit rows in a fixed coprime-stride permutation: each prefix of the
  // visit order is a near-uniform sample of the table, which is what makes
  // the early estimates unbiased.
  const size_t stride = [&] {
    size_t s = (n / 2) | 1;  // Odd, near n/2.
    while (std::gcd(s, n) != 1) s += 2;
    return s;
  }();

  std::vector<ProgressiveStep> steps;
  steps.reserve(fractions.size());
  size_t visited = 0;
  size_t cursor = 0;
  Duration elapsed;
  QueryWorkStats cumulative;
  for (double fraction : fractions) {
    const size_t target =
        std::min(n, static_cast<size_t>(std::ceil(fraction *
                                                  static_cast<double>(n))));
    QueryWorkStats step_stats;
    while (visited < target) {
      if (preds.Matches(cursor)) {
        const double v = is_int ? static_cast<double>(int_vals[cursor])
                                : dbl_vals[cursor];
        running.Add(v);
        ++step_stats.tuples_matched;
      }
      ++step_stats.tuples_scanned;
      cursor = (cursor + stride) % n;
      ++visited;
    }
    step_stats.predicates_evaluated =
        step_stats.tuples_scanned *
        static_cast<int64_t>(preds.num_predicates());
    step_stats.groups_built = static_cast<int64_t>(running.num_bins());
    elapsed += options.cost_model.ExecutionTime(step_stats) +
               options.cost_model.PostAggregationTime(step_stats);
    cumulative += step_stats;

    ProgressiveStep step;
    step.fraction = fraction;
    step.estimate = running;
    step.available_at = elapsed;
    steps.push_back(std::move(step));
  }

  // Fill in accuracy against the exact (final) histogram.
  const FixedHistogram& exact = steps.back().estimate;
  for (auto& step : steps) {
    IDEVAL_ASSIGN_OR_RETURN(step.mse_vs_exact,
                            HistogramMse(step.estimate, exact));
  }
  return steps;
}

}  // namespace ideval
