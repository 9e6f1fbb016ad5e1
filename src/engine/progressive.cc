#include "engine/progressive.h"

#include <algorithm>
#include <chrono>
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

namespace {

// Acklam's rational approximation to the standard normal quantile
// function; |relative error| < 1.15e-9 over (0, 1). Good to far more
// digits than a confidence interval needs.
double NormalQuantile(double p) {
  static const double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                             -2.759285104469687e+02, 1.383577518672690e+02,
                             -3.066479806614716e+01, 2.506628277459239e+00};
  static const double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                             -1.556989798598866e+02, 6.680131188771972e+01,
                             -1.328068155288572e+01};
  static const double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                             -2.400758277161838e+00, -2.549732539343734e+00,
                             4.374664141464968e+00,  2.938163982698783e+00};
  static const double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                             2.445134137142996e+00, 3.754408661907416e+00};
  const double p_low = 0.02425;
  if (p < p_low) {
    const double q = std::sqrt(-2.0 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
            c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  if (p <= 1.0 - p_low) {
    const double q = p - 0.5;
    const double r = q * q;
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r +
            a[5]) *
           q /
           (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r +
            1.0);
  }
  const double q = std::sqrt(-2.0 * std::log(1.0 - p));
  return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
           c[5]) /
         ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
}

// Default increment unit when the engine has no zone maps for the table:
// match the zone-map default so pass granularity is comparable.
constexpr int64_t kDefaultProgressiveBlockRows = 4096;

}  // namespace

Result<ProgressiveHistogramResult> RunDeadlineHistogram(
    const TablePtr& table, const TableZoneMaps* zone_maps,
    const HistogramQuery& query, const ProgressiveDeadlineOptions& options,
    const CostModel& cost_model, const KernelOps* kernels) {
  if (table == nullptr) {
    return Status::InvalidArgument("RunDeadlineHistogram: null table");
  }
  if (query.bins <= 0) {
    return Status::InvalidArgument("histogram bins must be > 0");
  }
  if (!(options.confidence > 0.0 && options.confidence < 1.0)) {
    return Status::InvalidArgument("confidence must lie in (0, 1)");
  }
  IDEVAL_ASSIGN_OR_RETURN(
      CompiledPredicates preds,
      CompiledPredicates::Compile(*table, query.predicates));
  IDEVAL_ASSIGN_OR_RETURN(const Column* bin_col,
                          table->ColumnByName(query.bin_column));
  if (bin_col->type() == DataType::kString) {
    return Status::InvalidArgument("histogram over string column '" +
                                   query.bin_column + "'");
  }
  // Validate the bin range up front; the result histogram is built from
  // the kernel's exact int64 counts at the end (FromCounts is
  // bitwise-equal to per-row Add for integer counts).
  {
    Result<FixedHistogram> probe = FixedHistogram::Make(
        query.bin_lo, query.bin_hi, static_cast<size_t>(query.bins));
    if (!probe.ok()) return probe.status();
  }
  const KernelOps& ops =
      kernels != nullptr ? *kernels : GetKernelOps(KernelIsa::kAuto);

  const auto t0 = std::chrono::steady_clock::now();
  const size_t bins = static_cast<size_t>(query.bins);
  const int64_t n = static_cast<int64_t>(table->num_rows());
  const bool is_int = bin_col->type() == DataType::kInt64;
  const int64_t* int_vals = is_int ? bin_col->int64_data().data() : nullptr;
  const double* dbl_vals = is_int ? nullptr : bin_col->double_data().data();

  ProgressiveHistogramResult out;
  out.confidence = options.confidence;
  out.ci_half_width.assign(bins, 0.0);

  // Classify blocks up front: a block a range conjunct rules out via its
  // zone map contributes exactly zero matches, so it is fully resolved
  // without being scanned. The sampling universe is the candidates.
  const bool prune = zone_maps != nullptr && preds.has_range_predicates() &&
                     zone_maps->num_blocks > 0;
  const int64_t block_rows =
      zone_maps != nullptr && zone_maps->num_blocks > 0
          ? zone_maps->block_rows
          : kDefaultProgressiveBlockRows;
  const int64_t num_blocks = block_rows > 0 ? (n + block_rows - 1) / block_rows
                                            : 0;
  std::vector<int64_t> candidates;
  candidates.reserve(static_cast<size_t>(num_blocks));
  int64_t pruned_rows = 0;
  for (int64_t b = 0; b < num_blocks; ++b) {
    if (prune && !preds.MayMatchBlock(*zone_maps, static_cast<size_t>(b))) {
      ++out.stats.blocks_pruned;
      pruned_rows += std::min(n, (b + 1) * block_rows) - b * block_rows;
      continue;
    }
    candidates.push_back(b);
  }
  const size_t B = candidates.size();
  out.blocks_total = static_cast<int64_t>(B);
  const double candidate_rows =
      static_cast<double>(n) - static_cast<double>(pruned_rows);

  // Visit candidates in a coprime-stride permutation with a seeded start:
  // every pass extends a near-uniform cluster sample of the candidates.
  const size_t stride = [&] {
    if (B < 2) return size_t{1};
    size_t s = (B / 2) | 1;
    while (std::gcd(s, B) != 1) s += 2;
    return s;
  }();
  const size_t start = B > 0 ? static_cast<size_t>(options.seed % B) : 0;

  // Per-bin running sums over visited blocks, for the cluster-sample
  // variance (docs/progressive.md walks through the estimator).
  std::vector<double> bin_sum(bins, 0.0);
  std::vector<double> bin_sumsq(bins, 0.0);
  // Exact running counts plus a per-block scratch: the kernel scan bins
  // each block into `block_counts`, which is both the variance delta and
  // the increment folded into `counts_total`.
  std::vector<int64_t> counts_total(bins, 0);
  std::vector<int64_t> block_counts(bins, 0);

  size_t m = 0;           // Candidate blocks visited.
  int64_t rows_visited = 0;
  int64_t matched = 0;
  size_t pass_target = std::max<size_t>(1, B / 64);
  while (m < B) {
    size_t take = std::min(pass_target, B - m);
    if (options.max_blocks > 0) {
      if (m >= options.max_blocks) break;
      take = std::min(take, options.max_blocks - m);
    }
    ProgressivePassLog pass;
    pass.start_us = std::chrono::duration_cast<std::chrono::microseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    for (size_t k = 0; k < take; ++k, ++m) {
      const int64_t b = candidates[(start + m * stride) % B];
      const int64_t begin = b * block_rows;
      const int64_t end = std::min(n, begin + block_rows);
      std::fill(block_counts.begin(), block_counts.end(), int64_t{0});
      matched += HistScanRange(ops, preds, int_vals, dbl_vals, query.bin_lo,
                               query.bin_hi, query.bins, begin, end,
                               block_counts.data());
      for (size_t i = 0; i < bins; ++i) {
        const double delta = static_cast<double>(block_counts[i]);
        bin_sum[i] += delta;
        bin_sumsq[i] += delta * delta;
        counts_total[i] += block_counts[i];
      }
      rows_visited += end - begin;
      pass.blocks += 1;
      pass.rows += end - begin;
    }
    const auto now = std::chrono::steady_clock::now();
    pass.end_us = std::chrono::duration_cast<std::chrono::microseconds>(
                      now - t0)
                      .count();
    out.pass_log.push_back(pass);
    ++out.passes;
    if (m >= B) break;
    if (options.deadline.has_value() && now >= *options.deadline) break;
    // Grow geometrically, but never schedule a pass the remaining budget
    // predictably cannot fit (0.8 safety factor on the measured
    // per-block cost so the check lands before the deadline, not after).
    pass_target = pass_target < (SIZE_MAX / 2) ? pass_target * 2 : SIZE_MAX;
    if (options.deadline.has_value() && m > 0 && pass.end_us > 0) {
      const double per_block_us =
          static_cast<double>(pass.end_us) / static_cast<double>(m);
      const double budget_us =
          std::chrono::duration_cast<std::chrono::microseconds>(*options.deadline -
                                                                now)
              .count() *
          0.8;
      if (per_block_us > 0.0) {
        const double fit = budget_us / per_block_us;
        const size_t fit_blocks =
            fit >= 1.0 ? static_cast<size_t>(fit) : size_t{1};
        pass_target = std::min(pass_target, fit_blocks);
      }
    }
  }

  out.blocks_visited = static_cast<int64_t>(m);
  out.approximate = m < B;
  out.fraction_rows =
      n > 0 ? (static_cast<double>(rows_visited) +
               static_cast<double>(pruned_rows)) /
                  static_cast<double>(n)
            : 1.0;

  if (!out.approximate) {
    // Complete run: the summed kernel counts *are* the exact answer.
    // Integer counts as doubles are exact and order-independent below
    // 2^53, so this is bitwise-identical to Engine::Execute.
    std::vector<double> dcounts(counts_total.begin(), counts_total.end());
    IDEVAL_ASSIGN_OR_RETURN(
        out.histogram,
        FixedHistogram::FromCounts(query.bin_lo, query.bin_hi,
                                   std::move(dcounts)));
  } else {
    // Scale the cluster sample up to the candidate universe and attach
    // per-bin CIs from the SRSWOR cluster-sample variance. Pruned blocks
    // contribute exactly zero with zero variance.
    const double dm = static_cast<double>(m);
    const double dB = static_cast<double>(B);
    const double scale = dB / dm;
    const double z = NormalQuantile(0.5 * (1.0 + options.confidence));
    std::vector<double> est(bins, 0.0);
    for (size_t i = 0; i < bins; ++i) {
      est[i] = bin_sum[i] * scale;
      if (m < 2) {
        // One block tells us nothing about spread; report the widest
        // honest bound (the whole unresolved mass).
        out.ci_half_width[i] = candidate_rows;
        continue;
      }
      const double mean = bin_sum[i] / dm;
      double s2 = (bin_sumsq[i] - dm * mean * mean) / (dm - 1.0);
      if (s2 < 0.0) s2 = 0.0;  // Guard tiny negative from rounding.
      if (s2 == 0.0) {
        // Zero *observed* spread is not certainty: with clustered data
        // (e.g. a sorted column, where every block lands in one bin) a
        // small sample can agree exactly on a bin that unvisited blocks
        // would blow up. Floor the bound at the unresolved mass — rows
        // in candidate blocks not yet visited — which covers any
        // possible true count, matching the m < 2 widest-honest-bound
        // convention above.
        out.ci_half_width[i] =
            candidate_rows - static_cast<double>(rows_visited);
        continue;
      }
      const double var = dB * dB * (1.0 - dm / dB) * s2 / dm;
      out.ci_half_width[i] = z * std::sqrt(var);
    }
    IDEVAL_ASSIGN_OR_RETURN(
        out.histogram,
        FixedHistogram::FromCounts(query.bin_lo, query.bin_hi,
                                   std::move(est)));
  }

  out.stats.blocks_scanned = static_cast<int64_t>(m);
  out.stats.tuples_scanned = rows_visited;
  out.stats.tuples_matched = matched;
  out.stats.predicates_evaluated =
      rows_visited * static_cast<int64_t>(preds.num_predicates());
  out.stats.groups_built = static_cast<int64_t>(bins);
  out.stats.rows_output = static_cast<int64_t>(bins);
  out.stats.bytes_output = static_cast<double>(bins) * 16.0;
  out.execution_time = cost_model.ExecutionTime(out.stats);
  out.post_aggregation_time = cost_model.PostAggregationTime(out.stats);
  return out;
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
