#ifndef IDEVAL_COMMON_STATS_H_
#define IDEVAL_COMMON_STATS_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/result.h"

namespace ideval {

/// Descriptive statistics over a sample, computed once at construction.
///
/// Used everywhere a paper table reports range / mean / median (e.g.
/// Table 7 scroll-speed statistics) or a figure reports percentiles.
class Summary {
 public:
  /// Computes statistics over `values`. An empty sample yields all-zero
  /// statistics with `count() == 0`.
  explicit Summary(std::vector<double> values);

  size_t count() const { return sorted_.size(); }
  double min() const { return count() ? sorted_.front() : 0.0; }
  double max() const { return count() ? sorted_.back() : 0.0; }
  double mean() const { return mean_; }
  double stddev() const { return stddev_; }
  double median() const { return Quantile(0.5); }
  double sum() const { return sum_; }

  /// Linear-interpolation quantile, q in [0, 1].
  double Quantile(double q) const;

  /// Fraction of samples <= x (empirical CDF).
  double CdfAt(double x) const;

  /// "[min, max], mean, median" rendering used by the Table 7 bench.
  std::string RangeMeanMedianString(int precision = 1) const;

 private:
  std::vector<double> sorted_;
  double mean_ = 0.0;
  double stddev_ = 0.0;
  double sum_ = 0.0;
};

/// Fixed-width-bin histogram over [lo, hi) with `bins` buckets.
///
/// This is both an analysis tool (Fig. 14 inter-arrival histograms) and the
/// *query result type* of the crossfilter case study (20-bin count
/// histograms per attribute, §7).
class FixedHistogram {
 public:
  /// Creates an empty histogram. Requires bins >= 1 and lo < hi.
  static Result<FixedHistogram> Make(double lo, double hi, size_t bins);

  /// Reconstitutes a histogram from already-bucketed counts (the wire
  /// decoder cannot replay `Add` calls). Same validity requirements as
  /// `Make`; the total is the sum of `counts`.
  static Result<FixedHistogram> FromCounts(double lo, double hi,
                                           std::vector<double> counts);

  /// Adds one observation; values outside [lo, hi) are clamped into the
  /// first/last bin so that totals are preserved (matching how UI
  /// histograms render out-of-range brushes). A NaN goes to the first
  /// bin, as in the engine's scan kernels.
  void Add(double value, double weight = 1.0);

  double lo() const { return lo_; }
  double hi() const { return hi_; }
  size_t num_bins() const { return counts_.size(); }
  double bin_width() const {
    return (hi_ - lo_) / static_cast<double>(counts_.size());
  }
  double total() const { return total_; }
  double count(size_t bin) const { return counts_[bin]; }
  const std::vector<double>& counts() const { return counts_; }

  /// Lower edge of bin `i`.
  double BinLowerEdge(size_t i) const {
    return lo_ + bin_width() * static_cast<double>(i);
  }

  /// Returns counts normalized to sum to 1. A histogram with zero total
  /// normalizes to the uniform distribution (so KL against it is finite).
  std::vector<double> Normalized() const;

  bool operator==(const FixedHistogram& other) const = default;

 private:
  FixedHistogram(double lo, double hi, size_t bins)
      : lo_(lo), hi_(hi), counts_(bins, 0.0) {}

  double lo_;
  double hi_;
  std::vector<double> counts_;
  double total_ = 0.0;
};

/// The `q`-quantile read off a histogram's bucketed summary, with linear
/// interpolation inside the quantile's bin. This is how order statistics
/// merge across shards: exact aggregates (bin counts) combine by
/// addition, and any percentile derived from the merged histogram agrees
/// with the percentile of the unsharded histogram — and with the exact
/// data quantile to within one bin width. Requires q in [0, 1]; errors on
/// an empty histogram.
Result<double> HistogramQuantile(const FixedHistogram& hist, double q);

/// Kullback–Leibler divergence KL(p || q) between two discrete
/// distributions given as (possibly unnormalized) nonnegative weights of
/// equal length, with epsilon smoothing so the result is always finite.
///
/// Used by the KL query-suppression optimization of §7.1 (Algorithm 2): a
/// new crossfilter query is sent to the backend only if the estimated
/// result histogram diverges from the previous one by more than a
/// threshold.
Result<double> KlDivergence(const std::vector<double>& p,
                            const std::vector<double>& q,
                            double epsilon = 1e-9);

/// Convenience overload over histograms of identical shape.
Result<double> KlDivergence(const FixedHistogram& p, const FixedHistogram& q,
                            double epsilon = 1e-9);

/// One point of an empirical CDF: `fraction` of samples are <= `value`.
struct CdfPoint {
  double value = 0.0;
  double fraction = 0.0;
};

/// Empirical CDF evaluated at `points` evenly spaced quantiles — the form
/// in which Figs. 20 and 21 are reported.
std::vector<CdfPoint> EmpiricalCdf(std::vector<double> values,
                                   size_t points = 20);

}  // namespace ideval

#endif  // IDEVAL_COMMON_STATS_H_
