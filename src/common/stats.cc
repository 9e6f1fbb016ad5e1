#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace ideval {

Summary::Summary(std::vector<double> values) : sorted_(std::move(values)) {
  std::sort(sorted_.begin(), sorted_.end());
  if (sorted_.empty()) return;
  for (double v : sorted_) sum_ += v;
  mean_ = sum_ / static_cast<double>(sorted_.size());
  double ss = 0.0;
  for (double v : sorted_) ss += (v - mean_) * (v - mean_);
  // Population standard deviation: these are full trace populations, not
  // samples from a larger trace.
  stddev_ = std::sqrt(ss / static_cast<double>(sorted_.size()));
}

double Summary::Quantile(double q) const {
  if (sorted_.empty()) return 0.0;
  if (q <= 0.0) return sorted_.front();
  if (q >= 1.0) return sorted_.back();
  const double pos = q * static_cast<double>(sorted_.size() - 1);
  const size_t i = static_cast<size_t>(pos);
  const double frac = pos - static_cast<double>(i);
  if (i + 1 >= sorted_.size()) return sorted_.back();
  return sorted_[i] * (1.0 - frac) + sorted_[i + 1] * frac;
}

double Summary::CdfAt(double x) const {
  if (sorted_.empty()) return 0.0;
  const auto it = std::upper_bound(sorted_.begin(), sorted_.end(), x);
  return static_cast<double>(it - sorted_.begin()) /
         static_cast<double>(sorted_.size());
}

std::string Summary::RangeMeanMedianString(int precision) const {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "[%.*f, %.*f], %.*f, %.*f", precision, min(),
                precision, max(), precision, mean(), precision, median());
  return buf;
}

Result<FixedHistogram> FixedHistogram::Make(double lo, double hi,
                                            size_t bins) {
  if (bins < 1) {
    return Status::InvalidArgument("histogram needs at least one bin");
  }
  if (!(lo < hi)) {
    return Status::InvalidArgument("histogram range must satisfy lo < hi");
  }
  return FixedHistogram(lo, hi, bins);
}

Result<FixedHistogram> FixedHistogram::FromCounts(double lo, double hi,
                                                  std::vector<double> counts) {
  IDEVAL_ASSIGN_OR_RETURN(FixedHistogram hist, Make(lo, hi, counts.size()));
  for (double c : counts) hist.total_ += c;
  hist.counts_ = std::move(counts);
  return hist;
}

void FixedHistogram::Add(double value, double weight) {
  const double w = bin_width();
  double idx = (value - lo_) / w;
  size_t bin;
  if (!(idx >= 0.0)) {  // Below the range, or NaN.
    bin = 0;
  } else if (idx >= static_cast<double>(counts_.size())) {
    bin = counts_.size() - 1;
  } else {
    bin = static_cast<size_t>(idx);
  }
  counts_[bin] += weight;
  total_ += weight;
}

std::vector<double> FixedHistogram::Normalized() const {
  std::vector<double> out(counts_.size(), 0.0);
  if (total_ <= 0.0) {
    const double u = 1.0 / static_cast<double>(counts_.size());
    for (auto& v : out) v = u;
    return out;
  }
  for (size_t i = 0; i < counts_.size(); ++i) out[i] = counts_[i] / total_;
  return out;
}

Result<double> HistogramQuantile(const FixedHistogram& hist, double q) {
  if (q < 0.0 || q > 1.0) {
    return Status::InvalidArgument("quantile must be in [0, 1]");
  }
  if (hist.total() <= 0.0) {
    return Status::InvalidArgument("quantile of an empty histogram");
  }
  const double target = q * hist.total();
  double cum = 0.0;
  for (size_t b = 0; b < hist.num_bins(); ++b) {
    const double c = hist.count(b);
    if (cum + c >= target && c > 0.0) {
      // Interpolate linearly within the bin that crosses the target mass.
      const double frac = (target - cum) / c;
      return hist.BinLowerEdge(b) + frac * hist.bin_width();
    }
    cum += c;
  }
  return hist.hi();
}

Result<double> KlDivergence(const std::vector<double>& p,
                            const std::vector<double>& q, double epsilon) {
  if (p.size() != q.size()) {
    return Status::InvalidArgument("KL divergence requires equal lengths");
  }
  if (p.empty()) {
    return Status::InvalidArgument("KL divergence over empty distributions");
  }
  double psum = 0.0;
  double qsum = 0.0;
  for (size_t i = 0; i < p.size(); ++i) {
    if (p[i] < 0.0 || q[i] < 0.0) {
      return Status::InvalidArgument("KL divergence weights must be >= 0");
    }
    psum += p[i];
    qsum += q[i];
  }
  const double n = static_cast<double>(p.size());
  double kl = 0.0;
  for (size_t i = 0; i < p.size(); ++i) {
    // Epsilon-smoothed normalization keeps the divergence finite when a bin
    // is empty on one side (common while a brush slides past sparse bins).
    const double pi =
        (psum > 0.0 ? p[i] / psum : 1.0 / n) + epsilon;
    const double qi =
        (qsum > 0.0 ? q[i] / qsum : 1.0 / n) + epsilon;
    kl += pi * std::log(pi / qi);
  }
  return kl < 0.0 ? 0.0 : kl;  // Clamp tiny negative rounding residue.
}

Result<double> KlDivergence(const FixedHistogram& p, const FixedHistogram& q,
                            double epsilon) {
  if (p.num_bins() != q.num_bins()) {
    return Status::InvalidArgument(
        "KL divergence requires histograms with equal bin counts");
  }
  return KlDivergence(p.counts(), q.counts(), epsilon);
}

std::vector<CdfPoint> EmpiricalCdf(std::vector<double> values, size_t points) {
  std::vector<CdfPoint> out;
  if (values.empty() || points == 0) return out;
  std::sort(values.begin(), values.end());
  out.reserve(points);
  for (size_t i = 1; i <= points; ++i) {
    const double frac = static_cast<double>(i) / static_cast<double>(points);
    size_t idx = static_cast<size_t>(
        frac * static_cast<double>(values.size()));
    if (idx == 0) idx = 1;
    out.push_back(CdfPoint{values[idx - 1], frac});
  }
  return out;
}

}  // namespace ideval
