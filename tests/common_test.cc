#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/json_writer.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/sim_time.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/text_table.h"

namespace ideval {
namespace {

// --------------------------- Status / Result ---------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad input");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad input");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (auto code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kOutOfRange, StatusCode::kAlreadyExists,
        StatusCode::kFailedPrecondition, StatusCode::kResourceExhausted,
        StatusCode::kUnimplemented, StatusCode::kInternal}) {
    EXPECT_STRNE(StatusCodeToString(code), "Unknown");
  }
}

Status FailingOperation() { return Status::NotFound("missing"); }

Status UsesReturnNotOk() {
  IDEVAL_RETURN_NOT_OK(FailingOperation());
  return Status::Internal("should not reach");
}

TEST(StatusTest, ReturnNotOkPropagates) {
  EXPECT_EQ(UsesReturnNotOk().code(), StatusCode::kNotFound);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.ValueOr(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::OutOfRange("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(r.ValueOr(7), 7);
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> Quarter(int x) {
  IDEVAL_ASSIGN_OR_RETURN(int h, Half(x));
  return Half(h);
}

TEST(ResultTest, AssignOrReturnChains) {
  Result<int> ok = Quarter(8);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 2);
  EXPECT_FALSE(Quarter(6).ok());  // 6/2 = 3 is odd.
  EXPECT_FALSE(Quarter(5).ok());
}

// --------------------------------- Rng ---------------------------------

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, UniformIntCoversRangeInclusive) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = rng.UniformInt(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    saw_lo |= (v == 3);
    saw_hi |= (v == 7);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(11);
  double sum = 0.0, ss = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.Gaussian();
    sum += v;
    ss += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(ss / n, 1.0, 0.05);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(13);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(2.5);
  EXPECT_NEAR(sum / n, 2.5, 0.1);
}

TEST(RngTest, ZipfFavorsLowRanks) {
  Rng rng(17);
  int64_t low = 0, high = 0;
  for (int i = 0; i < 20000; ++i) {
    const int64_t r = rng.Zipf(100, 1.1);
    EXPECT_GE(r, 1);
    EXPECT_LE(r, 100);
    if (r <= 10) ++low;
    if (r > 90) ++high;
  }
  EXPECT_GT(low, high * 5);
}

TEST(RngTest, WeightedIndexRespectsWeights) {
  Rng rng(19);
  std::vector<double> w = {0.0, 10.0, 0.0, 1.0};
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 20000; ++i) ++counts[rng.WeightedIndex(w)];
  EXPECT_EQ(counts[0], 0);
  EXPECT_EQ(counts[2], 0);
  EXPECT_GT(counts[1], counts[3] * 5);
}

TEST(RngTest, WeightedIndexDegenerate) {
  Rng rng(21);
  EXPECT_EQ(rng.WeightedIndex({}), 0u);
  EXPECT_EQ(rng.WeightedIndex({0.0, 0.0}), 0u);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(23);
  Rng child = a.Fork();
  EXPECT_NE(a.Next(), child.Next());
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(25);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

// ------------------------------- SimTime -------------------------------

TEST(SimTimeTest, Arithmetic) {
  const SimTime t = SimTime::FromMillis(100);
  const Duration d = Duration::Millis(50);
  EXPECT_EQ((t + d).millis(), 150.0);
  EXPECT_EQ((t - d).millis(), 50.0);
  EXPECT_EQ(((t + d) - t).millis(), 50.0);
  EXPECT_LT(t, t + d);
}

TEST(DurationTest, ConversionsAndScaling) {
  const Duration d = Duration::Seconds(1.5);
  EXPECT_EQ(d.micros(), 1500000);
  EXPECT_DOUBLE_EQ(d.millis(), 1500.0);
  EXPECT_DOUBLE_EQ((d * 2.0).seconds(), 3.0);
  EXPECT_DOUBLE_EQ((d / 3).millis(), 500.0);
}

TEST(DurationTest, ToStringPicksUnits) {
  EXPECT_EQ(Duration::Micros(500).ToString(), "500us");
  EXPECT_EQ(Duration::Millis(12).ToString(), "12.00ms");
  EXPECT_EQ(Duration::Seconds(2.5).ToString(), "2.500s");
}

// -------------------------------- Stats --------------------------------

TEST(SummaryTest, BasicStatistics) {
  Summary s({4.0, 1.0, 3.0, 2.0});
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.median(), 2.5);
  EXPECT_NEAR(s.stddev(), std::sqrt(1.25), 1e-12);
}

TEST(SummaryTest, EmptySampleIsZero) {
  Summary s({});
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.Quantile(0.5), 0.0);
}

TEST(SummaryTest, QuantileMonotone) {
  Rng rng(31);
  std::vector<double> values;
  for (int i = 0; i < 500; ++i) values.push_back(rng.Gaussian(10.0, 3.0));
  Summary s(values);
  double prev = s.Quantile(0.0);
  for (double q = 0.05; q <= 1.0; q += 0.05) {
    const double v = s.Quantile(q);
    EXPECT_GE(v, prev);
    prev = v;
  }
}

TEST(SummaryTest, CdfAtEndpoints) {
  Summary s({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(s.CdfAt(0.5), 0.0);
  EXPECT_DOUBLE_EQ(s.CdfAt(2.0), 0.5);
  EXPECT_DOUBLE_EQ(s.CdfAt(10.0), 1.0);
}

TEST(FixedHistogramTest, RejectsBadShape) {
  EXPECT_FALSE(FixedHistogram::Make(0.0, 1.0, 0).ok());
  EXPECT_FALSE(FixedHistogram::Make(1.0, 1.0, 4).ok());
  EXPECT_FALSE(FixedHistogram::Make(2.0, 1.0, 4).ok());
}

TEST(FixedHistogramTest, BinningAndClamping) {
  auto h = FixedHistogram::Make(0.0, 10.0, 5);
  ASSERT_TRUE(h.ok());
  h->Add(0.5);    // bin 0
  h->Add(9.99);   // bin 4
  h->Add(-3.0);   // clamped to bin 0
  h->Add(42.0);   // clamped to bin 4
  h->Add(5.0);    // bin 2
  EXPECT_DOUBLE_EQ(h->count(0), 2.0);
  EXPECT_DOUBLE_EQ(h->count(2), 1.0);
  EXPECT_DOUBLE_EQ(h->count(4), 2.0);
  EXPECT_DOUBLE_EQ(h->total(), 5.0);
  EXPECT_DOUBLE_EQ(h->BinLowerEdge(2), 4.0);
}

TEST(FixedHistogramTest, NaNGoesToTheFirstBin) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  auto h = FixedHistogram::Make(0.0, 10.0, 5);
  ASSERT_TRUE(h.ok());
  h->Add(kNaN);
  h->Add(7.0);  // bin 3
  EXPECT_DOUBLE_EQ(h->count(0), 1.0);
  EXPECT_DOUBLE_EQ(h->count(3), 1.0);
  EXPECT_DOUBLE_EQ(h->total(), 2.0);
  // Edges spanning every double make the bin width inf, so an infinite
  // value's quotient is inf/inf = NaN: also the first bin.
  constexpr double kMax = std::numeric_limits<double>::max();
  auto wide = FixedHistogram::Make(-kMax, kMax, 4);
  ASSERT_TRUE(wide.ok());
  wide->Add(kInf);
  wide->Add(-kInf);
  EXPECT_DOUBLE_EQ(wide->count(0), 2.0);
  EXPECT_DOUBLE_EQ(wide->total(), 2.0);
}

TEST(FixedHistogramTest, NormalizedSumsToOne) {
  auto h = FixedHistogram::Make(0.0, 1.0, 4);
  ASSERT_TRUE(h.ok());
  h->Add(0.1, 3.0);
  h->Add(0.9, 1.0);
  double total = 0.0;
  for (double v : h->Normalized()) total += v;
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(FixedHistogramTest, EmptyNormalizesToUniform) {
  auto h = FixedHistogram::Make(0.0, 1.0, 4);
  ASSERT_TRUE(h.ok());
  for (double v : h->Normalized()) EXPECT_DOUBLE_EQ(v, 0.25);
}

TEST(KlDivergenceTest, IdenticalIsZero) {
  std::vector<double> p = {1.0, 2.0, 3.0, 4.0};
  auto kl = KlDivergence(p, p);
  ASSERT_TRUE(kl.ok());
  EXPECT_DOUBLE_EQ(*kl, 0.0);
}

TEST(KlDivergenceTest, ErrorsOnShapeMismatch) {
  EXPECT_FALSE(KlDivergence({1.0}, {1.0, 2.0}).ok());
  EXPECT_FALSE(KlDivergence({}, {}).ok());
  EXPECT_FALSE(KlDivergence({-1.0, 1.0}, {1.0, 1.0}).ok());
}

TEST(KlDivergenceTest, AsymmetricAndPositive) {
  std::vector<double> p = {0.9, 0.1};
  std::vector<double> q = {0.1, 0.9};
  auto pq = KlDivergence(p, q);
  auto qp = KlDivergence(q, p);
  ASSERT_TRUE(pq.ok());
  ASSERT_TRUE(qp.ok());
  EXPECT_GT(*pq, 0.0);
  EXPECT_GT(*qp, 0.0);
}

TEST(KlDivergenceTest, FiniteWithEmptyBins) {
  std::vector<double> p = {1.0, 0.0, 0.0};
  std::vector<double> q = {0.0, 0.0, 1.0};
  auto kl = KlDivergence(p, q);
  ASSERT_TRUE(kl.ok());
  EXPECT_TRUE(std::isfinite(*kl));
  EXPECT_GT(*kl, 1.0);  // Very different distributions diverge strongly.
}

/// Property sweep: KL is nonnegative and zero only for identical
/// distributions, across random distribution pairs.
class KlPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(KlPropertyTest, NonNegativity) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7919 + 3);
  std::vector<double> p(8), q(8);
  for (auto& v : p) v = rng.Uniform(0.0, 5.0);
  for (auto& v : q) v = rng.Uniform(0.0, 5.0);
  auto kl = KlDivergence(p, q, 1e-9);
  ASSERT_TRUE(kl.ok());
  EXPECT_GE(*kl, 0.0);
  auto self = KlDivergence(p, p, 1e-9);
  ASSERT_TRUE(self.ok());
  EXPECT_NEAR(*self, 0.0, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(RandomDistributions, KlPropertyTest,
                         ::testing::Range(0, 25));

TEST(EmpiricalCdfTest, FractionsReachOne) {
  auto cdf = EmpiricalCdf({5.0, 1.0, 3.0, 2.0, 4.0}, 5);
  ASSERT_EQ(cdf.size(), 5u);
  EXPECT_DOUBLE_EQ(cdf.back().fraction, 1.0);
  EXPECT_DOUBLE_EQ(cdf.back().value, 5.0);
  for (size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_GE(cdf[i].value, cdf[i - 1].value);
    EXPECT_GT(cdf[i].fraction, cdf[i - 1].fraction);
  }
}

TEST(EmpiricalCdfTest, EmptyInput) {
  EXPECT_TRUE(EmpiricalCdf({}, 5).empty());
}

// ------------------------------ TextTable ------------------------------

TEST(TextTableTest, AlignsColumns) {
  TextTable t({"name", "value"});
  t.AddRow({"a", "1"});
  t.AddRow({"long-name", "22"});
  const std::string s = t.ToString();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("long-name"), std::string::npos);
  // Header separator exists.
  EXPECT_NE(s.find("---"), std::string::npos);
}

TEST(TextTableTest, PadsShortRows) {
  TextTable t({"a", "b", "c"});
  t.AddRow({"only"});
  EXPECT_NO_THROW(t.ToString());
  EXPECT_EQ(t.num_rows(), 1u);
}

TEST(TextTableTest, AddCountRowJoinsCounts) {
  TextTable t({"metric", "value"});
  t.AddCountRow("submitted / executed / shed", {20, 15, 5});
  t.AddCountRow("sessions", {1});
  const std::string s = t.ToString();
  EXPECT_NE(s.find("20 / 15 / 5"), std::string::npos);
  // A single count renders bare, without separators.
  EXPECT_NE(s.find("1"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);

  // int64 range survives the formatting.
  TextTable big({"metric", "value"});
  big.AddCountRow("big", {int64_t{1} << 40, -7});
  EXPECT_NE(big.ToString().find("1099511627776 / -7"), std::string::npos);
}

// ------------------------------ JsonWriter ------------------------------

TEST(JsonWriterTest, NestsObjectsArraysAndCommas) {
  JsonWriter w;
  w.BeginObject();
  w.Key("name").String("serve");
  w.Key("qps").Double(1234.5);
  w.Key("count").Int(-3);
  w.Key("on").Bool(true);
  w.Key("off").Bool(false);
  w.Key("none").Null();
  w.Key("series").BeginArray();
  w.Int(1).Int(2);
  w.BeginObject();
  w.Key("x").Double(0.5);
  w.EndObject();
  w.EndArray();
  w.Key("nested").Raw("{\"pre\":1}");
  w.EndObject();
  EXPECT_EQ(std::move(w).Finish(),
            "{\"name\":\"serve\",\"qps\":1234.5,\"count\":-3,\"on\":true,"
            "\"off\":false,\"none\":null,\"series\":[1,2,{\"x\":0.5}],"
            "\"nested\":{\"pre\":1}}");
}

TEST(JsonWriterTest, EscapesAndNonFiniteDoubles) {
  JsonWriter w;
  w.BeginArray();
  w.String("a\"b\\c\nd\te");
  w.Double(std::nan(""));
  w.Double(std::numeric_limits<double>::infinity());
  w.EndArray();
  EXPECT_EQ(std::move(w).Finish(),
            "[\"a\\\"b\\\\c\\nd\\te\",null,null]");
  EXPECT_EQ(JsonWriter::Escape(std::string("\x01", 1)), "\\u0001");
}

TEST(StrFormatTest, FormatsLikePrintf) {
  EXPECT_EQ(StrFormat("%d-%s-%.2f", 7, "x", 1.5), "7-x-1.50");
  EXPECT_EQ(FormatDouble(3.14159, 3), "3.142");
}

TEST(AsciiBarTest, ScalesWithValue) {
  EXPECT_EQ(AsciiBar(10.0, 10.0, 10).size(), 10u);
  EXPECT_EQ(AsciiBar(5.0, 10.0, 10).size(), 5u);
  EXPECT_EQ(AsciiBar(0.0, 10.0, 10).size(), 0u);
  EXPECT_EQ(AsciiBar(20.0, 10.0, 10).size(), 10u);  // Clamped.
}

}  // namespace
}  // namespace ideval
