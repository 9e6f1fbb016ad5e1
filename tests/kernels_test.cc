// Scalar-vs-SIMD bitwise-identity property suite for the columnar scan
// kernels (src/engine/kernels/). The scalar table is the semantic ground
// truth; every SIMD table this build + CPU supports must reproduce it
// bit for bit on every entry — masks, histogram counts, matched counts,
// and sums — across unaligned lengths, adversarial values (NaN, ±inf,
// exact bin edges and their nextafter neighbours, int64 extremes), and
// random seeds. A second layer checks the engine end to end: pinning
// `EngineOptions::kernel_isa` to scalar vs. any SIMD ISA must produce
// identical QueryResponses, including the work counters and the zone-map
// accounting (blocks_scanned / blocks_pruned).
#include "engine/kernels/kernels.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "engine/engine.h"
#include "engine/query.h"
#include "storage/table.h"

namespace ideval {
namespace {

using kernel_detail::kScalarOps;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr int64_t kI64Min = std::numeric_limits<int64_t>::min();
constexpr int64_t kI64Max = std::numeric_limits<int64_t>::max();

// Every SIMD table this build *and* this CPU supports. The scalar table
// is excluded: it is the reference the others are compared against. On
// machines without AVX2/AVX-512 the suite still runs whatever is there
// (possibly nothing — the engine-level tests below always run).
std::vector<const KernelOps*> SimdTables() {
  std::vector<const KernelOps*> tables;
  const CpuFeatures cpu = ProbeCpu();
  if (cpu.sse42) {
    if (const KernelOps* t = kernel_detail::GetSse42OpsOrNull()) {
      tables.push_back(t);
    }
  }
  if (cpu.avx2) {
    if (const KernelOps* t = kernel_detail::GetAvx2OpsOrNull()) {
      tables.push_back(t);
    }
  }
  if (cpu.avx512) {
    if (const KernelOps* t = kernel_detail::GetAvx512OpsOrNull()) {
      tables.push_back(t);
    }
  }
  return tables;
}

// Scan lengths exercised per seed: empty, below one vector, every
// remainder mod 4 and mod 8 (so each ISA's tail loop runs 0..width-1
// iterations), and a couple of chunk-scale sizes.
const int64_t kLens[] = {0,  1,  2,  3,   4,   5,   7,   8,   9,  11,
                         15, 16, 17, 23,  31,  32,  33,  63,  64, 65,
                         100, 127, 129, 255, 257, 1000, 4095, 4097};

// A double stream with adversarial structure: mostly uniform around the
// probe range, plus NaN/±inf and values pinned to the range edges and
// their one-ulp neighbours (where `<`/`>` and the SIMD compares must
// agree exactly).
std::vector<double> AdversarialF64(Rng* rng, int64_t n, double lo,
                                   double hi, bool allow_nan) {
  std::vector<double> v(static_cast<size_t>(n));
  const double span = hi - lo;
  for (auto& x : v) {
    const double roll = rng->Uniform(0.0, 1.0);
    if (roll < 0.70) {
      x = rng->Uniform(lo - 0.5 * span, hi + 0.5 * span);
    } else if (roll < 0.78) {
      x = lo;
    } else if (roll < 0.86) {
      x = hi;
    } else if (roll < 0.90) {
      x = std::nextafter(lo, -kInf);
    } else if (roll < 0.94) {
      x = std::nextafter(hi, kInf);
    } else if (roll < 0.97) {
      x = rng->Bernoulli(0.5) ? kInf : -kInf;
    } else {
      x = allow_nan ? kNaN : rng->Uniform(lo, hi);
    }
  }
  return v;
}

// Bin values for histogram kernels: finite, ±inf or NaN (which every
// path bins to 0, like FixedHistogram::Add), weighted toward exact bin
// edges `lo + k*width` and their nextafter neighbours — the values where
// truncation after the exact division must land identically.
std::vector<double> AdversarialBinF64(Rng* rng, int64_t n, double lo,
                                      double hi, int64_t bins) {
  std::vector<double> v(static_cast<size_t>(n));
  const double width = (hi - lo) / static_cast<double>(bins);
  for (auto& x : v) {
    const double roll = rng->Uniform(0.0, 1.0);
    if (roll < 0.60) {
      x = rng->Uniform(lo - width, hi + width);
    } else if (roll < 0.85) {
      const double edge =
          lo + width * static_cast<double>(rng->UniformInt(0, bins));
      if (roll < 0.70) {
        x = edge;
      } else if (roll < 0.78) {
        x = std::nextafter(edge, -kInf);
      } else {
        x = std::nextafter(edge, kInf);
      }
    } else if (roll < 0.95) {
      x = rng->Uniform(lo, hi);
    } else if (roll < 0.98) {
      x = rng->Bernoulli(0.5) ? kInf : -kInf;
    } else {
      x = kNaN;
    }
  }
  return v;
}

std::vector<int64_t> AdversarialI64(Rng* rng, int64_t n, int64_t lo,
                                    int64_t hi) {
  std::vector<int64_t> v(static_cast<size_t>(n));
  for (auto& x : v) {
    const double roll = rng->Uniform(0.0, 1.0);
    if (roll < 0.70) {
      x = rng->UniformInt(lo - 3, hi + 3);
    } else if (roll < 0.80) {
      x = lo;
    } else if (roll < 0.90) {
      x = hi;
    } else if (roll < 0.95) {
      x = rng->Bernoulli(0.5) ? kI64Min : kI64Max;
    } else {
      x = rng->UniformInt(-5000, 5000);
    }
  }
  return v;
}

std::vector<uint8_t> RandomMask(Rng* rng, int64_t n) {
  std::vector<uint8_t> mask(static_cast<size_t>(n));
  for (auto& m : mask) m = rng->Bernoulli(0.6) ? 1 : 0;
  return mask;
}

uint64_t DoubleBits(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

// ------------------------- dispatch plumbing -------------------------

TEST(KernelIsaTest, StringsRoundTrip) {
  for (KernelIsa isa : {KernelIsa::kAuto, KernelIsa::kScalar,
                        KernelIsa::kSse42, KernelIsa::kAvx2,
                        KernelIsa::kAvx512}) {
    const auto parsed = KernelIsaFromString(KernelIsaToString(isa));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, isa);
  }
  EXPECT_FALSE(KernelIsaFromString("avx9000").has_value());
  EXPECT_FALSE(KernelIsaFromString("").has_value());
}

TEST(KernelIsaTest, LevelsAreOrdered) {
  EXPECT_EQ(KernelIsaLevel(KernelIsa::kScalar), 0);
  EXPECT_EQ(KernelIsaLevel(KernelIsa::kSse42), 1);
  EXPECT_EQ(KernelIsaLevel(KernelIsa::kAvx2), 2);
  EXPECT_EQ(KernelIsaLevel(KernelIsa::kAvx512), 3);
}

TEST(KernelIsaTest, NaNBinValuesLandInBinZero) {
  // The bin contract (kernels.h `BinOf`): a NaN value counts in bin 0 on
  // every table, in the vector loops and in their scalar tails.
  std::vector<double> v(37, kNaN);
  v[5] = 1.5;  // bin 1
  const F64RangeClause all{v.data(), -kInf, kInf};
  std::vector<const KernelOps*> tables = SimdTables();
  tables.push_back(&kScalarOps);
  for (const KernelOps* ops : tables) {
    SCOPED_TRACE(KernelIsaToString(ops->isa));
    std::vector<int64_t> counts(4, 0);
    ops->hist_f64(v.data(), 37, 0.0, 4.0, 4, counts.data());
    EXPECT_EQ(counts, (std::vector<int64_t>{36, 1, 0, 0}));
    std::fill(counts.begin(), counts.end(), 0);
    ops->hist_ranges_f64(v.data(), 37, 0.0, 4.0, 4, &all, 1, counts.data());
    EXPECT_EQ(counts, (std::vector<int64_t>{36, 1, 0, 0}));
  }
}

TEST(KernelIsaTest, DispatchResolvesAndFallsBack) {
  EXPECT_EQ(GetKernelOps(KernelIsa::kScalar).isa, KernelIsa::kScalar);
  // kAuto resolves to the probed best; the returned table agrees.
  const KernelIsa best = ResolveKernelIsa(KernelIsa::kAuto);
  EXPECT_NE(best, KernelIsa::kAuto);
  EXPECT_EQ(GetKernelOps(KernelIsa::kAuto).isa, best);
  // Requesting an explicit ISA never silently upgrades: the table served
  // is the requested one, or scalar when unsupported.
  for (KernelIsa isa :
       {KernelIsa::kSse42, KernelIsa::kAvx2, KernelIsa::kAvx512}) {
    const KernelIsa got = GetKernelOps(isa).isa;
    EXPECT_TRUE(got == isa || got == KernelIsa::kScalar)
        << "requested " << KernelIsaToString(isa) << ", got "
        << KernelIsaToString(got);
  }
  // Every served table is fully populated.
  for (KernelIsa isa :
       {KernelIsa::kAuto, KernelIsa::kScalar, KernelIsa::kSse42,
        KernelIsa::kAvx2, KernelIsa::kAvx512}) {
    const KernelOps& ops = GetKernelOps(isa);
    EXPECT_NE(ops.range_mask_f64, nullptr);
    EXPECT_NE(ops.range_mask_and_f64, nullptr);
    EXPECT_NE(ops.range_mask_i64, nullptr);
    EXPECT_NE(ops.range_mask_and_i64, nullptr);
    EXPECT_NE(ops.mask_count, nullptr);
    EXPECT_NE(ops.hist_masked_f64, nullptr);
    EXPECT_NE(ops.hist_masked_i64, nullptr);
    EXPECT_NE(ops.hist_f64, nullptr);
    EXPECT_NE(ops.hist_i64, nullptr);
    EXPECT_NE(ops.hist_ranges_f64, nullptr);
    EXPECT_NE(ops.masked_sum_f64, nullptr);
    EXPECT_NE(ops.masked_sum_i64, nullptr);
  }
}

// ------------------------- WidenedRangeToI64 -------------------------

TEST(WidenedRangeToI64Test, ExactIntegerBounds) {
  const I64RangeBounds b = WidenedRangeToI64(5.0, 10.0);
  EXPECT_EQ(b.lo, 5);
  EXPECT_EQ(b.hi, 10);
}

TEST(WidenedRangeToI64Test, FractionalBoundsRoundInward) {
  const I64RangeBounds b = WidenedRangeToI64(5.5, 10.5);
  EXPECT_EQ(b.lo, 6);
  EXPECT_EQ(b.hi, 10);
}

TEST(WidenedRangeToI64Test, ReversedBoundsAreEmpty) {
  const I64RangeBounds b = WidenedRangeToI64(10.0, 5.0);
  EXPECT_GT(b.lo, b.hi);
}

TEST(WidenedRangeToI64Test, NaNBoundExcludesNothing) {
  // A NaN bound compares false against everything, so the scalar
  // predicate passes every value on that side.
  const I64RangeBounds lo_nan = WidenedRangeToI64(kNaN, 10.0);
  EXPECT_EQ(lo_nan.lo, kI64Min);
  EXPECT_EQ(lo_nan.hi, 10);
  const I64RangeBounds hi_nan = WidenedRangeToI64(-3.0, kNaN);
  EXPECT_EQ(hi_nan.lo, -3);
  EXPECT_EQ(hi_nan.hi, kI64Max);
  const I64RangeBounds both = WidenedRangeToI64(kNaN, kNaN);
  EXPECT_EQ(both.lo, kI64Min);
  EXPECT_EQ(both.hi, kI64Max);
}

TEST(WidenedRangeToI64Test, HugeBoundsCoverFullRange) {
  const I64RangeBounds b = WidenedRangeToI64(-1e300, 1e300);
  EXPECT_EQ(b.lo, kI64Min);
  EXPECT_EQ(b.hi, kI64Max);
  // (double)INT64_MAX rounds up to 2^63; every int64 widens to <= 2^63,
  // so a hi bound of 2^63 must still admit INT64_MAX.
  const I64RangeBounds edge =
      WidenedRangeToI64(0.0, 9223372036854775808.0);
  EXPECT_EQ(edge.hi, kI64Max);
}

class WidenedRangeProperty : public ::testing::TestWithParam<int> {};

TEST_P(WidenedRangeProperty, BoundsMatchScalarPredicate) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 9341 + 29);
  for (int trial = 0; trial < 200; ++trial) {
    double lo, hi;
    const double roll = rng.Uniform(0.0, 1.0);
    if (roll < 0.4) {
      lo = rng.Uniform(-1e6, 1e6);
      hi = lo + rng.Uniform(-10.0, 1e6);
    } else if (roll < 0.7) {
      // Bounds in the >2^53 region where not every integer is a double
      // and the widening rounds.
      lo = rng.Uniform(-9.3e18, 9.3e18);
      hi = lo + rng.Uniform(0.0, 1e17);
    } else if (roll < 0.9) {
      lo = static_cast<double>(rng.UniformInt(-1000, 1000));
      hi = static_cast<double>(rng.UniformInt(-1000, 1000));
    } else {
      lo = rng.Bernoulli(0.5) ? kNaN : -kInf;
      hi = rng.Bernoulli(0.5) ? kNaN : kInf;
    }
    const I64RangeBounds b = WidenedRangeToI64(lo, hi);
    auto scalar_pass = [&](int64_t v) {
      const double d = static_cast<double>(v);
      return !(d < lo) && !(d > hi);
    };
    auto check = [&](int64_t v) {
      EXPECT_EQ(b.lo <= v && v <= b.hi, scalar_pass(v))
          << "v=" << v << " lo=" << lo << " hi=" << hi << " widened=["
          << b.lo << "," << b.hi << "]";
    };
    // Probe the widened boundary itself, its neighbours, and random
    // points — the boundary neighbours are where an off-by-one in the
    // binary search would show.
    if (b.lo != kI64Min) check(b.lo - 1);
    check(b.lo);
    if (b.lo != kI64Max) check(b.lo + 1);
    if (b.hi != kI64Min) check(b.hi - 1);
    check(b.hi);
    if (b.hi != kI64Max) check(b.hi + 1);
    check(kI64Min);
    check(kI64Max);
    for (int probe = 0; probe < 8; ++probe) {
      check(rng.UniformInt(kI64Min / 2, kI64Max / 2));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WidenedRangeProperty,
                         ::testing::Range(0, 10));

// ---------------- scalar-vs-SIMD bitwise identity ----------------

class KernelBitwiseProperty : public ::testing::TestWithParam<int> {};

TEST_P(KernelBitwiseProperty, RangeMasksMatchScalar) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7187 + 3);
  const auto tables = SimdTables();
  for (const int64_t n : kLens) {
    const double lo = rng.Uniform(-50.0, 50.0);
    const double hi = lo + rng.Uniform(-5.0, 100.0);  // sometimes empty
    const auto vf = AdversarialF64(&rng, n, lo, hi, /*allow_nan=*/true);
    const I64RangeBounds ib = WidenedRangeToI64(lo, hi);
    const auto vi = AdversarialI64(&rng, n, ib.lo, ib.hi);
    const auto seed_mask = RandomMask(&rng, n);

    std::vector<uint8_t> ref_f(static_cast<size_t>(n)),
        ref_i(static_cast<size_t>(n)), ref_fa = seed_mask,
        ref_ia = seed_mask;
    kScalarOps.range_mask_f64(vf.data(), n, lo, hi, ref_f.data());
    kScalarOps.range_mask_i64(vi.data(), n, ib.lo, ib.hi, ref_i.data());
    kScalarOps.range_mask_and_f64(vf.data(), n, lo, hi, ref_fa.data());
    kScalarOps.range_mask_and_i64(vi.data(), n, ib.lo, ib.hi,
                                  ref_ia.data());
    const int64_t ref_count = kScalarOps.mask_count(ref_f.data(), n);

    for (const KernelOps* ops : tables) {
      SCOPED_TRACE(KernelIsaToString(ops->isa));
      std::vector<uint8_t> got_f(static_cast<size_t>(n)),
          got_i(static_cast<size_t>(n)), got_fa = seed_mask,
          got_ia = seed_mask;
      ops->range_mask_f64(vf.data(), n, lo, hi, got_f.data());
      ops->range_mask_i64(vi.data(), n, ib.lo, ib.hi, got_i.data());
      ops->range_mask_and_f64(vf.data(), n, lo, hi, got_fa.data());
      ops->range_mask_and_i64(vi.data(), n, ib.lo, ib.hi, got_ia.data());
      EXPECT_EQ(got_f, ref_f) << "f64 mask, n=" << n;
      EXPECT_EQ(got_i, ref_i) << "i64 mask, n=" << n;
      EXPECT_EQ(got_fa, ref_fa) << "f64 AND-mask, n=" << n;
      EXPECT_EQ(got_ia, ref_ia) << "i64 AND-mask, n=" << n;
      EXPECT_EQ(ops->mask_count(got_f.data(), n), ref_count);
    }
  }
}

TEST_P(KernelBitwiseProperty, HistogramsMatchScalar) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 6029 + 17);
  const auto tables = SimdTables();
  for (const int64_t n : kLens) {
    const double lo = rng.Uniform(-50.0, 0.0);
    const double hi = lo + rng.Uniform(1.0, 100.0);
    // Mix small bin counts with ones past the sub-histogram split
    // threshold (512), so both the split and shared accumulation paths
    // run.
    const int64_t bins =
        rng.Bernoulli(0.25) ? rng.UniformInt(513, 900)
                            : rng.UniformInt(1, 64);
    const auto vf = AdversarialBinF64(&rng, n, lo, hi, bins);
    const auto vi = AdversarialI64(&rng, n, static_cast<int64_t>(lo) - 4,
                                   static_cast<int64_t>(hi) + 4);
    const auto mask = RandomMask(&rng, n);

    const size_t nb = static_cast<size_t>(bins);
    std::vector<int64_t> ref_mf(nb, 0), ref_mi(nb, 0), ref_uf(nb, 0),
        ref_ui(nb, 0);
    const int64_t ref_mf_n = kScalarOps.hist_masked_f64(
        vf.data(), mask.data(), n, lo, hi, bins, ref_mf.data());
    const int64_t ref_mi_n = kScalarOps.hist_masked_i64(
        vi.data(), mask.data(), n, lo, hi, bins, ref_mi.data());
    const int64_t ref_uf_n =
        kScalarOps.hist_f64(vf.data(), n, lo, hi, bins, ref_uf.data());
    const int64_t ref_ui_n =
        kScalarOps.hist_i64(vi.data(), n, lo, hi, bins, ref_ui.data());

    for (const KernelOps* ops : tables) {
      SCOPED_TRACE(KernelIsaToString(ops->isa));
      std::vector<int64_t> got(nb, 0);
      EXPECT_EQ(ops->hist_masked_f64(vf.data(), mask.data(), n, lo, hi,
                                     bins, got.data()),
                ref_mf_n);
      EXPECT_EQ(got, ref_mf) << "masked f64 hist, n=" << n
                             << " bins=" << bins;
      std::fill(got.begin(), got.end(), 0);
      EXPECT_EQ(ops->hist_masked_i64(vi.data(), mask.data(), n, lo, hi,
                                     bins, got.data()),
                ref_mi_n);
      EXPECT_EQ(got, ref_mi) << "masked i64 hist, n=" << n
                             << " bins=" << bins;
      std::fill(got.begin(), got.end(), 0);
      EXPECT_EQ(ops->hist_f64(vf.data(), n, lo, hi, bins, got.data()),
                ref_uf_n);
      EXPECT_EQ(got, ref_uf) << "f64 hist, n=" << n << " bins=" << bins;
      std::fill(got.begin(), got.end(), 0);
      EXPECT_EQ(ops->hist_i64(vi.data(), n, lo, hi, bins, got.data()),
                ref_ui_n);
      EXPECT_EQ(got, ref_ui) << "i64 hist, n=" << n << " bins=" << bins;
    }
  }
}

TEST_P(KernelBitwiseProperty, FusedHistMatchesScalarAndComposition) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 4643 + 7);
  const auto tables = SimdTables();
  for (const int64_t n : kLens) {
    const double lo = rng.Uniform(-20.0, 0.0);
    const double hi = lo + rng.Uniform(1.0, 60.0);
    const int64_t bins = rng.UniformInt(1, 40);
    const auto bin_v = AdversarialBinF64(&rng, n, lo, hi, bins);

    // 1..6 clauses: covers the specialized fixed-arity kernels and the
    // generic fallback. Clause columns are independent streams (NaN
    // values allowed — they pass the range test like the scalar `<`/`>`).
    const int num_clauses = static_cast<int>(rng.UniformInt(1, 6));
    std::vector<std::vector<double>> cols;
    std::vector<F64RangeClause> clauses(static_cast<size_t>(num_clauses));
    for (int c = 0; c < num_clauses; ++c) {
      clauses[c].lo = rng.Uniform(-30.0, 10.0);
      clauses[c].hi = clauses[c].lo + rng.Uniform(0.0, 50.0);
      cols.push_back(
          AdversarialF64(&rng, n, clauses[c].lo, clauses[c].hi, true));
    }
    for (int c = 0; c < num_clauses; ++c) clauses[c].v = cols[c].data();

    const size_t nb = static_cast<size_t>(bins);
    std::vector<int64_t> ref(nb, 0);
    const int64_t ref_n = kScalarOps.hist_ranges_f64(
        bin_v.data(), n, lo, hi, bins, clauses.data(), num_clauses,
        ref.data());

    // The fused kernel must equal the unfused mask-then-hist composition
    // of the *scalar* primitives (same contract for every ISA).
    std::vector<uint8_t> mask(static_cast<size_t>(n));
    kScalarOps.range_mask_f64(clauses[0].v, n, clauses[0].lo,
                              clauses[0].hi, mask.data());
    for (int c = 1; c < num_clauses; ++c) {
      kScalarOps.range_mask_and_f64(clauses[c].v, n, clauses[c].lo,
                                    clauses[c].hi, mask.data());
    }
    std::vector<int64_t> composed(nb, 0);
    const int64_t composed_n = kScalarOps.hist_masked_f64(
        bin_v.data(), mask.data(), n, lo, hi, bins, composed.data());
    EXPECT_EQ(ref, composed);
    EXPECT_EQ(ref_n, composed_n);

    for (const KernelOps* ops : tables) {
      SCOPED_TRACE(KernelIsaToString(ops->isa));
      std::vector<int64_t> got(nb, 0);
      EXPECT_EQ(ops->hist_ranges_f64(bin_v.data(), n, lo, hi, bins,
                                     clauses.data(), num_clauses,
                                     got.data()),
                ref_n);
      EXPECT_EQ(got, ref) << "fused hist, n=" << n
                          << " clauses=" << num_clauses;
    }
  }
}

TEST_P(KernelBitwiseProperty, MaskedSumsMatchScalarBitwise) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 3371 + 19);
  const auto tables = SimdTables();
  for (const int64_t n : kLens) {
    const double lo = rng.Uniform(-100.0, 0.0);
    const double hi = lo + rng.Uniform(1.0, 200.0);
    const auto vf = AdversarialF64(&rng, n, lo, hi, /*allow_nan=*/true);
    auto vi = AdversarialI64(&rng, n, -1000, 1000);
    // Force int64 wraparound coverage.
    if (n >= 2) {
      vi[0] = kI64Max;
      vi[1] = kI64Max;
    }
    const auto mask = RandomMask(&rng, n);

    const double ref_f =
        kScalarOps.masked_sum_f64(vf.data(), mask.data(), n);
    const int64_t ref_i =
        kScalarOps.masked_sum_i64(vi.data(), mask.data(), n);

    for (const KernelOps* ops : tables) {
      SCOPED_TRACE(KernelIsaToString(ops->isa));
      const double got_f =
          ops->masked_sum_f64(vf.data(), mask.data(), n);
      // Bit-pattern compare: the fixed 4-lane schedule is contractual.
      // Exception: when the sum is NaN (inf + -inf, or a NaN input), the
      // surviving NaN's sign/payload depends on hardware operand order,
      // which the compiler may legally swap for `a + b` — so NaN sums
      // only need to agree on being NaN.
      if (std::isnan(ref_f)) {
        EXPECT_TRUE(std::isnan(got_f)) << "f64 sum, n=" << n;
      } else {
        EXPECT_EQ(DoubleBits(got_f), DoubleBits(ref_f))
            << "f64 sum, n=" << n;
      }
      EXPECT_EQ(ops->masked_sum_i64(vi.data(), mask.data(), n), ref_i)
          << "i64 sum, n=" << n;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelBitwiseProperty,
                         ::testing::Range(0, 20));

// ---------------- engine-level scalar-vs-SIMD identity ----------------

TablePtr RandomTable(Rng* rng, int64_t rows) {
  Schema schema({{"a", DataType::kDouble}, {"b", DataType::kInt64}});
  TableBuilder builder("rand", schema);
  for (int64_t i = 0; i < rows; ++i) {
    builder.MustAppendRow({Value(rng->Uniform(-100.0, 100.0)),
                           Value(rng->UniformInt(-50, 50))});
  }
  return std::move(builder).Finish().ValueOrDie();
}

void ExpectSameResponse(const QueryResponse& scalar,
                        const QueryResponse& simd) {
  EXPECT_EQ(scalar.data, simd.data);
  EXPECT_EQ(scalar.stats.tuples_scanned, simd.stats.tuples_scanned);
  EXPECT_EQ(scalar.stats.tuples_matched, simd.stats.tuples_matched);
  EXPECT_EQ(scalar.stats.blocks_scanned, simd.stats.blocks_scanned);
  EXPECT_EQ(scalar.stats.blocks_pruned, simd.stats.blocks_pruned);
  EXPECT_EQ(scalar.stats.rows_output, simd.stats.rows_output);
  EXPECT_EQ(scalar.stats.groups_built, simd.stats.groups_built);
}

class EngineIsaOracle : public ::testing::TestWithParam<int> {};

TEST_P(EngineIsaOracle, ResponsesIdenticalAcrossIsas) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 8719 + 41);
  TablePtr table = RandomTable(&rng, rng.UniformInt(100, 9000));
  const bool zone_maps = rng.Bernoulli(0.5);

  HistogramQuery hq;
  hq.table = "rand";
  hq.bin_column = "a";
  hq.bin_lo = -100.0;
  hq.bin_hi = 100.0;
  hq.bins = rng.UniformInt(1, 30);
  const double lo_a = rng.Uniform(-120.0, 80.0);
  const double lo_b = static_cast<double>(rng.UniformInt(-60, 40));
  hq.predicates = {RangePredicate{"a", lo_a, lo_a + rng.Uniform(0.0, 150.0)},
                   RangePredicate{"b", lo_b,
                                  lo_b + static_cast<double>(
                                             rng.UniformInt(0, 80))}};
  SelectQuery sq;
  sq.table = "rand";
  sq.predicates = hq.predicates;
  sq.limit = rng.UniformInt(1, 200);
  sq.offset = rng.UniformInt(0, 50);

  auto run = [&](KernelIsa isa, const Query& q) {
    EngineOptions eopts;
    eopts.enable_zone_maps = zone_maps;
    eopts.zone_map_block_rows = 256;  // small blocks: pruning actually fires
    eopts.kernel_isa = isa;
    Engine engine(eopts);
    EXPECT_TRUE(engine.RegisterTable(table).ok());
    auto resp = engine.Execute(q);
    EXPECT_TRUE(resp.ok());
    return std::move(resp).ValueOrDie();
  };

  const QueryResponse hist_ref = run(KernelIsa::kScalar, Query(hq));
  const QueryResponse sel_ref = run(KernelIsa::kScalar, Query(sq));
  for (KernelIsa isa : {KernelIsa::kSse42, KernelIsa::kAvx2,
                        KernelIsa::kAvx512, KernelIsa::kAuto}) {
    SCOPED_TRACE(KernelIsaToString(GetKernelOps(isa).isa));
    ExpectSameResponse(hist_ref, run(isa, Query(hq)));
    ExpectSameResponse(sel_ref, run(isa, Query(sq)));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineIsaOracle, ::testing::Range(0, 12));

}  // namespace
}  // namespace ideval
