// SSE4.2 implementations of the columnar scan kernels — the floor ISA
// for the SIMD path because the int64 range compare needs PCMPGTQ
// (SSE4.2). Only this translation unit is compiled with -msse4.2; the
// runtime CPUID dispatch in kernels.cc keeps it off unsupported CPUs.
// Same bitwise-identity rules as kernels_avx2.cc, at vector width 2.
#include "engine/kernels/kernels.h"

#if defined(__SSE4_2__)

#include <nmmintrin.h>
#include <smmintrin.h>

#include <cstring>

namespace ideval {
namespace {

// 2-bit compare-result mask → 2 mask bytes as a little-endian u16.
constexpr uint16_t kExpand2[4] = {0x0000u, 0x0001u, 0x0100u, 0x0101u};

inline int PassBitsF64(const double* v, __m128d vlo, __m128d vhi) {
  const __m128d x = _mm_loadu_pd(v);
  // cmplt/cmpgt_pd are the ordered compares: false on NaN, like scalar.
  const __m128d lt = _mm_cmplt_pd(x, vlo);
  const __m128d gt = _mm_cmpgt_pd(x, vhi);
  const int fail = _mm_movemask_pd(_mm_or_pd(lt, gt));
  return ~fail & 0x3;
}

inline int PassBitsI64(const int64_t* v, __m128i vlo, __m128i vhi) {
  __m128i x;
  std::memcpy(&x, v, sizeof(x));
  const __m128i below = _mm_cmpgt_epi64(vlo, x);
  const __m128i above = _mm_cmpgt_epi64(x, vhi);
  const int fail =
      _mm_movemask_pd(_mm_castsi128_pd(_mm_or_si128(below, above)));
  return ~fail & 0x3;
}

void RangeMaskF64(const double* v, int64_t n, double lo, double hi,
                  uint8_t* mask) {
  const __m128d vlo = _mm_set1_pd(lo);
  const __m128d vhi = _mm_set1_pd(hi);
  int64_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const uint16_t bytes = kExpand2[PassBitsF64(v + i, vlo, vhi)];
    std::memcpy(mask + i, &bytes, sizeof(bytes));
  }
  for (; i < n; ++i) {
    mask[i] = static_cast<uint8_t>(!(v[i] < lo) && !(v[i] > hi));
  }
}

void RangeMaskAndF64(const double* v, int64_t n, double lo, double hi,
                     uint8_t* mask) {
  const __m128d vlo = _mm_set1_pd(lo);
  const __m128d vhi = _mm_set1_pd(hi);
  int64_t i = 0;
  for (; i + 2 <= n; i += 2) {
    uint16_t cur;
    std::memcpy(&cur, mask + i, sizeof(cur));
    cur &= kExpand2[PassBitsF64(v + i, vlo, vhi)];
    std::memcpy(mask + i, &cur, sizeof(cur));
  }
  for (; i < n; ++i) {
    mask[i] &= static_cast<uint8_t>(!(v[i] < lo) && !(v[i] > hi));
  }
}

void RangeMaskI64(const int64_t* v, int64_t n, int64_t lo, int64_t hi,
                  uint8_t* mask) {
  const __m128i vlo = _mm_set1_epi64x(lo);
  const __m128i vhi = _mm_set1_epi64x(hi);
  int64_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const uint16_t bytes = kExpand2[PassBitsI64(v + i, vlo, vhi)];
    std::memcpy(mask + i, &bytes, sizeof(bytes));
  }
  for (; i < n; ++i) {
    mask[i] = static_cast<uint8_t>(v[i] >= lo && v[i] <= hi);
  }
}

void RangeMaskAndI64(const int64_t* v, int64_t n, int64_t lo, int64_t hi,
                     uint8_t* mask) {
  const __m128i vlo = _mm_set1_epi64x(lo);
  const __m128i vhi = _mm_set1_epi64x(hi);
  int64_t i = 0;
  for (; i + 2 <= n; i += 2) {
    uint16_t cur;
    std::memcpy(&cur, mask + i, sizeof(cur));
    cur &= kExpand2[PassBitsI64(v + i, vlo, vhi)];
    std::memcpy(mask + i, &cur, sizeof(cur));
  }
  for (; i < n; ++i) {
    mask[i] &= static_cast<uint8_t>(v[i] >= lo && v[i] <= hi);
  }
}

int64_t MaskCount(const uint8_t* mask, int64_t n) {
  __m128i total = _mm_setzero_si128();
  int64_t i = 0;
  while (i + 16 <= n) {
    __m128i inner = _mm_setzero_si128();
    int64_t runs = 0;
    for (; i + 16 <= n && runs < 255; i += 16, ++runs) {
      __m128i m;
      std::memcpy(&m, mask + i, sizeof(m));
      inner = _mm_add_epi8(inner, m);
    }
    total = _mm_add_epi64(total, _mm_sad_epu8(inner, _mm_setzero_si128()));
  }
  int64_t lanes[2];
  std::memcpy(lanes, &total, sizeof(lanes));
  int64_t count = lanes[0] + lanes[1];
  for (; i < n; ++i) count += mask[i];
  return count;
}

// Precomputed bin constants (same layout rationale as kernels_avx2.cc,
// at vector width 2).
struct BinConsts {
  __m128d vlo, vwidth, vmaxbin;
  double lo, width, dbins;
  int64_t bins;
};

inline BinConsts MakeBinConsts(double lo, double hi, int64_t bins) {
  BinConsts b;
  b.lo = lo;
  b.width = (hi - lo) / static_cast<double>(bins);
  b.dbins = static_cast<double>(bins);
  b.bins = bins;
  b.vlo = _mm_set1_pd(lo);
  b.vwidth = _mm_set1_pd(b.width);
  b.vmaxbin = _mm_set1_pd(static_cast<double>(bins - 1));
  return b;
}

// Bin 2 doubles with the exact division (see the Bin4F64 note in
// kernels_avx2.cc for why no reciprocal trick is worth it); min/max
// clamp before the truncating convert matches the scalar branchy clamp
// for every input, NaN and infinities included.
__attribute__((always_inline)) inline void Bin2F64(
    const double* v, const BinConsts& b, int32_t* out) {
  const __m128d x = _mm_loadu_pd(v);
  const __m128d q = _mm_div_pd(_mm_sub_pd(x, b.vlo), b.vwidth);
  const __m128d clamped =
      _mm_min_pd(_mm_max_pd(q, _mm_setzero_pd()), b.vmaxbin);
  const __m128i bins2 = _mm_cvttpd_epi32(clamped);
  std::memcpy(out, &bins2, 2 * sizeof(int32_t));
}

int64_t HistMaskedF64(const double* v, const uint8_t* mask, int64_t n,
                      double lo, double hi, int64_t bins, int64_t* counts) {
  if (bins > INT32_MAX) {
    return kernel_detail::kScalarOps.hist_masked_f64(v, mask, n, lo, hi,
                                                     bins, counts);
  }
  const BinConsts b = MakeBinConsts(lo, hi, bins);
  int64_t matched = 0;
  int64_t i = 0;
  for (; i + 2 <= n; i += 2) {
    if (mask[i] == 0 && mask[i + 1] == 0) continue;
    int32_t bin2[2];
    Bin2F64(v + i, b, bin2);
    for (int k = 0; k < 2; ++k) {
      if (mask[i + k]) {
        ++matched;
        ++counts[bin2[k]];
      }
    }
  }
  for (; i < n; ++i) {
    if (!mask[i]) continue;
    ++matched;
    ++counts[BinOf(v[i], b.lo, b.width, b.dbins, b.bins)];
  }
  return matched;
}

int64_t HistF64(const double* v, int64_t n, double lo, double hi,
                int64_t bins, int64_t* counts) {
  if (bins > INT32_MAX) {
    return kernel_detail::kScalarOps.hist_f64(v, n, lo, hi, bins, counts);
  }
  const BinConsts b = MakeBinConsts(lo, hi, bins);
  int64_t i = 0;
  for (; i + 2 <= n; i += 2) {
    int32_t bin2[2];
    Bin2F64(v + i, b, bin2);
    ++counts[bin2[0]];
    ++counts[bin2[1]];
  }
  for (; i < n; ++i) {
    ++counts[BinOf(v[i], b.lo, b.width, b.dbins, b.bins)];
  }
  return n;
}

// Fused filter+histogram (kernels.h contract), width-2 variant of the
// AVX2 loop: pass bits in registers, failing pairs skip the bin load.
int64_t HistRangesF64(const double* v, int64_t n, double lo, double hi,
                      int64_t bins, const F64RangeClause* clauses,
                      int num_clauses, int64_t* counts) {
  if (bins > INT32_MAX) {
    return kernel_detail::kScalarOps.hist_ranges_f64(
        v, n, lo, hi, bins, clauses, num_clauses, counts);
  }
  const BinConsts b = MakeBinConsts(lo, hi, bins);
  constexpr int kPreload = 4;
  __m128d clo[kPreload], chi[kPreload];
  const int np = num_clauses < kPreload ? num_clauses : kPreload;
  for (int c = 0; c < np; ++c) {
    clo[c] = _mm_set1_pd(clauses[c].lo);
    chi[c] = _mm_set1_pd(clauses[c].hi);
  }
  int64_t matched = 0;
  int64_t i = 0;
  for (; i + 2 <= n; i += 2) {
    int bits = 0x3;
    for (int c = 0; c < np; ++c) {
      bits &= PassBitsF64(clauses[c].v + i, clo[c], chi[c]);
    }
    for (int c = np; c < num_clauses; ++c) {
      bits &= PassBitsF64(clauses[c].v + i, _mm_set1_pd(clauses[c].lo),
                          _mm_set1_pd(clauses[c].hi));
    }
    if (bits == 0) continue;
    int32_t bin2[2];
    Bin2F64(v + i, b, bin2);
    counts[bin2[0]] += bits & 1;
    counts[bin2[1]] += (bits >> 1) & 1;
    matched += (bits & 1) + ((bits >> 1) & 1);
  }
  for (; i < n; ++i) {
    uint8_t pass = 1;
    for (int c = 0; c < num_clauses; ++c) {
      const double x = clauses[c].v[i];
      pass &= static_cast<uint8_t>(!(x < clauses[c].lo) &&
                                   !(x > clauses[c].hi));
    }
    if (!pass) continue;
    ++matched;
    ++counts[BinOf(v[i], b.lo, b.width, b.dbins, b.bins)];
  }
  return matched;
}

// The 4-lane schedule at register width 2: acc01 holds lanes {0,1},
// acc23 lanes {2,3}, stepping 4 elements per iteration so element i
// still lands in lane i % 4 — bitwise-identical to the scalar schedule.
double MaskedSumF64(const double* v, const uint8_t* mask, int64_t n) {
  __m128d acc01 = _mm_setzero_pd();
  __m128d acc23 = _mm_setzero_pd();
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    uint32_t mbytes;
    std::memcpy(&mbytes, mask + i, sizeof(mbytes));
    const __m128i b01 =
        _mm_cvtsi32_si128(static_cast<int>(mbytes & 0xFFFFu));
    const __m128i b23 = _mm_cvtsi32_si128(static_cast<int>(mbytes >> 16));
    const __m128i k01 =
        _mm_cmpgt_epi64(_mm_cvtepu8_epi64(b01), _mm_setzero_si128());
    const __m128i k23 =
        _mm_cmpgt_epi64(_mm_cvtepu8_epi64(b23), _mm_setzero_si128());
    acc01 = _mm_add_pd(
        acc01, _mm_and_pd(_mm_loadu_pd(v + i), _mm_castsi128_pd(k01)));
    acc23 = _mm_add_pd(
        acc23, _mm_and_pd(_mm_loadu_pd(v + i + 2), _mm_castsi128_pd(k23)));
  }
  double lane[4];
  std::memcpy(lane, &acc01, sizeof(double) * 2);
  std::memcpy(lane + 2, &acc23, sizeof(double) * 2);
  for (; i < n; ++i) {
    lane[i & 3] += mask[i] ? v[i] : 0.0;
  }
  return (lane[0] + lane[1]) + (lane[2] + lane[3]);
}

int64_t MaskedSumI64(const int64_t* v, const uint8_t* mask, int64_t n) {
  __m128i acc = _mm_setzero_si128();
  int64_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128i bytes = _mm_cvtsi32_si128(mask[i] | (mask[i + 1] << 8));
    const __m128i keep =
        _mm_cmpgt_epi64(_mm_cvtepu8_epi64(bytes), _mm_setzero_si128());
    __m128i x;
    std::memcpy(&x, v + i, sizeof(x));
    acc = _mm_add_epi64(acc, _mm_and_si128(x, keep));
  }
  uint64_t lanes[2];
  std::memcpy(lanes, &acc, sizeof(lanes));
  uint64_t sum = lanes[0] + lanes[1];
  for (; i < n; ++i) {
    sum += mask[i] ? static_cast<uint64_t>(v[i]) : 0u;
  }
  return static_cast<int64_t>(sum);
}

}  // namespace

namespace kernel_detail {

const KernelOps* GetSse42OpsOrNull() {
  static const KernelOps ops = {
      KernelIsa::kSse42,
      RangeMaskF64,
      RangeMaskAndF64,
      RangeMaskI64,
      RangeMaskAndI64,
      MaskCount,
      HistMaskedF64,
      kScalarOps.hist_masked_i64,
      HistF64,
      kScalarOps.hist_i64,
      HistRangesF64,
      MaskedSumF64,
      MaskedSumI64,
  };
  return &ops;
}

}  // namespace kernel_detail
}  // namespace ideval

#else  // !defined(__SSE4_2__)

namespace ideval {
namespace kernel_detail {

const KernelOps* GetSse42OpsOrNull() { return nullptr; }

}  // namespace kernel_detail
}  // namespace ideval

#endif  // defined(__SSE4_2__)
