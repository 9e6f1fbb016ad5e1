#include "engine/kernels/kernels.h"

#include <cmath>
#include <cstring>

namespace ideval {
namespace {

// ---------------------------------------------------------------------------
// Scalar reference kernels. These are the semantic ground truth: the SIMD
// tables in kernels_sse42.cc / kernels_avx2.cc must match them bitwise
// (enforced by tests/kernels_test.cc). The loops are written branch-light
// so the scalar fallback is itself faster than the old per-row
// `Matches()` virtual-free-but-branchy path.
// ---------------------------------------------------------------------------

// f64 range: pass iff !(v < lo) && !(v > hi). NaN values pass (both
// compares false) — same as CompiledPredicates::Matches.
void RangeMaskF64(const double* v, int64_t n, double lo, double hi,
                  uint8_t* mask) {
  for (int64_t i = 0; i < n; ++i) {
    mask[i] = static_cast<uint8_t>(!(v[i] < lo) && !(v[i] > hi));
  }
}

void RangeMaskAndF64(const double* v, int64_t n, double lo, double hi,
                     uint8_t* mask) {
  for (int64_t i = 0; i < n; ++i) {
    mask[i] &= static_cast<uint8_t>(!(v[i] < lo) && !(v[i] > hi));
  }
}

// i64 range over exact pre-widened bounds (WidenedRangeToI64).
void RangeMaskI64(const int64_t* v, int64_t n, int64_t lo, int64_t hi,
                  uint8_t* mask) {
  for (int64_t i = 0; i < n; ++i) {
    mask[i] = static_cast<uint8_t>(v[i] >= lo && v[i] <= hi);
  }
}

void RangeMaskAndI64(const int64_t* v, int64_t n, int64_t lo, int64_t hi,
                     uint8_t* mask) {
  for (int64_t i = 0; i < n; ++i) {
    mask[i] &= static_cast<uint8_t>(v[i] >= lo && v[i] <= hi);
  }
}

int64_t MaskCount(const uint8_t* mask, int64_t n) {
  int64_t count = 0;
  for (int64_t i = 0; i < n; ++i) count += mask[i];
  return count;
}

int64_t HistMaskedF64(const double* v, const uint8_t* mask, int64_t n,
                      double lo, double hi, int64_t bins, int64_t* counts) {
  const double width = (hi - lo) / static_cast<double>(bins);
  const double dbins = static_cast<double>(bins);
  int64_t matched = 0;
  for (int64_t i = 0; i < n; ++i) {
    if (!mask[i]) continue;
    ++matched;
    ++counts[BinOf(v[i], lo, width, dbins, bins)];
  }
  return matched;
}

int64_t HistMaskedI64(const int64_t* v, const uint8_t* mask, int64_t n,
                      double lo, double hi, int64_t bins, int64_t* counts) {
  const double width = (hi - lo) / static_cast<double>(bins);
  const double dbins = static_cast<double>(bins);
  int64_t matched = 0;
  for (int64_t i = 0; i < n; ++i) {
    if (!mask[i]) continue;
    ++matched;
    ++counts[BinOf(static_cast<double>(v[i]), lo, width, dbins, bins)];
  }
  return matched;
}

int64_t HistF64(const double* v, int64_t n, double lo, double hi,
                int64_t bins, int64_t* counts) {
  const double width = (hi - lo) / static_cast<double>(bins);
  const double dbins = static_cast<double>(bins);
  for (int64_t i = 0; i < n; ++i) {
    ++counts[BinOf(v[i], lo, width, dbins, bins)];
  }
  return n;
}

int64_t HistI64(const int64_t* v, int64_t n, double lo, double hi,
                int64_t bins, int64_t* counts) {
  const double width = (hi - lo) / static_cast<double>(bins);
  const double dbins = static_cast<double>(bins);
  for (int64_t i = 0; i < n; ++i) {
    ++counts[BinOf(static_cast<double>(v[i]), lo, width, dbins, bins)];
  }
  return n;
}

// Fused filter+histogram reference: AND the range clauses, bin passing
// rows. Identical (by construction) to materializing the clause mask
// with RangeMask[And]F64 and feeding it to HistMaskedF64: same row
// order, same pass predicate, same BinOf.
int64_t HistRangesF64(const double* v, int64_t n, double lo, double hi,
                      int64_t bins, const F64RangeClause* clauses,
                      int num_clauses, int64_t* counts) {
  const double width = (hi - lo) / static_cast<double>(bins);
  const double dbins = static_cast<double>(bins);
  int64_t matched = 0;
  for (int64_t i = 0; i < n; ++i) {
    uint8_t pass = 1;
    for (int c = 0; c < num_clauses; ++c) {
      const double x = clauses[c].v[i];
      pass &= static_cast<uint8_t>(!(x < clauses[c].lo) &&
                                   !(x > clauses[c].hi));
    }
    if (!pass) continue;
    ++matched;
    ++counts[BinOf(v[i], lo, width, dbins, bins)];
  }
  return matched;
}

// Fixed 4-lane accumulation schedule: element i always lands in lane
// i & 3, and the lanes combine as (l0 + l1) + (l2 + l3). The AVX2/SSE
// implementations keep the same element→lane assignment and the same
// combine tree, which is what makes the float sum bitwise-reproducible
// across ISAs despite FP non-associativity.
double MaskedSumF64(const double* v, const uint8_t* mask, int64_t n) {
  double lane[4] = {0.0, 0.0, 0.0, 0.0};
  for (int64_t i = 0; i < n; ++i) {
    lane[i & 3] += mask[i] ? v[i] : 0.0;
  }
  return (lane[0] + lane[1]) + (lane[2] + lane[3]);
}

int64_t MaskedSumI64(const int64_t* v, const uint8_t* mask, int64_t n) {
  // Unsigned accumulation so overflow wraps mod 2^64 without UB; the SIMD
  // paths wrap identically (two's-complement vector adds).
  uint64_t sum = 0;
  for (int64_t i = 0; i < n; ++i) {
    sum += mask[i] ? static_cast<uint64_t>(v[i]) : 0u;
  }
  return static_cast<int64_t>(sum);
}

}  // namespace

namespace kernel_detail {

const KernelOps kScalarOps = {
    KernelIsa::kScalar, RangeMaskF64, RangeMaskAndF64,
    RangeMaskI64,       RangeMaskAndI64,
    MaskCount,          HistMaskedF64,
    HistMaskedI64,      HistF64,
    HistI64,            HistRangesF64,
    MaskedSumF64,       MaskedSumI64,
};

}  // namespace kernel_detail

const char* KernelIsaToString(KernelIsa isa) {
  switch (isa) {
    case KernelIsa::kAuto:
      return "auto";
    case KernelIsa::kScalar:
      return "scalar";
    case KernelIsa::kSse42:
      return "sse42";
    case KernelIsa::kAvx2:
      return "avx2";
    case KernelIsa::kAvx512:
      return "avx512";
  }
  return "scalar";
}

std::optional<KernelIsa> KernelIsaFromString(const std::string& name) {
  if (name == "auto") return KernelIsa::kAuto;
  if (name == "scalar") return KernelIsa::kScalar;
  if (name == "sse42") return KernelIsa::kSse42;
  if (name == "avx2") return KernelIsa::kAvx2;
  if (name == "avx512") return KernelIsa::kAvx512;
  return std::nullopt;
}

int KernelIsaLevel(KernelIsa isa) {
  switch (ResolveKernelIsa(isa)) {
    case KernelIsa::kAvx512:
      return 3;
    case KernelIsa::kAvx2:
      return 2;
    case KernelIsa::kSse42:
      return 1;
    default:
      return 0;
  }
}

CpuFeatures ProbeCpu() {
  CpuFeatures f;
#if defined(__x86_64__) || defined(__i386__)
  f.sse42 = __builtin_cpu_supports("sse4.2") != 0;
  f.avx2 = __builtin_cpu_supports("avx2") != 0;
  f.avx512 = __builtin_cpu_supports("avx512f") != 0 &&
             __builtin_cpu_supports("avx512dq") != 0 &&
             __builtin_cpu_supports("avx512bw") != 0 &&
             __builtin_cpu_supports("avx512vl") != 0 &&
             __builtin_cpu_supports("bmi2") != 0;
#endif
  return f;
}

KernelIsa ResolveKernelIsa(KernelIsa requested) {
  if (requested != KernelIsa::kAuto) return requested;
  // One-time probe: function-local static so the CPUID runs exactly once
  // per process, on first use, with no dynamic-init ordering hazards.
  static const KernelIsa best = [] {
    const CpuFeatures f = ProbeCpu();
    if (f.avx512 && kernel_detail::GetAvx512OpsOrNull() != nullptr) {
      return KernelIsa::kAvx512;
    }
    if (f.avx2 && kernel_detail::GetAvx2OpsOrNull() != nullptr) {
      return KernelIsa::kAvx2;
    }
    if (f.sse42 && kernel_detail::GetSse42OpsOrNull() != nullptr) {
      return KernelIsa::kSse42;
    }
    return KernelIsa::kScalar;
  }();
  return best;
}

const KernelOps& GetKernelOps(KernelIsa isa) {
  switch (ResolveKernelIsa(isa)) {
    case KernelIsa::kAvx512: {
      const KernelOps* ops = kernel_detail::GetAvx512OpsOrNull();
      if (ops != nullptr && ProbeCpu().avx512) return *ops;
      break;
    }
    case KernelIsa::kAvx2: {
      const KernelOps* ops = kernel_detail::GetAvx2OpsOrNull();
      if (ops != nullptr && ProbeCpu().avx2) return *ops;
      break;
    }
    case KernelIsa::kSse42: {
      const KernelOps* ops = kernel_detail::GetSse42OpsOrNull();
      if (ops != nullptr && ProbeCpu().sse42) return *ops;
      break;
    }
    default:
      break;
  }
  return kernel_detail::kScalarOps;
}

I64RangeBounds WidenedRangeToI64(double lo, double hi) {
  // The scalar predicate fails an int64 v when (double)v < lo or
  // (double)v > hi. The widening u64→double (over the sign-bit-biased
  // order) is monotone non-decreasing, so "passes the lower bound" is an
  // up-set and "passes the upper bound" a down-set: both edges fall to a
  // 64-step binary search. NaN bounds make every compare false — nothing
  // is excluded — which the searches below produce naturally (the "all
  // pass" branch wins).
  const auto unbias = [](uint64_t u) {
    return static_cast<int64_t>(u ^ (uint64_t{1} << 63));
  };
  const auto passes_lo = [lo](int64_t v) {
    return !(static_cast<double>(v) < lo);
  };
  const auto passes_hi = [hi](int64_t v) {
    return !(static_cast<double>(v) > hi);
  };

  I64RangeBounds out;
  // Lower edge: smallest v passing the lo bound.
  if (!passes_lo(unbias(~uint64_t{0}))) {
    return out;  // even INT64_MAX widens below lo: empty (lo > hi).
  }
  if (passes_lo(unbias(0))) {
    out.lo = unbias(0);  // INT64_MIN
  } else {
    uint64_t fail = 0, pass = ~uint64_t{0};
    while (pass - fail > 1) {
      const uint64_t mid = fail + (pass - fail) / 2;
      (passes_lo(unbias(mid)) ? pass : fail) = mid;
    }
    out.lo = unbias(pass);
  }
  // Upper edge: largest v passing the hi bound.
  if (!passes_hi(unbias(0))) {
    out.lo = 0;
    out.hi = -1;
    return out;  // even INT64_MIN widens above hi: empty.
  }
  if (passes_hi(unbias(~uint64_t{0}))) {
    out.hi = unbias(~uint64_t{0});  // INT64_MAX
  } else {
    uint64_t pass = 0, fail = ~uint64_t{0};
    while (fail - pass > 1) {
      const uint64_t mid = pass + (fail - pass) / 2;
      (passes_hi(unbias(mid)) ? pass : fail) = mid;
    }
    out.hi = unbias(pass);
  }
  return out;
}

}  // namespace ideval
