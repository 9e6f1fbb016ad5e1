#ifndef IDEVAL_ENGINE_KERNELS_KERNELS_H_
#define IDEVAL_ENGINE_KERNELS_KERNELS_H_

#include <cstdint>
#include <optional>
#include <string>

namespace ideval {

/// Which instruction set the columnar scan kernels run on. `kAuto`
/// resolves once, at first use, from a runtime CPUID probe to the best
/// ISA this binary was compiled with support for; the explicit values
/// exist so tests and benches can pin (`EngineOptions::kernel_isa`) and
/// compare implementations. Every ISA is bitwise-identical on the
/// integer-valued outputs (masks, bin counts, int64 sums) — see
/// docs/kernels.md for the identity argument.
enum class KernelIsa {
  kAuto,
  kScalar,
  kSse42,
  kAvx2,
  kAvx512,
};

const char* KernelIsaToString(KernelIsa isa);

/// Parses "auto" / "scalar" / "sse42" / "avx2" / "avx512"; nullopt on
/// anything else.
std::optional<KernelIsa> KernelIsaFromString(const std::string& name);

/// Dispatch level of an ISA for gauges/exports: scalar=0, sse42=1,
/// avx2=2, avx512=3. `kAuto` is resolved first.
int KernelIsaLevel(KernelIsa isa);

/// What the one-time CPUID probe saw on this machine. All false on
/// non-x86 builds (the kernels fall back to scalar there). `avx512` is
/// the F+DQ+BW+VL common subset plus BMI2 (for the mask byte-expand) —
/// every server part that has one has the rest.
struct CpuFeatures {
  bool sse42 = false;
  bool avx2 = false;
  bool avx512 = false;
};

CpuFeatures ProbeCpu();

/// Rows per scan chunk: the predicate mask is materialized for one chunk
/// at a time, so the working set (values + one byte per row) stays in
/// L1/L2. Matches the default zone-map block size.
inline constexpr int64_t kKernelScanChunk = 4096;

/// Exact int64 bounds of the widened range predicate `lo <= (double)v <=
/// hi`: `v` matches the scalar test `!((double)v < lo) && !((double)v >
/// hi)` iff `lo_i64 <= v <= hi_i64`. `lo_i64 > hi_i64` means no int64
/// matches. Computed by binary search over the (monotone) int64-to-double
/// widening, so the integer-domain SIMD compare reproduces the scalar
/// double-domain compare bit for bit — including the edges where the
/// widening rounds. A NaN bound compares false against everything, so it
/// excludes nothing (matching the scalar predicate).
struct I64RangeBounds {
  int64_t lo = 0;
  int64_t hi = -1;
};

I64RangeBounds WidenedRangeToI64(double lo, double hi);

/// The one histogram bin function, `FixedHistogram::Add`'s: `idx = (v -
/// lo) / width` with `width = (hi - lo) / bins` and `dbins = bins`; an
/// index below 0 goes to bin 0 and one at or past `bins` to the last
/// bin, otherwise it truncates. Division, not a reciprocal multiply, so
/// the quotient rounds exactly as `Add`'s does. A NaN quotient also goes
/// to bin 0, which is what the SIMD paths' `max(NaN, 0) = 0` clamp
/// gives. `static`: each kernel translation unit is compiled with its own
/// ISA flags and must keep its own copy, never share one with another.
static inline int64_t BinOf(double v, double lo, double width, double dbins,
                            int64_t bins) {
  const double idx = (v - lo) / width;
  if (!(idx >= 0.0)) return 0;
  if (idx >= dbins) return bins - 1;
  return static_cast<int64_t>(idx);
}

/// One f64 range conjunct of a fused filtered-histogram scan
/// (`KernelOps::hist_ranges_f64`): row i passes the clause iff
/// `!(v[i] < lo) && !(v[i] > hi)` — the same NaN-passing semantics as
/// `range_mask_f64`. The pointer borrows column storage, already offset
/// to the scan window.
struct F64RangeClause {
  const double* v = nullptr;
  double lo = 0.0;
  double hi = 0.0;
};

/// The branch-free columnar kernels behind the scan/filter/histogram hot
/// path, as a function-pointer dispatch table (one indirect call per
/// chunk, resolved once — not per row).
///
/// Mask representation: one byte per row, 1 = row passes, 0 = row fails.
/// `range_mask_*` writes the mask for one conjunct; `range_mask_and_*`
/// ANDs a further conjunct into an existing mask.
///
/// Semantics contract (the scalar implementations are the definition;
/// SIMD implementations must match them bitwise):
///  - f64 range: row passes iff `!(v < lo) && !(v > hi)` — a NaN *value*
///    passes (both compares false), exactly like
///    `CompiledPredicates::Matches`; a NaN *bound* excludes nothing.
///  - i64 range: row passes iff `lo <= v <= hi` over the exact widened
///    bounds from `WidenedRangeToI64`.
///  - histogram binning: `BinOf` below, `FixedHistogram::Add` semantics
///    over [lo, hi) with `bins` buckets. Counts accumulate into int64
///    (exact), so any visit order merges bitwise. A NaN bin value (or a
///    NaN quotient, e.g. inf/inf) lands in bin 0 on every path.
///  - masked sums: the i64 sum is order-independent (exact); the f64 sum
///    uses a fixed 4-lane accumulation schedule replicated by every ISA,
///    so it too is bitwise-identical across implementations.
struct KernelOps {
  KernelIsa isa = KernelIsa::kScalar;

  void (*range_mask_f64)(const double* v, int64_t n, double lo, double hi,
                         uint8_t* mask) = nullptr;
  void (*range_mask_and_f64)(const double* v, int64_t n, double lo,
                             double hi, uint8_t* mask) = nullptr;
  void (*range_mask_i64)(const int64_t* v, int64_t n, int64_t lo,
                         int64_t hi, uint8_t* mask) = nullptr;
  void (*range_mask_and_i64)(const int64_t* v, int64_t n, int64_t lo,
                             int64_t hi, uint8_t* mask) = nullptr;

  /// Number of set bytes in `mask`.
  int64_t (*mask_count)(const uint8_t* mask, int64_t n) = nullptr;

  /// Masked histogram binning: rows with `mask[i] != 0` are binned into
  /// `counts` (int64, caller-zeroed or accumulating). Returns the rows
  /// binned.
  int64_t (*hist_masked_f64)(const double* v, const uint8_t* mask,
                             int64_t n, double lo, double hi, int64_t bins,
                             int64_t* counts) = nullptr;
  int64_t (*hist_masked_i64)(const int64_t* v, const uint8_t* mask,
                             int64_t n, double lo, double hi, int64_t bins,
                             int64_t* counts) = nullptr;
  /// Unmasked variants (no predicates): every row is binned; returns n.
  int64_t (*hist_f64)(const double* v, int64_t n, double lo, double hi,
                      int64_t bins, int64_t* counts) = nullptr;
  int64_t (*hist_i64)(const int64_t* v, int64_t n, double lo, double hi,
                      int64_t bins, int64_t* counts) = nullptr;

  /// Fused filter+histogram for the all-f64-ranges shape (the
  /// crossfilter hot path): evaluates the conjunction of `clauses` and
  /// bins every passing row of `v` in one pass, with the pass bits held
  /// in registers — no mask materialization or second scan. Bitwise
  /// identical to `range_mask_f64` / `range_mask_and_f64` followed by
  /// `hist_masked_f64` over the same rows: same pass decisions, same bin
  /// selection, same exact int64 counts and return value.
  int64_t (*hist_ranges_f64)(const double* v, int64_t n, double lo,
                             double hi, int64_t bins,
                             const F64RangeClause* clauses, int num_clauses,
                             int64_t* counts) = nullptr;

  /// Masked aggregation. The f64 sum's lane schedule is part of the
  /// contract (see above); the i64 sum wraps mod 2^64 like scalar +=.
  double (*masked_sum_f64)(const double* v, const uint8_t* mask,
                           int64_t n) = nullptr;
  int64_t (*masked_sum_i64)(const int64_t* v, const uint8_t* mask,
                            int64_t n) = nullptr;
};

/// Resolves `kAuto` to the best ISA the CPU supports (cached probe);
/// explicit values pass through — even if unsupported by the CPU, in
/// which case `GetKernelOps` falls back to scalar.
KernelIsa ResolveKernelIsa(KernelIsa requested);

/// The dispatch table for `isa` (`kAuto` = resolve first). Requesting an
/// ISA the CPU or build does not support returns the scalar table — the
/// choice is observable via the returned table's `isa` field.
const KernelOps& GetKernelOps(KernelIsa isa);

namespace kernel_detail {

/// The scalar reference table (always available; the bitwise ground
/// truth the property suite compares SIMD tables against).
extern const KernelOps kScalarOps;

/// Per-ISA tables, or null when this build lacks the intrinsics (e.g.
/// non-x86 targets). Whether the *CPU* supports them is `ProbeCpu`'s
/// business, handled by `GetKernelOps`.
const KernelOps* GetSse42OpsOrNull();
const KernelOps* GetAvx2OpsOrNull();
const KernelOps* GetAvx512OpsOrNull();

}  // namespace kernel_detail

}  // namespace ideval

#endif  // IDEVAL_ENGINE_KERNELS_KERNELS_H_
