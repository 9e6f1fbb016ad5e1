#ifndef IDEVAL_ENGINE_PREDICATE_H_
#define IDEVAL_ENGINE_PREDICATE_H_

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "common/result.h"
#include "engine/kernels/kernels.h"
#include "storage/table.h"

namespace ideval {

/// Inclusive numeric range filter `lo <= column <= hi` — the predicate form
/// every slider, map viewport edge, and zoom level compiles to (§2.1: "one
/// zoom action triggers two predicate changes in the WHERE clause").
struct RangePredicate {
  std::string column;
  double lo = 0.0;
  double hi = 0.0;

  bool operator==(const RangePredicate&) const = default;
};

/// Equality filter on a string column (check boxes, room-type facets).
struct StringEqPredicate {
  std::string column;
  std::string value;

  bool operator==(const StringEqPredicate&) const = default;
};

/// Set-membership filter on a string column (`column IN (v1, v2, ...)`):
/// what multi-select facet check boxes compile to.
struct StringInPredicate {
  std::string column;
  std::vector<std::string> values;

  bool operator==(const StringInPredicate&) const = default;
};

/// One WHERE-clause conjunct.
using Predicate =
    std::variant<RangePredicate, StringEqPredicate, StringInPredicate>;

/// Returns the column a predicate filters on.
const std::string& PredicateColumn(const Predicate& predicate);

/// Renders a predicate as SQL-ish text ("x >= 8.146 AND x <= 11.26").
std::string PredicateToString(const Predicate& predicate);

/// A conjunction of predicates compiled against a table: resolves column
/// names to raw column storage once, then evaluates row-at-a-time with no
/// per-row lookups or variant dispatch (this is the hot path of every
/// scan; the experiment benches execute tens of thousands of full-table
/// scans).
///
/// The compiled object borrows the table's column storage: the table must
/// outlive it and must not be mutated while it is in use (tables are
/// immutable after build, so this holds by construction).
class CompiledPredicates {
 public:
  /// Compiles `predicates` against `table`'s schema. Errors if a column is
  /// missing or a range predicate targets a string column.
  static Result<CompiledPredicates> Compile(
      const Table& table, const std::vector<Predicate>& predicates);

  /// True if row `row` satisfies every conjunct.
  bool Matches(size_t row) const {
    for (const auto& r : ranges_) {
      const double v = r.int64_data != nullptr
                           ? static_cast<double>(r.int64_data[row])
                           : r.double_data[row];
      if (v < r.lo || v > r.hi) return false;
    }
    for (const auto& eq : string_eqs_) {
      if ((*eq.data)[row] != eq.value) return false;
    }
    for (const auto& in : string_ins_) {
      const std::string& cell = (*in.data)[row];
      bool found = false;
      for (const auto& v : in.values) {
        if (cell == v) {
          found = true;
          break;
        }
      }
      if (!found) return false;
    }
    return true;
  }

  /// Back-compat overload; `table` must be the table compiled against.
  bool Matches(const Table& table, size_t row) const {
    (void)table;
    return Matches(row);
  }

  /// Columnar evaluation of the conjunction over rows [row_begin,
  /// row_begin + n): writes one byte per row into `mask` (1 = row passes
  /// every conjunct). Range conjuncts run through the `ops` kernels —
  /// the first fills the mask, the rest AND into it; string conjuncts
  /// stay scalar (no columnar fast path over std::string) and AND last.
  /// With no conjuncts the mask is all ones. Bitwise-identical to
  /// calling `Matches(row)` per row, for every kernel ISA.
  void EvalMask(const KernelOps& ops, size_t row_begin, int64_t n,
                uint8_t* mask) const;

  size_t num_predicates() const {
    return ranges_.size() + string_eqs_.size() + string_ins_.size();
  }

  size_t num_ranges() const { return ranges_.size(); }

  /// True iff every conjunct is a numeric range over an f64 column — the
  /// shape `KernelOps::hist_ranges_f64` fuses into a single filter+bin
  /// pass (docs/kernels.md).
  bool AllF64Ranges() const {
    if (!string_eqs_.empty() || !string_ins_.empty()) return false;
    for (const auto& r : ranges_) {
      if (r.double_data == nullptr) return false;
    }
    return true;
  }

  /// Fills `clauses[0 .. num_ranges())` with borrowed column pointers
  /// advanced to `row_begin`. Only valid when `AllF64Ranges()`.
  void FillF64Clauses(size_t row_begin, F64RangeClause* clauses) const {
    for (size_t k = 0; k < ranges_.size(); ++k) {
      clauses[k] = F64RangeClause{ranges_[k].double_data + row_begin,
                                  ranges_[k].lo, ranges_[k].hi};
    }
  }

  /// True iff at least one conjunct is a numeric range — the only kind
  /// zone maps can prune on.
  bool has_range_predicates() const { return !ranges_.empty(); }

  /// Zone-map block test: false iff some range conjunct's [lo, hi] is
  /// disjoint from block `block`'s min/max summary in `zone_maps`, i.e.
  /// no row of the block can match and the scan may skip it outright.
  /// `zone_maps` must summarize the table this was compiled against.
  bool MayMatchBlock(const TableZoneMaps& zone_maps, size_t block) const {
    for (const auto& r : ranges_) {
      const ColumnZoneMap& zm = zone_maps.columns[r.column];
      if (zm.min.empty()) continue;  // No summary for this column.
      if (zm.min[block] > r.hi || zm.max[block] < r.lo) return false;
    }
    return true;
  }

 private:
  struct CompiledRange {
    const int64_t* int64_data = nullptr;  ///< Set iff column is int64.
    const double* double_data = nullptr;  ///< Set iff column is double.
    double lo = 0.0, hi = 0.0;
    /// Exact integer-domain bounds of the widened [lo, hi] test,
    /// precomputed at Compile time for int64 columns so the kernel
    /// compares never convert per row (see WidenedRangeToI64).
    I64RangeBounds i64_bounds;
    size_t column = 0;  ///< Column index, for zone-map lookups.
  };
  struct CompiledStringEq {
    const std::vector<std::string>* data = nullptr;
    std::string value;
  };
  struct CompiledStringIn {
    const std::vector<std::string>* data = nullptr;
    std::vector<std::string> values;
  };

  std::vector<CompiledRange> ranges_;
  std::vector<CompiledStringEq> string_eqs_;
  std::vector<CompiledStringIn> string_ins_;
};

/// Kernel-driven filtered histogram scan over rows [begin, end) — the
/// inner loop of `Engine::RunHistogramMorsels`.
/// Chunks the range into `kKernelScanChunk`-row stretches,
/// materializes the predicate mask per chunk via `preds.EvalMask`, and
/// bins matching rows of the bin column (exactly one of `int_vals` /
/// `dbl_vals` non-null, pointing at row 0) into `counts` (caller-zeroed
/// or accumulating, `FixedHistogram::Add` bin semantics over [lo, hi) ×
/// `bins`). Returns the number of rows binned. Counts are exact int64,
/// so any split of a row range across calls sums to the same counts.
int64_t HistScanRange(const KernelOps& ops, const CompiledPredicates& preds,
                      const int64_t* int_vals, const double* dbl_vals,
                      double lo, double hi, int64_t bins, int64_t begin,
                      int64_t end, int64_t* counts);

}  // namespace ideval

#endif  // IDEVAL_ENGINE_PREDICATE_H_
