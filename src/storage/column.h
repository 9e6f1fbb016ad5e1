#ifndef IDEVAL_STORAGE_COLUMN_H_
#define IDEVAL_STORAGE_COLUMN_H_

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "common/result.h"
#include "storage/value.h"

namespace ideval {

/// Per-block min/max summary of one numeric column (a zone map). Index
/// `b` summarizes the `b`-th block of `block_rows` consecutive rows;
/// `min`/`max` are empty for string columns (no range pruning there).
/// Int64 values are widened to double, matching how `RangePredicate`
/// compares them. A block holding a NaN summarizes as NaN, so no range
/// conjunct prunes it (a NaN value passes every range conjunct).
struct ColumnZoneMap {
  std::vector<double> min;
  std::vector<double> max;

  size_t num_blocks() const { return min.size(); }
};

/// A typed column of values stored contiguously (columnar layout).
///
/// The execution engine reads the typed vectors directly for scan-heavy
/// operators (range filters, histogram builds) and falls back to `Get` for
/// row-at-a-time paths (LIMIT/OFFSET result materialization).
class Column {
 public:
  /// Creates an empty column of the given type.
  explicit Column(DataType type);

  /// Wraps existing data (takes ownership).
  explicit Column(std::vector<int64_t> data) : data_(std::move(data)) {}
  explicit Column(std::vector<double> data) : data_(std::move(data)) {}
  explicit Column(std::vector<std::string> data) : data_(std::move(data)) {}

  DataType type() const;

  size_t size() const;

  /// Appends a value; returns InvalidArgument on type mismatch.
  Status Append(const Value& value);

  /// Typed appends for builders / generators (no dispatch cost).
  void AppendInt64(int64_t v) { std::get<0>(data_).push_back(v); }
  void AppendDouble(double v) { std::get<1>(data_).push_back(v); }
  void AppendString(std::string v) {
    std::get<2>(data_).push_back(std::move(v));
  }

  /// Cell accessor with dynamic typing. Requires `row < size()`.
  Value Get(size_t row) const;

  /// Numeric view of a cell (int64 widened). Requires a numeric column.
  double GetDouble(size_t row) const;

  /// Typed borrows for hot loops. Require the matching type.
  const std::vector<int64_t>& int64_data() const {
    return std::get<0>(data_);
  }
  const std::vector<double>& double_data() const { return std::get<1>(data_); }
  const std::vector<std::string>& string_data() const {
    return std::get<2>(data_);
  }

  /// Approximate in-memory footprint of one cell, used by the disk engine's
  /// page-layout model (strings use their average length).
  double AvgCellBytes() const;

  /// Min/max over a numeric column; error on string columns or empty data.
  Result<double> NumericMin() const;
  Result<double> NumericMax() const;

  /// Per-block min/max summary of this column: entry `b` covers rows
  /// `[b * block_rows, min(size, (b+1) * block_rows))`. Scans use these as
  /// zone maps to skip blocks a range predicate cannot match. Requires
  /// `block_rows >= 1`; returns an empty summary for string columns.
  ColumnZoneMap BuildZoneMap(int64_t block_rows) const;

 private:
  std::variant<std::vector<int64_t>, std::vector<double>,
               std::vector<std::string>>
      data_;
};

}  // namespace ideval

#endif  // IDEVAL_STORAGE_COLUMN_H_
