#include "storage/column.h"

#include <algorithm>
#include <cmath>

namespace ideval {

Column::Column(DataType type) {
  switch (type) {
    case DataType::kInt64:
      data_ = std::vector<int64_t>{};
      break;
    case DataType::kDouble:
      data_ = std::vector<double>{};
      break;
    case DataType::kString:
      data_ = std::vector<std::string>{};
      break;
  }
}

DataType Column::type() const {
  switch (data_.index()) {
    case 0:
      return DataType::kInt64;
    case 1:
      return DataType::kDouble;
    default:
      return DataType::kString;
  }
}

size_t Column::size() const {
  return std::visit([](const auto& v) { return v.size(); }, data_);
}

Status Column::Append(const Value& value) {
  if (value.type() != type()) {
    return Status::InvalidArgument(
        std::string("cannot append ") + DataTypeToString(value.type()) +
        " value to " + DataTypeToString(type()) + " column");
  }
  switch (type()) {
    case DataType::kInt64:
      AppendInt64(value.int64());
      break;
    case DataType::kDouble:
      AppendDouble(value.dbl());
      break;
    case DataType::kString:
      AppendString(value.str());
      break;
  }
  return Status::OK();
}

Value Column::Get(size_t row) const {
  switch (type()) {
    case DataType::kInt64:
      return Value(std::get<0>(data_)[row]);
    case DataType::kDouble:
      return Value(std::get<1>(data_)[row]);
    case DataType::kString:
      return Value(std::get<2>(data_)[row]);
  }
  return Value();
}

double Column::GetDouble(size_t row) const {
  if (type() == DataType::kInt64) {
    return static_cast<double>(std::get<0>(data_)[row]);
  }
  return std::get<1>(data_)[row];
}

double Column::AvgCellBytes() const {
  switch (type()) {
    case DataType::kInt64:
    case DataType::kDouble:
      return 8.0;
    case DataType::kString: {
      const auto& strs = std::get<2>(data_);
      if (strs.empty()) return 16.0;
      size_t total = 0;
      for (const auto& s : strs) total += s.size();
      // Payload plus a 16-byte varlen header, roughly matching how row
      // stores account for varchar cells.
      return static_cast<double>(total) / static_cast<double>(strs.size()) +
             16.0;
    }
  }
  return 8.0;
}

Result<double> Column::NumericMin() const {
  if (type() == DataType::kString) {
    return Status::InvalidArgument("NumericMin on string column");
  }
  if (size() == 0) return Status::InvalidArgument("NumericMin on empty column");
  if (type() == DataType::kInt64) {
    const auto& v = std::get<0>(data_);
    return static_cast<double>(*std::min_element(v.begin(), v.end()));
  }
  const auto& v = std::get<1>(data_);
  return *std::min_element(v.begin(), v.end());
}

ColumnZoneMap Column::BuildZoneMap(int64_t block_rows) const {
  ColumnZoneMap zm;
  if (type() == DataType::kString || block_rows < 1) return zm;
  const size_t n = size();
  const size_t stride = static_cast<size_t>(block_rows);
  const size_t blocks = (n + stride - 1) / stride;
  zm.min.reserve(blocks);
  zm.max.reserve(blocks);
  for (size_t begin = 0; begin < n; begin += stride) {
    const size_t end = std::min(n, begin + stride);
    double lo = GetDouble(begin);
    double hi = lo;
    if (type() == DataType::kInt64) {
      const auto& v = std::get<0>(data_);
      for (size_t i = begin + 1; i < end; ++i) {
        const double d = static_cast<double>(v[i]);
        lo = std::min(lo, d);
        hi = std::max(hi, d);
      }
    } else {
      // A NaN passes every range conjunct, so a block holding one must
      // never be pruned: its summary becomes NaN, which compares false
      // against every bound.
      const auto& v = std::get<1>(data_);
      for (size_t i = begin + 1; i < end && !std::isnan(lo); ++i) {
        lo = std::isnan(v[i]) ? v[i] : std::min(lo, v[i]);
        hi = std::isnan(v[i]) ? v[i] : std::max(hi, v[i]);
      }
    }
    zm.min.push_back(lo);
    zm.max.push_back(hi);
  }
  return zm;
}

Result<double> Column::NumericMax() const {
  if (type() == DataType::kString) {
    return Status::InvalidArgument("NumericMax on string column");
  }
  if (size() == 0) return Status::InvalidArgument("NumericMax on empty column");
  if (type() == DataType::kInt64) {
    const auto& v = std::get<0>(data_);
    return static_cast<double>(*std::max_element(v.begin(), v.end()));
  }
  const auto& v = std::get<1>(data_);
  return *std::max_element(v.begin(), v.end());
}

}  // namespace ideval
