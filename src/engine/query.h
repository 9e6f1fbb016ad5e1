#ifndef IDEVAL_ENGINE_QUERY_H_
#define IDEVAL_ENGINE_QUERY_H_

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "common/stats.h"
#include "engine/predicate.h"
#include "storage/value.h"

namespace ideval {

/// §6's Q1: `SELECT <columns> FROM <table> [WHERE ...] LIMIT n OFFSET m`.
///
/// The table is assumed pre-sorted in display order (the movie list is
/// "top rated"), so LIMIT/OFFSET is positional — exactly the lazy-loading
/// access pattern of scrolling interfaces.
struct SelectQuery {
  std::string table;
  std::vector<std::string> columns;  ///< Empty = all columns.
  std::vector<Predicate> predicates;
  int64_t limit = -1;   ///< -1 = no limit.
  int64_t offset = 0;

  bool operator==(const SelectQuery&) const = default;
};

/// §7's crossfilter query: a filtered 20-bin COUNT histogram over one
/// attribute, i.e.
///
///     SELECT ROUND((y - lo) / ((hi - lo) / bins)), COUNT(*)
///     FROM dataroad WHERE <ranges on x, y, z> GROUP BY 1 ORDER BY 1
struct HistogramQuery {
  std::string table;
  std::string bin_column;
  double bin_lo = 0.0;
  double bin_hi = 1.0;
  int64_t bins = 20;
  std::vector<Predicate> predicates;

  bool operator==(const HistogramQuery&) const = default;
};

/// §6's Q2: streaming-style join of a LIMIT/OFFSET page of the left table
/// to the right table on an equality key:
///
///     SELECT ... FROM (SELECT id, rating FROM imdbrating
///                      LIMIT n OFFSET m) tmp
///     INNER JOIN movie ON tmp.id = movie.id
struct JoinPageQuery {
  std::string left_table;   ///< Paged side (e.g. "imdbrating").
  std::string right_table;  ///< Probe side (e.g. "movie").
  std::string join_column;  ///< Key present in both tables.
  int64_t limit = 100;
  int64_t offset = 0;

  bool operator==(const JoinPageQuery&) const = default;
};

/// Any query the engines accept.
using Query = std::variant<SelectQuery, HistogramQuery, JoinPageQuery>;

/// Renders a query as SQL-ish text for logs and traces.
std::string QueryToString(const Query& query);

/// Materialized rows (row-major) for select/join queries.
struct RowSet {
  std::vector<std::string> column_names;
  std::vector<std::vector<Value>> rows;

  bool operator==(const RowSet&) const = default;
};

/// Result payload: rows or a histogram.
using QueryResultData = std::variant<RowSet, FixedHistogram>;

/// Work counters accumulated during execution; input to the cost model and
/// the backend-centric metrics of §3.1.1.
struct QueryWorkStats {
  int64_t tuples_scanned = 0;   ///< Tuples the scan visited.
  int64_t tuples_matched = 0;   ///< Tuples surviving all predicates.
  int64_t predicates_evaluated = 0;
  /// Zone-map accounting (zero unless the engine scanned with zone maps):
  /// blocks the scan visited vs. blocks skipped because their min/max
  /// range cannot satisfy a range predicate. Pruned blocks contribute
  /// nothing to `tuples_scanned` or the page counters, which is how the
  /// cost model charges only visited blocks.
  int64_t blocks_scanned = 0;
  int64_t blocks_pruned = 0;
  int64_t pages_requested = 0;  ///< Disk-profile page lookups.
  int64_t pages_missed = 0;     ///< Buffer-pool misses (physical reads).
  int64_t groups_built = 0;     ///< Histogram bins touched.
  int64_t hash_build_rows = 0;  ///< Join build-side size.
  int64_t hash_probe_rows = 0;  ///< Join probe count.
  int64_t rows_output = 0;
  double bytes_output = 0.0;

  QueryWorkStats& operator+=(const QueryWorkStats& o);
  bool operator==(const QueryWorkStats&) const = default;
};

}  // namespace ideval

#endif  // IDEVAL_ENGINE_QUERY_H_
