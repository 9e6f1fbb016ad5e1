#include "engine/query.h"

#include "common/text_table.h"

namespace ideval {

namespace {

std::string PredicatesToString(const std::vector<Predicate>& predicates) {
  std::string out;
  for (size_t i = 0; i < predicates.size(); ++i) {
    if (i) out += " AND ";
    out += PredicateToString(predicates[i]);
  }
  return out;
}

}  // namespace

std::string QueryToString(const Query& query) {
  if (const auto* s = std::get_if<SelectQuery>(&query)) {
    std::string cols = "*";
    if (!s->columns.empty()) {
      cols.clear();
      for (size_t i = 0; i < s->columns.size(); ++i) {
        if (i) cols += ", ";
        cols += s->columns[i];
      }
    }
    std::string out =
        StrFormat("SELECT %s FROM %s", cols.c_str(), s->table.c_str());
    if (!s->predicates.empty()) {
      out += " WHERE " + PredicatesToString(s->predicates);
    }
    if (s->limit >= 0) {
      out += StrFormat(" LIMIT %lld", static_cast<long long>(s->limit));
    }
    if (s->offset > 0) {
      out += StrFormat(" OFFSET %lld", static_cast<long long>(s->offset));
    }
    return out;
  }
  if (const auto* h = std::get_if<HistogramQuery>(&query)) {
    std::string out = StrFormat(
        "SELECT ROUND((%s - %g) / ((%g - %g) / %lld)), COUNT(*) FROM %s",
        h->bin_column.c_str(), h->bin_lo, h->bin_hi, h->bin_lo,
        static_cast<long long>(h->bins), h->table.c_str());
    if (!h->predicates.empty()) {
      out += " WHERE " + PredicatesToString(h->predicates);
    }
    out += " GROUP BY 1 ORDER BY 1";
    return out;
  }
  const auto& j = std::get<JoinPageQuery>(query);
  return StrFormat(
      "SELECT * FROM (SELECT * FROM %s LIMIT %lld OFFSET %lld) tmp "
      "INNER JOIN %s ON tmp.%s = %s.%s",
      j.left_table.c_str(), static_cast<long long>(j.limit),
      static_cast<long long>(j.offset), j.right_table.c_str(),
      j.join_column.c_str(), j.right_table.c_str(), j.join_column.c_str());
}

QueryWorkStats& QueryWorkStats::operator+=(const QueryWorkStats& o) {
  tuples_scanned += o.tuples_scanned;
  tuples_matched += o.tuples_matched;
  predicates_evaluated += o.predicates_evaluated;
  blocks_scanned += o.blocks_scanned;
  blocks_pruned += o.blocks_pruned;
  pages_requested += o.pages_requested;
  pages_missed += o.pages_missed;
  groups_built += o.groups_built;
  hash_build_rows += o.hash_build_rows;
  hash_probe_rows += o.hash_probe_rows;
  rows_output += o.rows_output;
  bytes_output += o.bytes_output;
  return *this;
}

}  // namespace ideval
