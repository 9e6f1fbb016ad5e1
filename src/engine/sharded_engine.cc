#include "engine/sharded_engine.h"

#include <algorithm>
#include <utility>

#include "common/text_table.h"

namespace ideval {

namespace {

/// Modelled coordination cost of combining partial results: ~10 ns per
/// merged cell (bin or row value), the cheap-but-not-free merge stage that
/// eventually saturates scale-out (the DICE observation reproduced by
/// `bench_abl_scaleout`).
Duration MergeCost(int64_t cells) {
  return Duration::Seconds(static_cast<double>(cells) * 10e-9);
}

/// Copies rows [begin, end) of `column` into a new column.
Column SliceColumn(const Column& column, int64_t begin, int64_t end) {
  const size_t b = static_cast<size_t>(begin);
  const size_t e = static_cast<size_t>(end);
  switch (column.type()) {
    case DataType::kInt64: {
      const auto& v = column.int64_data();
      return Column(std::vector<int64_t>(v.begin() + b, v.begin() + e));
    }
    case DataType::kDouble: {
      const auto& v = column.double_data();
      return Column(std::vector<double>(v.begin() + b, v.begin() + e));
    }
    case DataType::kString: {
      const auto& v = column.string_data();
      return Column(std::vector<std::string>(v.begin() + b, v.begin() + e));
    }
  }
  return Column(column.type());  // Unreachable.
}

/// Builds the chunk table holding rows [begin, end) of `table`, under the
/// same name and schema.
TablePtr SliceTable(const Table& table, int64_t begin, int64_t end) {
  std::vector<Column> columns;
  columns.reserve(table.num_columns());
  for (size_t c = 0; c < table.num_columns(); ++c) {
    columns.push_back(SliceColumn(table.column(c), begin, end));
  }
  return std::make_shared<Table>(table.name(), table.schema(),
                                 std::move(columns));
}

}  // namespace

ShardedEngine::ShardedEngine(ShardedEngineOptions options)
    : options_(std::move(options)) {
  shards_.reserve(static_cast<size_t>(options_.num_shards));
  for (int s = 0; s < options_.num_shards; ++s) {
    shards_.push_back(std::make_unique<Engine>(options_.engine_options));
  }
}

Result<std::unique_ptr<ShardedEngine>> ShardedEngine::Create(
    ShardedEngineOptions options) {
  if (options.num_shards < 1) {
    return Status::InvalidArgument(
        StrFormat("num_shards must be >= 1, got %d", options.num_shards));
  }
  return std::unique_ptr<ShardedEngine>(new ShardedEngine(std::move(options)));
}

Status ShardedEngine::PartitionTable(const TablePtr& table) {
  if (table == nullptr) {
    return Status::InvalidArgument("PartitionTable: null table");
  }
  if (table->num_rows() == 0) {
    return Status::InvalidArgument("PartitionTable: empty table '" +
                                   table->name() + "'");
  }
  if (tables_.count(table->name()) != 0) {
    return Status::AlreadyExists("table '" + table->name() +
                                 "' already registered");
  }
  const int64_t rows = static_cast<int64_t>(table->num_rows());
  const int64_t k = num_shards();
  TableInfo info;
  info.partitioned = true;
  info.bounds.resize(static_cast<size_t>(k) + 1);
  for (int64_t s = 0; s <= k; ++s) {
    // Contiguous near-equal chunks; preserves global row order.
    info.bounds[static_cast<size_t>(s)] = rows * s / k;
  }
  for (int64_t s = 0; s < k; ++s) {
    IDEVAL_RETURN_NOT_OK(shards_[static_cast<size_t>(s)]->RegisterTable(
        SliceTable(*table, info.bounds[static_cast<size_t>(s)],
                   info.bounds[static_cast<size_t>(s) + 1])));
  }
  tables_[table->name()] = std::move(info);
  return Status::OK();
}

Status ShardedEngine::ReplicateTable(const TablePtr& table) {
  if (table == nullptr) {
    return Status::InvalidArgument("ReplicateTable: null table");
  }
  if (tables_.count(table->name()) != 0) {
    return Status::AlreadyExists("table '" + table->name() +
                                 "' already registered");
  }
  for (auto& shard : shards_) {
    IDEVAL_RETURN_NOT_OK(shard->RegisterTable(table));
  }
  tables_[table->name()] = TableInfo{};
  return Status::OK();
}

const ShardedEngine::TableInfo* ShardedEngine::FindTable(
    const std::string& name) const {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : &it->second;
}

int ShardedEngine::NextRoundRobinShard() const {
  return static_cast<int>(
      rr_cursor_.fetch_add(1, std::memory_order_relaxed) %
      static_cast<uint32_t>(shards_.size()));
}

Result<ShardedEngine::ShardPlan> ShardedEngine::PlanSelect(
    const SelectQuery& query) const {
  const TableInfo* info = FindTable(query.table);
  if (info == nullptr) {
    return Status::NotFound("table '" + query.table + "' is not registered");
  }
  ShardPlan plan;
  if (!info->partitioned) {
    // Replicated tables run the original query on one shard: trivially
    // exact, including LIMIT/OFFSET order.
    plan.subtasks.push_back({NextRoundRobinShard(), Query(query)});
    return plan;
  }
  // Every shard returns its first offset+limit matches; the merge step
  // applies the global OFFSET over the shard-order concatenation.
  SelectQuery sub = query;
  sub.offset = 0;
  const int64_t offset = std::max<int64_t>(0, query.offset);
  sub.limit = query.limit < 0 ? -1 : offset + query.limit;
  for (int s = 0; s < num_shards(); ++s) {
    plan.subtasks.push_back({s, Query(sub)});
  }
  return plan;
}

Result<ShardedEngine::ShardPlan> ShardedEngine::PlanHistogram(
    const HistogramQuery& query) const {
  const TableInfo* info = FindTable(query.table);
  if (info == nullptr) {
    return Status::NotFound("table '" + query.table + "' is not registered");
  }
  ShardPlan plan;
  if (!info->partitioned) {
    plan.subtasks.push_back({NextRoundRobinShard(), Query(query)});
    return plan;
  }
  // Bins are fixed by the query, so every shard builds the same-shaped
  // partial histogram over its chunk.
  for (int s = 0; s < num_shards(); ++s) {
    plan.subtasks.push_back({s, Query(query)});
  }
  return plan;
}

Result<ShardedEngine::ShardPlan> ShardedEngine::PlanJoinPage(
    const JoinPageQuery& query) const {
  const TableInfo* left = FindTable(query.left_table);
  if (left == nullptr) {
    return Status::NotFound("table '" + query.left_table +
                            "' is not registered");
  }
  const TableInfo* right = FindTable(query.right_table);
  if (right == nullptr) {
    return Status::NotFound("table '" + query.right_table +
                            "' is not registered");
  }
  if (right->partitioned) {
    return Status::InvalidArgument(
        "join probe side '" + query.right_table +
        "' is partitioned; a sharded join needs it replicated "
        "(ShardedEngine::ReplicateTable) so no cross-shard match is lost");
  }
  ShardPlan plan;
  if (!left->partitioned || query.limit < 0 || query.offset < 0) {
    // Replicated-only joins run on one shard; invalid pages are routed
    // there too so the engine's own validation reports the error.
    plan.subtasks.push_back({NextRoundRobinShard(), Query(query)});
    return plan;
  }
  // The left page is positional, so it maps onto the shards whose
  // contiguous chunks overlap [offset, offset+limit).
  const int64_t page_begin = query.offset;
  const int64_t page_end = query.offset + query.limit;
  for (int s = 0; s < num_shards(); ++s) {
    const int64_t chunk_begin = left->bounds[static_cast<size_t>(s)];
    const int64_t chunk_end = left->bounds[static_cast<size_t>(s) + 1];
    const int64_t lo = std::max(page_begin, chunk_begin);
    const int64_t hi = std::min(page_end, chunk_end);
    if (lo >= hi) continue;
    JoinPageQuery sub = query;
    sub.offset = lo - chunk_begin;
    sub.limit = hi - lo;
    plan.subtasks.push_back({s, Query(sub)});
  }
  if (plan.subtasks.empty()) {
    // Page past the end (or LIMIT 0): an empty-page probe on one shard
    // still produces the correctly-shaped empty row set.
    JoinPageQuery sub = query;
    sub.offset = 0;
    sub.limit = 0;
    plan.subtasks.push_back({0, Query(sub)});
  }
  return plan;
}

Result<ShardedEngine::ShardPlan> ShardedEngine::Plan(
    const Query& query) const {
  if (const auto* s = std::get_if<SelectQuery>(&query)) {
    return PlanSelect(*s);
  }
  if (const auto* h = std::get_if<HistogramQuery>(&query)) {
    return PlanHistogram(*h);
  }
  return PlanJoinPage(std::get<JoinPageQuery>(query));
}

Result<QueryResponse> ShardedEngine::Merge(
    const Query& query, const ShardPlan& plan,
    std::vector<QueryResponse> partials) const {
  if (partials.size() != plan.subtasks.size()) {
    return Status::InvalidArgument(
        StrFormat("Merge: %zu partials for %zu subtasks", partials.size(),
                  plan.subtasks.size()));
  }
  if (partials.empty()) {
    return Status::InvalidArgument("Merge: empty plan");
  }
  if (partials.size() == 1) {
    return std::move(partials[0]);
  }

  QueryResponse merged;
  // Partials run in parallel on independent shards: the modelled execution
  // time of the scatter is the slowest partial, work counters are the
  // total work actually performed across shards.
  for (const QueryResponse& p : partials) {
    merged.stats += p.stats;
    merged.execution_time = std::max(merged.execution_time, p.execution_time);
    merged.post_aggregation_time =
        std::max(merged.post_aggregation_time, p.post_aggregation_time);
  }

  if (std::holds_alternative<HistogramQuery>(query)) {
    const auto& q = std::get<HistogramQuery>(query);
    IDEVAL_ASSIGN_OR_RETURN(
        FixedHistogram hist,
        FixedHistogram::Make(q.bin_lo, q.bin_hi,
                             static_cast<size_t>(q.bins)));
    for (const QueryResponse& p : partials) {
      const auto& part = std::get<FixedHistogram>(p.data);
      if (part.num_bins() != hist.num_bins()) {
        return Status::Internal("Merge: partial histogram shape mismatch");
      }
      // Bin-center adds with the partial count as weight: pure count
      // addition, so integer-valued bins merge bitwise-exactly.
      for (size_t b = 0; b < part.num_bins(); ++b) {
        hist.Add(part.BinLowerEdge(b) + 0.5 * part.bin_width(),
                 part.count(b));
      }
    }
    merged.post_aggregation_time += MergeCost(
        static_cast<int64_t>(partials.size()) *
        static_cast<int64_t>(hist.num_bins()));
    merged.stats.groups_built = static_cast<int64_t>(hist.num_bins());
    merged.stats.rows_output = static_cast<int64_t>(hist.num_bins());
    merged.stats.bytes_output = static_cast<double>(hist.num_bins()) * 16.0;
    merged.data = std::move(hist);
    return merged;
  }

  // Row sets (select / join page): shards hold contiguous row ranges, so
  // concatenation in subtask (= shard) order restores global row order.
  RowSet rows;
  rows.column_names = std::get<RowSet>(partials[0].data).column_names;
  int64_t concat_rows = 0;
  for (QueryResponse& p : partials) {
    auto& part = std::get<RowSet>(p.data);
    concat_rows += static_cast<int64_t>(part.rows.size());
    for (auto& row : part.rows) {
      rows.rows.push_back(std::move(row));
    }
  }
  if (const auto* sel = std::get_if<SelectQuery>(&query)) {
    // Subtasks fetched offset+limit matches each; apply the global page.
    const int64_t offset = std::max<int64_t>(0, sel->offset);
    const size_t drop = static_cast<size_t>(
        std::min<int64_t>(offset, static_cast<int64_t>(rows.rows.size())));
    rows.rows.erase(rows.rows.begin(),
                    rows.rows.begin() + static_cast<int64_t>(drop));
    if (sel->limit >= 0 &&
        static_cast<int64_t>(rows.rows.size()) > sel->limit) {
      rows.rows.resize(static_cast<size_t>(sel->limit));
    }
  }
  merged.post_aggregation_time += MergeCost(
      concat_rows * static_cast<int64_t>(rows.column_names.size()));
  merged.stats.rows_output = static_cast<int64_t>(rows.rows.size());
  merged.stats.bytes_output =
      static_cast<double>(rows.rows.size() * rows.column_names.size()) * 24.0;
  merged.data = std::move(rows);
  return merged;
}

Result<QueryResponse> ShardedEngine::Execute(const Query& query) const {
  IDEVAL_ASSIGN_OR_RETURN(ShardPlan plan, Plan(query));
  std::vector<QueryResponse> partials;
  partials.reserve(plan.subtasks.size());
  for (const Subtask& task : plan.subtasks) {
    IDEVAL_ASSIGN_OR_RETURN(QueryResponse partial,
                            shard(task.shard)->Execute(task.query));
    partials.push_back(std::move(partial));
  }
  return Merge(query, plan, std::move(partials));
}

}  // namespace ideval
