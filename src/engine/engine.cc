#include "engine/engine.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <unordered_map>

namespace ideval {
namespace {

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// True iff `a` and `b` are the same list of range conjuncts, bit for
/// bit; false if either holds another kind of predicate.
bool SameRanges(const std::vector<Predicate>& a,
                const std::vector<Predicate>& b) {
  if (a.size() != b.size()) return false;
  for (size_t k = 0; k < a.size(); ++k) {
    const auto* ra = std::get_if<RangePredicate>(&a[k]);
    const auto* rb = std::get_if<RangePredicate>(&b[k]);
    if (ra == nullptr || rb == nullptr || ra->column != rb->column ||
        !SameBits(ra->lo, rb->lo) || !SameBits(ra->hi, rb->hi)) {
      return false;
    }
  }
  return true;
}

/// The positions of `sorted` (non-NaN rows of `v` in value order) whose
/// value passes `!(x < lo) && !(x > hi)`: [L, max(L, U)) with L the
/// first position not below `lo` and U the first above `hi`. A NaN `lo`
/// gives L = 0 and a NaN `hi` gives U = size, as the compares are false.
std::pair<int64_t, int64_t> PassInterval(const std::vector<uint32_t>& sorted,
                                         const double* v, double lo,
                                         double hi) {
  const auto first = sorted.begin();
  const int64_t l = std::partition_point(
                        first, sorted.end(),
                        [&](uint32_t r) { return v[r] < lo; }) -
                    first;
  const int64_t u = std::partition_point(
                        first, sorted.end(),
                        [&](uint32_t r) { return !(v[r] > hi); }) -
                    first;
  return {l, std::max(l, u)};
}

}  // namespace

const char* EngineProfileToString(EngineProfile profile) {
  switch (profile) {
    case EngineProfile::kDiskRowStore:
      return "disk-row-store";
    case EngineProfile::kInMemoryColumnStore:
      return "in-memory-column-store";
  }
  return "unknown";
}

Engine::Engine(EngineOptions options)
    : options_(options), kops_(&GetKernelOps(options.kernel_isa)) {
  if (options_.cost_model.has_value()) {
    cost_model_ = *options_.cost_model;
  } else if (options_.profile == EngineProfile::kDiskRowStore) {
    cost_model_ = CostModel::DiskRowStore();
  } else {
    cost_model_ = CostModel::InMemoryColumnStore();
  }
  if (options_.profile == EngineProfile::kDiskRowStore) {
    buffer_pool_ = std::make_unique<BufferPool>(options_.buffer_pool_pages);
  }
}

Status Engine::RegisterTable(TablePtr table) {
  if (table == nullptr) {
    return Status::InvalidArgument("RegisterTable: null table");
  }
  const std::string& name = table->name();
  if (tables_.count(name) != 0) {
    return Status::AlreadyExists("table '" + name + "' already registered");
  }
  if (options_.enable_zone_maps) {
    if (options_.zone_map_block_rows < 1) {
      return Status::InvalidArgument("zone_map_block_rows must be >= 1");
    }
    zone_maps_[name] = table->BuildZoneMaps(options_.zone_map_block_rows);
  }
  sorted_.try_emplace(name, table->num_columns());
  tables_[name] = std::move(table);
  return Status::OK();
}

const TableZoneMaps* Engine::ZoneMapsFor(const std::string& name) const {
  auto it = zone_maps_.find(name);
  return it != zone_maps_.end() ? &it->second : nullptr;
}

Result<TablePtr> Engine::GetTable(const std::string& name) const {
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("table '" + name + "' is not registered");
  }
  return it->second;
}

void Engine::ClearCaches() {
  std::lock_guard<std::mutex> lock(pool_mu_);
  if (buffer_pool_ != nullptr) buffer_pool_->Clear();
  blocks_scanned_total_.store(0, std::memory_order_relaxed);
  blocks_pruned_total_.store(0, std::memory_order_relaxed);
}

void Engine::ChargePages(const Table& table, int64_t first_row,
                         int64_t tuples, QueryWorkStats* stats) const {
  if (buffer_pool_ == nullptr || tuples <= 0) return;
  const int64_t per_page = cost_model_.TuplesPerPage(table.AvgRowBytes());
  const int64_t first_page = first_row / per_page;
  const int64_t last_page = (first_row + tuples - 1) / per_page;
  std::lock_guard<std::mutex> lock(pool_mu_);
  for (int64_t p = first_page; p <= last_page; ++p) {
    ++stats->pages_requested;
    if (!buffer_pool_->Access(PageId{table.name(), p})) {
      ++stats->pages_missed;
    }
  }
}

void Engine::FinalizeTimes(QueryResponse* response) const {
  response->execution_time = cost_model_.ExecutionTime(response->stats);
  response->post_aggregation_time =
      cost_model_.PostAggregationTime(response->stats);
}

Result<QueryResponse> Engine::Execute(const Query& query) const {
  if (const auto* h = std::get_if<HistogramQuery>(&query)) {
    // One participant runs the whole scan; the merge records pruning.
    IDEVAL_ASSIGN_OR_RETURN(std::unique_ptr<HistogramScan> scan,
                            PrepareHistogram(*h));
    std::vector<HistogramPartial> partials(1);
    RunHistogramMorsels(*scan, &partials[0]);
    return MergeHistogram(*scan, partials);
  }
  Result<QueryResponse> r =
      std::holds_alternative<SelectQuery>(query)
          ? ExecuteSelect(std::get<SelectQuery>(query))
          : ExecuteJoinPage(std::get<JoinPageQuery>(query));
  if (r.ok()) RecordPruning(r->stats);
  return r;
}

Result<QueryResponse> Engine::ExecuteSelect(const SelectQuery& query) const {
  IDEVAL_ASSIGN_OR_RETURN(TablePtr table, GetTable(query.table));
  IDEVAL_ASSIGN_OR_RETURN(
      CompiledPredicates preds,
      CompiledPredicates::Compile(*table, query.predicates));

  // Resolve projection.
  std::vector<size_t> proj;
  RowSet rows;
  if (query.columns.empty()) {
    for (size_t c = 0; c < table->num_columns(); ++c) {
      proj.push_back(c);
      rows.column_names.push_back(table->schema().field(c).name);
    }
  } else {
    for (const auto& name : query.columns) {
      IDEVAL_ASSIGN_OR_RETURN(size_t idx, table->schema().FieldIndex(name));
      proj.push_back(idx);
      rows.column_names.push_back(name);
    }
  }

  QueryResponse response;
  QueryWorkStats& stats = response.stats;
  const int64_t n = static_cast<int64_t>(table->num_rows());
  const int64_t offset = std::max<int64_t>(0, query.offset);
  const int64_t limit = query.limit < 0 ? n : query.limit;

  // A LIMIT/OFFSET scan with no predicates visits offset+limit tuples
  // (how a row store without a positional index pages through results);
  // with predicates it must scan until `offset+limit` matches are found.
  // With zone maps the scan walks blocks and skips any block whose
  // min/max summary is disjoint from a range conjunct — skipped blocks
  // hold no matches, so LIMIT/OFFSET match order is unaffected. Without
  // zone maps the whole table is one block and the loop degrades to the
  // plain row scan with identical accounting.
  int64_t matched = 0;
  const double out_bytes_per_row =
      static_cast<double>(proj.size()) * 24.0;  // Rough wire width.
  const TableZoneMaps* zm = ZoneMapsFor(query.table);
  const bool prune =
      zm != nullptr && preds.has_range_predicates() && zm->num_blocks > 0;
  const int64_t block_rows = prune ? zm->block_rows : n;
  // Pages are charged per contiguous run of visited blocks, so a scan
  // that prunes nothing charges exactly the pages of the unpruned loop.
  int64_t run_begin = -1;
  auto flush_run = [&](int64_t run_end) {
    if (run_begin >= 0) {
      ChargePages(*table, run_begin, run_end - run_begin, &stats);
    }
    run_begin = -1;
  };
  // LIMIT 0 is a shape probe: no rows, no scan.
  bool done = limit <= 0;
  for (int64_t begin = 0; begin < n && !done; begin += block_rows) {
    const int64_t end = std::min(n, begin + block_rows);
    if (prune &&
        !preds.MayMatchBlock(*zm, static_cast<size_t>(begin / block_rows))) {
      ++stats.blocks_pruned;
      flush_run(begin);
      continue;
    }
    if (prune) ++stats.blocks_scanned;
    if (run_begin < 0) run_begin = begin;
    // Kernel path: the predicate mask is materialized one chunk at a
    // time; the consume loop below walks it for offset/limit and
    // materialization. Work counters only cover rows actually consumed —
    // when the limit lands mid-chunk the kernels evaluated the rest of
    // the chunk too (wasted compute, but identical accounting to the old
    // early-exit row loop, which the modelled time is calibrated on).
    alignas(64) uint8_t mask[kKernelScanChunk];
    int64_t row = begin;
    for (int64_t chunk = begin; chunk < end && !done;
         chunk += kKernelScanChunk) {
      const int64_t len = std::min<int64_t>(kKernelScanChunk, end - chunk);
      preds.EvalMask(*kops_, static_cast<size_t>(chunk), len, mask);
      for (int64_t i = 0; i < len; ++i) {
        row = chunk + i;
        ++stats.tuples_scanned;
        stats.predicates_evaluated +=
            static_cast<int64_t>(preds.num_predicates());
        if (!mask[i]) continue;
        ++matched;
        if (matched <= offset) continue;
        std::vector<Value> out;
        out.reserve(proj.size());
        for (size_t c : proj) {
          out.push_back(table->At(static_cast<size_t>(row), c));
        }
        rows.rows.push_back(std::move(out));
        if (static_cast<int64_t>(rows.rows.size()) >= limit) {
          ++row;
          done = true;
          break;
        }
      }
    }
    if (done) flush_run(row);
  }
  if (!done) flush_run(n);
  stats.tuples_matched = matched;
  stats.rows_output = static_cast<int64_t>(rows.rows.size());
  stats.bytes_output = out_bytes_per_row * static_cast<double>(
                                               stats.rows_output);
  response.data = std::move(rows);
  FinalizeTimes(&response);
  return response;
}

Result<std::unique_ptr<HistogramScan>> Engine::PrepareHistogram(
    const HistogramQuery& query) const {
  IDEVAL_ASSIGN_OR_RETURN(TablePtr table, GetTable(query.table));
  IDEVAL_ASSIGN_OR_RETURN(
      CompiledPredicates preds,
      CompiledPredicates::Compile(*table, query.predicates));
  IDEVAL_ASSIGN_OR_RETURN(const Column* bin_col,
                          table->ColumnByName(query.bin_column));
  if (bin_col->type() == DataType::kString) {
    return Status::InvalidArgument("histogram over string column '" +
                                   query.bin_column + "'");
  }
  if (query.bins <= 0) {
    return Status::InvalidArgument("histogram bins must be > 0");
  }
  // Validate the bin range up front (lo < hi etc.) so bad queries fail
  // before any scan; the real histogram is built from the kernel counts
  // at the merge via FromCounts, which is bitwise-equal to per-row Add.
  {
    Result<FixedHistogram> probe = FixedHistogram::Make(
        query.bin_lo, query.bin_hi, static_cast<size_t>(query.bins));
    if (!probe.ok()) return probe.status();
  }
  auto scan = std::make_unique<HistogramScan>();
  // Borrow raw column storage once (the table is immutable).
  if (bin_col->type() == DataType::kInt64) {
    scan->int_vals = bin_col->int64_data().data();
  } else {
    scan->dbl_vals = bin_col->double_data().data();
  }
  const TableZoneMaps* zm = ZoneMapsFor(query.table);
  if (preds.has_range_predicates() && zm != nullptr && zm->num_blocks > 0) {
    scan->zone_maps = zm;
  }
  scan->bin_lo = query.bin_lo;
  scan->bin_hi = query.bin_hi;
  scan->bins = query.bins;
  const int64_t n = static_cast<int64_t>(table->num_rows());
  const int64_t morsel_rows =
      buffer_pool_ != nullptr
          ? std::max<int64_t>(1, n)
          : kMorselBlocks * std::max<int64_t>(1, options_.zone_map_block_rows);
  scan->queue.morsel_rows = morsel_rows;
  scan->queue.num_morsels = (n + morsel_rows - 1) / morsel_rows;
  scan->table = std::move(table);
  scan->preds = std::move(preds);
  return scan;
}

int64_t Engine::RunHistogramMorsels(const HistogramScan& scan,
                                    HistogramPartial* partial) const {
  partial->counts.resize(static_cast<size_t>(scan.bins), 0);
  QueryWorkStats& stats = partial->stats;
  const Table& table = *scan.table;
  const int64_t n = static_cast<int64_t>(table.num_rows());
  const TableZoneMaps* zm = scan.zone_maps;
  MorselQueue& queue = scan.queue;
  int64_t claimed = 0;
  // Steal loop: claim the next morsel until the queue drains. Inside one,
  // skip zone-map blocks whose min/max range is disjoint from a range
  // conjunct (their rows cannot match, so only the work drops) and bin
  // the rest with the SIMD kernels. Pages are charged per run of visited
  // blocks inside a morsel; only the disk profile charges pages, and its
  // scans are one morsel, so its charges are those of a serial walk.
  for (;;) {
    const int64_t m = queue.next.fetch_add(1, std::memory_order_relaxed);
    if (m >= queue.num_morsels) break;
    ++claimed;
    const int64_t mbegin = m * queue.morsel_rows;
    const int64_t mend = std::min(n, mbegin + queue.morsel_rows);
    const int64_t block_rows = zm != nullptr ? zm->block_rows : mend - mbegin;
    int64_t run_begin = -1;
    auto flush_run = [&](int64_t run_end) {
      if (run_begin >= 0) {
        ChargePages(table, run_begin, run_end - run_begin, &stats);
      }
      run_begin = -1;
    };
    for (int64_t begin = mbegin; begin < mend; begin += block_rows) {
      const int64_t end = std::min(mend, begin + block_rows);
      if (zm != nullptr) {
        if (!scan.preds.MayMatchBlock(
                *zm, static_cast<size_t>(begin / block_rows))) {
          ++stats.blocks_pruned;
          flush_run(begin);
          continue;
        }
        ++stats.blocks_scanned;
      }
      if (run_begin < 0) run_begin = begin;
      stats.tuples_matched += HistScanRange(
          *kops_, scan.preds, scan.int_vals, scan.dbl_vals, scan.bin_lo,
          scan.bin_hi, scan.bins, begin, end, partial->counts.data());
      stats.tuples_scanned += end - begin;
    }
    flush_run(mend);
  }
  return claimed;
}

Result<QueryResponse> Engine::MergeHistogram(
    const HistogramScan& scan,
    const std::vector<HistogramPartial>& partials) const {
  std::vector<int64_t> counts(static_cast<size_t>(scan.bins), 0);
  QueryResponse response;
  QueryWorkStats& stats = response.stats;
  for (const HistogramPartial& p : partials) {
    const size_t bins = std::min(p.counts.size(), counts.size());
    for (size_t b = 0; b < bins; ++b) counts[b] += p.counts[b];
    stats += p.stats;
  }
  std::vector<double> dcounts(counts.begin(), counts.end());
  IDEVAL_ASSIGN_OR_RETURN(
      FixedHistogram hist,
      FixedHistogram::FromCounts(scan.bin_lo, scan.bin_hi,
                                 std::move(dcounts)));
  stats.predicates_evaluated =
      stats.tuples_scanned * static_cast<int64_t>(scan.preds.num_predicates());
  stats.groups_built = static_cast<int64_t>(hist.num_bins());
  stats.rows_output = static_cast<int64_t>(hist.num_bins());
  stats.bytes_output = static_cast<double>(hist.num_bins()) * 16.0;
  response.data = std::move(hist);
  FinalizeTimes(&response);
  RecordPruning(stats);
  return response;
}

const std::vector<uint32_t>& Engine::SortedRows(const std::string& name,
                                                size_t column) const {
  const SortedColumn& slot = sorted_.at(name)[column];
  std::call_once(slot.once, [&] {
    const std::vector<double>& v =
        tables_.at(name)->column(column).double_data();
    std::vector<uint32_t> rows;
    rows.reserve(v.size());
    for (size_t r = 0; r < v.size(); ++r) {
      if (!std::isnan(v[r])) rows.push_back(static_cast<uint32_t>(r));
    }
    std::sort(rows.begin(), rows.end(),
              [&v](uint32_t a, uint32_t b) { return v[a] < v[b]; });
    slot.rows = std::move(rows);
  });
  return slot.rows;
}

std::optional<std::vector<QueryResponse>> Engine::ExecuteHistogramDrag(
    const HistogramGroupCounts& base,
    const std::vector<Query>& queries) const {
  // The disk profile's page charges model a serial walk of the pool.
  if (buffer_pool_ != nullptr || queries.empty() ||
      base.queries.size() != queries.size() ||
      base.counts.size() != queries.size()) {
    return std::nullopt;
  }
  const auto* first = std::get_if<HistogramQuery>(&queries[0]);
  if (first == nullptr) return std::nullopt;
  const std::vector<Predicate>& now = first->predicates;
  const std::vector<Predicate>& before = base.queries[0].predicates;
  for (size_t i = 0; i < queries.size(); ++i) {
    const auto* q = std::get_if<HistogramQuery>(&queries[i]);
    const HistogramQuery& b = base.queries[i];
    if (q == nullptr || q->table != first->table || b.table != q->table ||
        q->bin_column != b.bin_column || !SameBits(q->bin_lo, b.bin_lo) ||
        !SameBits(q->bin_hi, b.bin_hi) || q->bins != b.bins ||
        base.counts[i].size() != static_cast<size_t>(q->bins) ||
        !SameRanges(q->predicates, now) || !SameRanges(b.predicates, before)) {
      return std::nullopt;
    }
  }
  if (now.size() != before.size()) return std::nullopt;
  size_t moved = now.size();
  for (size_t k = 0; k < now.size(); ++k) {
    const auto& rn = std::get<RangePredicate>(now[k]);
    const auto& rb = std::get<RangePredicate>(before[k]);
    if (rn.column != rb.column) return std::nullopt;
    if (SameBits(rn.lo, rb.lo) && SameBits(rn.hi, rb.hi)) continue;
    if (moved != now.size()) return std::nullopt;  // A second move.
    moved = k;
  }
  if (moved == now.size()) return std::nullopt;

  auto table_it = tables_.find(first->table);
  if (table_it == tables_.end()) return std::nullopt;
  const Table& table = *table_it->second;
  const int64_t n = static_cast<int64_t>(table.num_rows());
  if (n > std::numeric_limits<uint32_t>::max()) return std::nullopt;
  const auto f64_column = [&table](const std::string& name) -> int64_t {
    Result<size_t> idx = table.schema().FieldIndex(name);
    if (!idx.ok() || table.schema().field(*idx).type != DataType::kDouble) {
      return -1;
    }
    return static_cast<int64_t>(*idx);
  };
  struct Conjunct {
    const double* v;
    double lo, hi;
  };
  std::vector<Conjunct> fixed;
  size_t moved_column = 0;
  for (size_t k = 0; k < now.size(); ++k) {
    const auto& r = std::get<RangePredicate>(now[k]);
    const int64_t c = f64_column(r.column);
    if (c < 0) return std::nullopt;
    if (k == moved) {
      moved_column = static_cast<size_t>(c);
    } else {
      fixed.push_back(Conjunct{
          table.column(static_cast<size_t>(c)).double_data().data(), r.lo,
          r.hi});
    }
  }
  struct Bins {
    const double* v;
    double lo, width, dbins;
    int64_t bins;
  };
  std::vector<Bins> bins;
  for (const Query& query : queries) {
    const auto& q = std::get<HistogramQuery>(query);
    const int64_t c = f64_column(q.bin_column);
    if (c < 0 || q.bins <= 0 || !(q.bin_lo < q.bin_hi)) return std::nullopt;
    bins.push_back(Bins{
        table.column(static_cast<size_t>(c)).double_data().data(), q.bin_lo,
        (q.bin_hi - q.bin_lo) / static_cast<double>(q.bins),
        static_cast<double>(q.bins), q.bins});
  }

  // The moved conjunct passes exactly the sorted positions of an
  // interval; NaN rows pass every range, so they never change side. The
  // rows that entered are the new interval minus the old one, those that
  // left the old minus the new: at most two runs each.
  const std::vector<uint32_t>& sorted = SortedRows(first->table, moved_column);
  const double* mv = table.column(moved_column).double_data().data();
  const auto& rb = std::get<RangePredicate>(before[moved]);
  const auto& rn = std::get<RangePredicate>(now[moved]);
  const auto [a0, a1] = PassInterval(sorted, mv, rb.lo, rb.hi);
  const auto [b0, b1] = PassInterval(sorted, mv, rn.lo, rn.hi);
  struct Run {
    int64_t begin, end, sign;
  };
  const Run runs[] = {{b0, std::min(b1, a0), +1},
                      {std::max(b0, a1), b1, +1},
                      {a0, std::min(a1, b0), -1},
                      {std::max(a0, b1), a1, -1}};
  int64_t swept = 0;
  for (const Run& run : runs) swept += std::max<int64_t>(0, run.end - run.begin);
  if (swept > n / kDragSweepDivisor) return std::nullopt;

  std::vector<std::vector<int64_t>> counts = base.counts;
  int64_t matched = 0;
  for (const Run& run : runs) {
    for (int64_t p = run.begin; p < run.end; ++p) {
      const uint32_t r = sorted[static_cast<size_t>(p)];
      bool pass = true;
      for (const Conjunct& c : fixed) {
        pass = pass && !(c.v[r] < c.lo) && !(c.v[r] > c.hi);
      }
      if (!pass) continue;
      ++matched;
      for (size_t i = 0; i < bins.size(); ++i) {
        const Bins& b = bins[i];
        counts[i][static_cast<size_t>(
            BinOf(b.v[r], b.lo, b.width, b.dbins, b.bins))] += run.sign;
      }
    }
  }

  std::vector<QueryResponse> out(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    const auto& q = std::get<HistogramQuery>(queries[i]);
    Result<FixedHistogram> hist = FixedHistogram::FromCounts(
        q.bin_lo, q.bin_hi,
        std::vector<double>(counts[i].begin(), counts[i].end()));
    if (!hist.ok()) return std::nullopt;
    QueryWorkStats& stats = out[i].stats;
    stats.tuples_scanned = swept;
    stats.tuples_matched = matched;
    stats.predicates_evaluated =
        swept * static_cast<int64_t>(fixed.size());
    stats.groups_built = q.bins;
    stats.rows_output = q.bins;
    stats.bytes_output = static_cast<double>(q.bins) * 16.0;
    out[i].data = std::move(*hist);
    FinalizeTimes(&out[i]);
  }
  return out;
}

Result<QueryResponse> Engine::ExecuteJoinPage(
    const JoinPageQuery& query) const {
  IDEVAL_ASSIGN_OR_RETURN(TablePtr left, GetTable(query.left_table));
  IDEVAL_ASSIGN_OR_RETURN(TablePtr right, GetTable(query.right_table));
  IDEVAL_ASSIGN_OR_RETURN(size_t left_key,
                          left->schema().FieldIndex(query.join_column));
  IDEVAL_ASSIGN_OR_RETURN(size_t right_key,
                          right->schema().FieldIndex(query.join_column));
  if (left->schema().field(left_key).type != DataType::kInt64 ||
      right->schema().field(right_key).type != DataType::kInt64) {
    return Status::InvalidArgument("join key must be int64 in both tables");
  }
  if (query.limit < 0 || query.offset < 0) {
    return Status::InvalidArgument("join page limit/offset must be >= 0");
  }

  QueryResponse response;
  QueryWorkStats& stats = response.stats;

  // Page of the left side.
  const int64_t n_left = static_cast<int64_t>(left->num_rows());
  const int64_t begin = std::min(query.offset, n_left);
  const int64_t end = std::min(query.offset + query.limit, n_left);
  stats.tuples_scanned += end > 0 ? end : 0;  // Scan-to-offset cost.
  ChargePages(*left, 0, end, &stats);

  // Build a hash table over the page keys (small side), then probe the
  // right table sequentially — the streaming-join shape of §6's Q2.
  std::unordered_map<int64_t, size_t> page_keys;
  page_keys.reserve(static_cast<size_t>(end - begin));
  const auto& left_keys = left->column(left_key).int64_data();
  for (int64_t r = begin; r < end; ++r) {
    page_keys.emplace(left_keys[static_cast<size_t>(r)],
                      static_cast<size_t>(r));
  }
  stats.hash_build_rows = end - begin;

  RowSet rows;
  for (size_t c = 0; c < left->num_columns(); ++c) {
    rows.column_names.push_back(left->schema().field(c).name);
  }
  for (size_t c = 0; c < right->num_columns(); ++c) {
    if (c == right_key) continue;  // Key appears once.
    rows.column_names.push_back(right->schema().field(c).name);
  }

  const auto& right_keys = right->column(right_key).int64_data();
  const size_t n_right = right->num_rows();
  std::vector<std::pair<size_t, size_t>> matches;  // (left row, right row).
  for (size_t r = 0; r < n_right; ++r) {
    ++stats.hash_probe_rows;
    auto it = page_keys.find(right_keys[r]);
    if (it != page_keys.end()) matches.emplace_back(it->second, r);
  }
  stats.tuples_scanned += static_cast<int64_t>(n_right);
  ChargePages(*right, 0, static_cast<int64_t>(n_right), &stats);

  // Keep left (display) order.
  std::sort(matches.begin(), matches.end());
  for (const auto& [lr, rr] : matches) {
    std::vector<Value> out;
    out.reserve(rows.column_names.size());
    for (size_t c = 0; c < left->num_columns(); ++c) out.push_back(left->At(lr, c));
    for (size_t c = 0; c < right->num_columns(); ++c) {
      if (c == right_key) continue;
      out.push_back(right->At(rr, c));
    }
    rows.rows.push_back(std::move(out));
  }
  stats.tuples_matched = static_cast<int64_t>(rows.rows.size());
  stats.rows_output = static_cast<int64_t>(rows.rows.size());
  stats.bytes_output =
      static_cast<double>(rows.rows.size() * rows.column_names.size()) * 24.0;
  response.data = std::move(rows);
  FinalizeTimes(&response);
  return response;
}

}  // namespace ideval
