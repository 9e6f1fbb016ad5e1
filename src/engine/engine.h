#ifndef IDEVAL_ENGINE_ENGINE_H_
#define IDEVAL_ENGINE_ENGINE_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/sim_time.h"
#include "engine/buffer_pool.h"
#include "engine/cost_model.h"
#include "engine/kernels/kernels.h"
#include "engine/predicate.h"
#include "engine/query.h"
#include "storage/table.h"

namespace ideval {

/// Which backend regime the engine models (§7: PostgreSQL vs MemSQL).
enum class EngineProfile {
  /// Disk-based interpreted row store with a buffer pool.
  kDiskRowStore,
  /// In-memory compiled column store.
  kInMemoryColumnStore,
};

const char* EngineProfileToString(EngineProfile profile);

/// Construction options.
struct EngineOptions {
  EngineProfile profile = EngineProfile::kInMemoryColumnStore;
  /// Buffer pool capacity for the disk profile, in pages. The default
  /// (16384 pages = 128 MB at 8 KB pages) mirrors PostgreSQL's stock
  /// shared_buffers.
  int64_t buffer_pool_pages = 16384;
  /// Overrides the profile's calibrated cost model when set.
  std::optional<CostModel> cost_model;
  /// Build per-block min/max zone maps at `RegisterTable` and let
  /// `ExecuteSelect` / `RunHistogramMorsels` skip blocks whose summarized
  /// range cannot satisfy a range predicate. Results stay bitwise
  /// identical to an unpruned scan; only the work counters (and therefore
  /// the modelled time and page charges) shrink. Off by default so
  /// existing calibrated workloads keep their exact cost accounting.
  bool enable_zone_maps = false;
  /// Rows per zone-map block. 4096 tracks common columnar block sizes.
  int64_t zone_map_block_rows = 4096;
  /// Which SIMD kernel table the scan/filter/histogram hot loops dispatch
  /// to (docs/kernels.md). `kAuto` (the default) resolves once from a
  /// runtime CPUID probe; pin an explicit ISA to compare implementations
  /// or debug — results are bitwise identical either way, only speed
  /// changes. Requesting an ISA the CPU lacks falls back to scalar.
  KernelIsa kernel_isa = KernelIsa::kAuto;
};

/// Shared work queue of morsel-driven execution (Leis et al., SIGMOD
/// 2014): participants claim the next `morsel_rows` stretch of the table
/// with one atomic increment, so none idles while another has work left.
/// Single-use: once `next` reaches `num_morsels`, every morsel is taken.
struct MorselQueue {
  std::atomic<int64_t> next{0};
  int64_t morsel_rows = 0;
  int64_t num_morsels = 0;
};

/// Rows per morsel, in zone-map blocks: 8 x 4096 = 32,768 rows at the
/// default block size, small enough that a 435K-row crossfilter scan
/// splits into 14 morsels and large enough to amortize the claim.
inline constexpr int64_t kMorselBlocks = 8;

/// One participant's share of a `HistogramScan`: exact int64 bin counts
/// and the work counters of the morsels it claimed.
struct HistogramPartial {
  std::vector<int64_t> counts;
  QueryWorkStats stats;
};

/// A validated histogram query bound to its table, compiled predicates
/// and morsel queue (`Engine::PrepareHistogram`). Threads run it at once
/// via `Engine::RunHistogramMorsels`, each into its own partial, and
/// `Engine::MergeHistogram` sums the partials into `Engine::Execute`'s
/// response, bitwise and with equal work counters: counts are int64 and
/// morsels are whole zone-map blocks, so each block has one participant.
struct HistogramScan {
  TablePtr table;
  CompiledPredicates preds;
  const int64_t* int_vals = nullptr;  ///< Bin column; exactly one is set.
  const double* dbl_vals = nullptr;
  const TableZoneMaps* zone_maps = nullptr;  ///< Null: no pruning.
  double bin_lo = 0.0;
  double bin_hi = 0.0;
  int64_t bins = 0;
  mutable MorselQueue queue;
};

/// An executed histogram group's queries with their exact int64 counts:
/// the base `Engine::ExecuteHistogramDrag` answers the next group from.
struct HistogramGroupCounts {
  std::vector<HistogramQuery> queries;
  std::vector<std::vector<int64_t>> counts;  ///< Parallel to `queries`.
};

/// A drag answer sweeps at most 1/`kDragSweepDivisor` of the table's
/// rows; a longer sweep scans instead. A swept row of a two-histogram
/// group costs 6-7 ns against 1.8 ns for a row of one histogram scan
/// (random access through the sorted order against the fused kernel's
/// stream), so the sweep breaks even with the group's scans near 58% of
/// the table, or 19% when three workers share each scan (docs/serve.md).
inline constexpr int64_t kDragSweepDivisor = 8;

/// Cumulative zone-map pruning effect across all queries an engine has
/// executed since construction or the last `ClearCaches`.
struct ScanPruneTotals {
  int64_t blocks_scanned = 0;
  int64_t blocks_pruned = 0;

  double PrunedFraction() const {
    const int64_t total = blocks_scanned + blocks_pruned;
    return total > 0 ? static_cast<double>(blocks_pruned) /
                           static_cast<double>(total)
                     : 0.0;
  }
};

/// Everything the backend returns for one query: the data, the work
/// counters, and the modelled server-side time components.
struct QueryResponse {
  QueryResultData data;
  QueryWorkStats stats;
  Duration execution_time;        ///< Scan/eval/join/paging.
  Duration post_aggregation_time; ///< Group finalize + materialization.

  /// execution + post-aggregation (server total, excluding queueing and
  /// network which the scheduler adds).
  Duration ServerTime() const {
    return execution_time + post_aggregation_time;
  }
};

/// A single-node query engine over registered in-memory tables.
///
/// The engine *actually executes* relational operators (range filters,
/// histogram group-by, paged hash joins) so that results are real and
/// data-dependent; simulated time comes from the `CostModel` applied to
/// the work the operators performed. `Execute` is deterministic.
///
/// Thread safety: once all tables are registered, `Execute` may be called
/// concurrently from any number of threads — tables are immutable and the
/// only mutable execution state (the disk profile's buffer pool) is guarded
/// internally. `RegisterTable` and `ClearCaches` must not race with
/// `Execute`.
class Engine {
 public:
  explicit Engine(EngineOptions options);

  /// Registers a table under its own name and — with
  /// `EngineOptions::enable_zone_maps` — builds its per-block min/max
  /// zone maps. Errors on duplicates. Not safe to call concurrently with
  /// `Execute`; callers serving live traffic must quiesce first (see
  /// `ClearCaches`) and invalidate any result cache layered above the
  /// engine, since a new table changes what queries can mean.
  Status RegisterTable(TablePtr table);

  /// Executes any supported query. Safe for concurrent callers.
  Result<QueryResponse> Execute(const Query& query) const;

  /// Validates `query` and binds it into a scan cut into morsels of
  /// `kMorselBlocks` zone-map blocks; `Execute` runs it as the only
  /// participant. The disk profile keeps the table as one morsel: its
  /// page charges model one backend walking the pool in row order.
  Result<std::unique_ptr<HistogramScan>> PrepareHistogram(
      const HistogramQuery& query) const;

  /// Claims morsels of `scan` until its queue drains, scanning each into
  /// `partial` (sized on first use). Returns the number of morsels
  /// claimed. Safe for concurrent callers, each with its own partial.
  int64_t RunHistogramMorsels(const HistogramScan& scan,
                              HistogramPartial* partial) const;

  /// Sums the partials of every participant of `scan`, in any order,
  /// into the response `Execute` returns for its query: same histogram
  /// bits, same work counters, modelled times from the merged counters.
  /// Call once per scan, after every participant has returned.
  Result<QueryResponse> MergeHistogram(
      const HistogramScan& scan,
      const std::vector<HistogramPartial>& partials) const;

  /// Answers the histogram group `queries` from `base`, the exact counts
  /// of the group executed just before it, when the two differ only in
  /// the bounds of one range conjunct: the rows that entered the moved
  /// range are added and the rows that left it subtracted
  /// (docs/serve.md, "Incremental drag answers"). Every answer equals
  /// `Execute`'s data bitwise; the work counters report the rows swept
  /// (`tuples_scanned`) and those that passed the fixed conjuncts
  /// (`tuples_matched`), and times come from them.
  ///
  /// Returns nullopt, and the caller scans, unless all of these hold:
  /// every query is a histogram over one table with one shared list of
  /// range conjuncts over f64 columns and an f64 bin column; `base` has
  /// the same bin specs in the same order, bit for bit; exactly one
  /// conjunct's bounds differ, bit for bit; the profile is in-memory;
  /// and the sweep stays within 1/`kDragSweepDivisor` of the table. The
  /// moved column's sorted order is built on first use and kept. Safe
  /// for concurrent callers.
  std::optional<std::vector<QueryResponse>> ExecuteHistogramDrag(
      const HistogramGroupCounts& base,
      const std::vector<Query>& queries) const;

  EngineProfile profile() const { return options_.profile; }
  const CostModel& cost_model() const { return cost_model_; }

  /// The ISA the scan kernels resolved to (never `kAuto`).
  KernelIsa kernel_isa() const { return kops_->isa; }

  /// Buffer pool (disk profile only; null for the memory profile). Reading
  /// its counters while queries execute concurrently is racy — quiesce
  /// first.
  const BufferPool* buffer_pool() const { return buffer_pool_.get(); }

  /// Drops ephemeral execution state to model a cold start: clears the
  /// buffer pool and resets the cumulative `PruneTotals` counters. Zone
  /// maps and sorted orders survive — they are derived from immutable
  /// table data (on-disk metadata in a real system), not a cache of
  /// query results.
  ///
  /// Quiesce contract: not safe to call concurrently with `Execute`. The
  /// caller must first drain every in-flight query (e.g.
  /// `QueryServer::Drain`), and any result cache layered above this
  /// engine must be invalidated in the same quiesced window — a cached
  /// response carries page-charge timings from the pre-clear pool state.
  void ClearCaches();

  /// Borrows a registered table.
  Result<TablePtr> GetTable(const std::string& name) const;

  /// Zone maps for a registered table; null when zone maps are disabled
  /// or the table is unknown. Immutable once built.
  const TableZoneMaps* ZoneMapsFor(const std::string& name) const;

  /// Cumulative pruning counters since construction or `ClearCaches`.
  /// Safe to read concurrently with `Execute` (monotonic atomics), though
  /// a concurrent read is naturally a moving target.
  ScanPruneTotals PruneTotals() const {
    return ScanPruneTotals{
        blocks_scanned_total_.load(std::memory_order_relaxed),
        blocks_pruned_total_.load(std::memory_order_relaxed)};
  }

 private:
  Result<QueryResponse> ExecuteSelect(const SelectQuery& query) const;
  Result<QueryResponse> ExecuteJoinPage(const JoinPageQuery& query) const;

  /// Charges buffer-pool page accesses for visiting `tuples` consecutive
  /// tuples of `table` starting at row `first_row`. Serialized internally
  /// so concurrent queries contend on the pool like real backend workers.
  void ChargePages(const Table& table, int64_t first_row, int64_t tuples,
                   QueryWorkStats* stats) const;

  void FinalizeTimes(QueryResponse* response) const;

  /// The rows of f64 column `column` of registered table `name` whose
  /// value is not NaN, in value order under `<` (so -0.0 and +0.0 tie).
  /// Sorted on first use, under a once-guard, and kept.
  const std::vector<uint32_t>& SortedRows(const std::string& name,
                                          size_t column) const;

  /// Folds a finished scan's block counters into the engine totals.
  void RecordPruning(const QueryWorkStats& stats) const {
    if (stats.blocks_scanned == 0 && stats.blocks_pruned == 0) return;
    blocks_scanned_total_.fetch_add(stats.blocks_scanned,
                                    std::memory_order_relaxed);
    blocks_pruned_total_.fetch_add(stats.blocks_pruned,
                                   std::memory_order_relaxed);
  }

  EngineOptions options_;
  CostModel cost_model_;
  /// Resolved kernel dispatch table (one-time CPUID probe at
  /// construction; immutable afterwards, so concurrent Execute calls
  /// share it freely).
  const KernelOps* kops_ = nullptr;
  std::map<std::string, TablePtr> tables_;
  /// Zone maps per registered table; populated by `RegisterTable` when
  /// enabled, read-only afterwards (same lifecycle as `tables_`).
  std::map<std::string, TableZoneMaps> zone_maps_;
  /// One lazily filled `SortedRows` slot per column of each registered
  /// table; `RegisterTable` creates the empty slots (same lifecycle as
  /// `tables_`), the first drag over a column fills its slot.
  struct SortedColumn {
    mutable std::once_flag once;
    mutable std::vector<uint32_t> rows;
  };
  std::map<std::string, std::vector<SortedColumn>> sorted_;
  mutable std::mutex pool_mu_;  ///< Guards buffer_pool_ contents.
  std::unique_ptr<BufferPool> buffer_pool_;
  mutable std::atomic<int64_t> blocks_scanned_total_{0};
  mutable std::atomic<int64_t> blocks_pruned_total_{0};
};

}  // namespace ideval

#endif  // IDEVAL_ENGINE_ENGINE_H_
