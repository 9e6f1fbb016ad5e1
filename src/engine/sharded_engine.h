#ifndef IDEVAL_ENGINE_SHARDED_ENGINE_H_
#define IDEVAL_ENGINE_SHARDED_ENGINE_H_

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "engine/engine.h"
#include "engine/query.h"
#include "storage/table.h"

namespace ideval {

/// Construction options for `ShardedEngine`.
struct ShardedEngineOptions {
  /// Independent `Engine` instances the data is spread over. 1 is a
  /// degenerate but valid configuration (everything routes to one shard).
  int num_shards = 2;
  /// Per-shard engine configuration (profile, buffer pool, cost model).
  EngineOptions engine_options;
};

/// Horizontal scale-out over K independent single-node `Engine`s.
///
/// The paper's Fig. 3 guideline — keep query issuing frequency under
/// backend capacity — caps at a single engine's knee. `ShardedEngine`
/// pushes the knee out by *range-partitioning* each large table into K
/// contiguous row chunks, one per shard, so that one interactive query
/// fans out into K partial queries that scan 1/K of the data each. Range
/// (rather than hash) partitioning preserves global row order, which is
/// what makes LIMIT/OFFSET pagination and display-ordered joins merge
/// *exactly* (see below); for the scan-everything histogram workload the
/// two schemes do the same work.
///
/// The class deliberately separates planning, execution, and merging:
///
///   1. `Plan` rewrites one client query into per-shard subtasks
///      (adjusting LIMIT/OFFSET to each shard's chunk);
///   2. the caller executes each subtask on its shard — serially via
///      `Execute`, or concurrently on its own workers (the `QueryServer`
///      scatter stage does this);
///   3. `Merge` combines the partial `QueryResponse`s into one response
///      that is indistinguishable from an unsharded execution.
///
/// Merge semantics per query type:
///  - `HistogramQuery`: partial histograms share bin edges; merged bin
///    counts are the sums — COUNT/SUM/MIN/MAX-style aggregates merge
///    exactly (bitwise, for counts below 2^53). Derived order statistics
///    (e.g. quantiles read off the merged histogram via
///    `HistogramQuantile`) are exact to within one bin width — the
///    "bucketed summary" route to mergeable percentiles.
///  - `SelectQuery`: each shard returns its first `offset+limit` matches;
///    concatenating in shard order reproduces the global match order, so
///    dropping `offset` rows and keeping `limit` is exact.
///  - `JoinPageQuery`: the positional left page is split across the shards
///    whose chunks overlap it; the probe side must be *replicated*
///    (registered in full on every shard) so no cross-shard match is
///    lost. Exact when the page's join keys are unique (the §6 Q2 id-join
///    shape): the single-node engine dedups repeated page keys globally,
///    which a split page can only do per shard.
///
/// Modelled time: partials execute in parallel, so the merged
/// `execution_time` is the max over partials; the merge itself is charged
/// to `post_aggregation_time` in proportion to the cells touched.
///
/// Thread safety: once all tables are registered, `Plan`, `Merge`, and
/// `Execute` are safe for any number of concurrent callers (shard
/// engines are used read-only; the round-robin cursor is atomic).
/// `PartitionTable` / `ReplicateTable` must not race with queries.
class ShardedEngine {
 public:
  /// Validates `options` and creates the (empty) shard engines.
  static Result<std::unique_ptr<ShardedEngine>> Create(
      ShardedEngineOptions options);

  /// Splits `table` into `num_shards` contiguous row chunks and registers
  /// one chunk per shard under the table's own name. Chunk sizes differ by
  /// at most one row. Errors on duplicates or empty tables.
  Status PartitionTable(const TablePtr& table);

  /// Registers the full `table` on every shard (no copy — shards share the
  /// immutable table). Required for tables that serve as a join probe
  /// side; also the right choice for small dimension tables.
  Status ReplicateTable(const TablePtr& table);

  int num_shards() const { return static_cast<int>(shards_.size()); }

  /// Borrows shard `i`'s engine. Requires 0 <= i < num_shards().
  const Engine* shard(int i) const { return shards_[static_cast<size_t>(i)].get(); }

  /// Zone-map pruning totals summed over every shard (per-query pruning
  /// stats already merge through `QueryWorkStats::operator+=` in `Merge`;
  /// this is the engine-lifetime aggregate for benches and reports).
  ScanPruneTotals PruneTotals() const {
    ScanPruneTotals totals;
    for (const auto& s : shards_) {
      const ScanPruneTotals t = s->PruneTotals();
      totals.blocks_scanned += t.blocks_scanned;
      totals.blocks_pruned += t.blocks_pruned;
    }
    return totals;
  }

  /// One per-shard partial query of a scatter plan.
  struct Subtask {
    int shard = 0;
    Query query;
  };

  /// The scatter plan for one client query: which shards run what.
  /// Subtasks are ordered by shard index; `Merge` relies on that order.
  struct ShardPlan {
    std::vector<Subtask> subtasks;
  };

  /// Rewrites `query` into per-shard subtasks. Errors on unknown tables
  /// and on joins whose probe side is partitioned (replicate it instead).
  Result<ShardPlan> Plan(const Query& query) const;

  /// Combines partial responses (one per `plan` subtask, same order) into
  /// the response an unsharded engine would have produced.
  Result<QueryResponse> Merge(const Query& query, const ShardPlan& plan,
                              std::vector<QueryResponse> partials) const;

  /// Convenience: `Plan`, execute every subtask serially on its shard,
  /// `Merge`. The reference path for correctness tests; concurrent callers
  /// are fine.
  Result<QueryResponse> Execute(const Query& query) const;

  /// The kernel ISA the shard engines resolved to (identical across
  /// shards — they share one `EngineOptions`).
  KernelIsa kernel_isa() const { return shards_[0]->kernel_isa(); }

 private:
  /// Where a registered table lives.
  struct TableInfo {
    bool partitioned = false;
    /// Global first row of each shard's chunk plus a trailing total;
    /// size num_shards+1. Empty for replicated tables.
    std::vector<int64_t> bounds;
  };

  explicit ShardedEngine(ShardedEngineOptions options);

  const TableInfo* FindTable(const std::string& name) const;

  /// Shard index for single-shard routing (replicated-only queries),
  /// rotated for balance.
  int NextRoundRobinShard() const;

  Result<ShardPlan> PlanSelect(const SelectQuery& query) const;
  Result<ShardPlan> PlanHistogram(const HistogramQuery& query) const;
  Result<ShardPlan> PlanJoinPage(const JoinPageQuery& query) const;

  ShardedEngineOptions options_;
  std::vector<std::unique_ptr<Engine>> shards_;
  std::map<std::string, TableInfo> tables_;
  mutable std::atomic<uint32_t> rr_cursor_{0};
};

}  // namespace ideval

#endif  // IDEVAL_ENGINE_SHARDED_ENGINE_H_
