#ifndef IDEVAL_SERVE_RESULT_CACHE_H_
#define IDEVAL_SERVE_RESULT_CACHE_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "engine/engine.h"
#include "engine/query.h"
#include "obs/trace.h"

namespace ideval {

/// Canonical cache key for a query: semantically equivalent queries render
/// to the same key so they collide in the result cache, and no two
/// different queries do. Every double renders exactly (`%a`), so bounds
/// that agree to 16 significant digits still get their own entries; a
/// range bound's −0.0 keys as +0.0 and every NaN bound keys alike (each
/// pair selects the same rows), while bin edges stay bit-exact because
/// the answer echoes them. Normalization is conjunction-preserving only —
/// it never changes what rows a query matches:
///  - range predicates on the same column intersect into one conjunct
///    (`a >= 1 AND a >= 3` keys as `a >= 3`);
///  - `IN` lists are sorted and deduplicated;
///  - duplicate conjuncts collapse, and conjuncts sort into a canonical
///    order (predicate order is irrelevant under AND);
///  - a negative select offset keys as 0 and any negative limit as -1,
///    matching how the engine executes them.
std::string CanonicalQueryKey(const Query& query);

/// Approximate in-memory footprint of a cached response, for the cache's
/// byte budget (result payload + per-value overhead + struct headroom).
int64_t ApproxResponseBytes(const QueryResponse& response);

/// How one lookup through `ResultCache::Execute` was served.
enum class CacheOutcome {
  kHit,        ///< Served from a completed cache entry.
  kMiss,       ///< This caller executed the backend (and filled the cache).
  kCoalesced,  ///< Waited on a concurrent identical execution (single
               ///< flight): another caller's backend run served this one.
};

const char* CacheOutcomeToString(CacheOutcome outcome);

/// Point-in-time counters. `hits + misses + coalesced` equals the number
/// of completed `Execute` calls, which is how the serve tests reconcile
/// cache traffic against query submissions.
struct ResultCacheStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t coalesced = 0;
  /// Single-flight leaderships taken: callers that installed a flight and
  /// ran the backend themselves. Every miss is a leader execution
  /// (`leader_executions == misses` after quiescence), which is exactly
  /// what makes the leader path assertable: `coalesced` lookups rode a
  /// flight without bumping this, so `misses` alone can no longer be
  /// misread as "queries the backend saw".
  int64_t leader_executions = 0;
  int64_t evictions = 0;      ///< Entries dropped to fit the byte budget.
  int64_t invalidations = 0;  ///< Entries dropped by Clear/InvalidateTable.
  int64_t entries = 0;        ///< Live entries right now.
  int64_t bytes = 0;          ///< Approximate bytes held right now.

  int64_t Lookups() const { return hits + misses + coalesced; }
  double HitRate() const {
    const int64_t n = Lookups();
    return n > 0 ? static_cast<double>(hits + coalesced) /
                       static_cast<double>(n)
                 : 0.0;
  }
};

struct ResultCacheOptions {
  /// Total byte budget across all shards; entries are evicted LRU within
  /// their shard once its slice of the budget is exceeded.
  int64_t byte_budget = 64 << 20;
  /// Hash shards, each with its own mutex and LRU list. More shards =
  /// less lock contention between unrelated queries.
  int num_shards = 16;
};

/// A shared, invalidation-aware result cache for the live query server:
/// the cross-session promotion of `opt/session_cache.h`'s per-session
/// exact-match cache (ROADMAP's "cross-session result sharing" item).
///
///  - **Shared**: one cache above the backend; any session's execution
///    can serve any other session's identical (canonicalized) query.
///  - **Sharded**: entries are partitioned by key hash across
///    `num_shards` independent LRU shards, each behind its own mutex, so
///    concurrent sessions touching different queries do not contend.
///  - **Single-flight**: when N callers ask for the same missing key
///    concurrently, one executes the backend and the other N-1 block on
///    the in-flight execution and share its response (counted
///    `coalesced`) — a thundering herd of identical crossfilter queries
///    pays one scan.
///  - **Invalidation-aware**: `Clear` / `InvalidateTable` drop entries
///    and advance an epoch; an in-flight execution that started before an
///    invalidation completes normally for its waiters but does not
///    install a stale entry.
///
/// The cache stores whole `QueryResponse`s (data + work stats + modelled
/// times), so a hit replays the backend's exact response. Failed backend
/// executions propagate their status to every waiter and cache nothing.
///
/// Thread safety: all public methods are safe for concurrent callers. The
/// backend callable runs outside any cache lock and may itself block
/// (e.g. a scatter/merge over a shard pool).
class ResultCache {
 public:
  using Backend = std::function<Result<QueryResponse>(const Query&)>;
  /// Backend with trace plumbing: on a miss the cache passes its execute
  /// span's id down so a sharded backend can parent per-shard spans under
  /// the lookup that caused them.
  using TracedBackend = std::function<Result<QueryResponse>(
      const Query&, const TraceContext&, uint64_t parent_span_id)>;

  /// One serviced lookup: the response plus how it was obtained.
  struct Execution {
    QueryResponse response;
    CacheOutcome outcome = CacheOutcome::kMiss;
  };

  explicit ResultCache(ResultCacheOptions options);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Serves `query` from the cache, an in-flight identical execution, or
  /// by running `backend(query)` (single flight). On a miss the original
  /// (non-canonicalized) query is what the backend executes.
  Result<Execution> Execute(const Query& query, const Backend& backend);

  /// As above, emitting a `kCacheLookup` span (outcome in its detail)
  /// under `parent_span_id`, and — on the leader path — a nested
  /// `kExecute` span around the backend run with the response's work
  /// stats attached. With a disabled `trace` this is the plain overload.
  Result<Execution> Execute(const Query& query, const TracedBackend& backend,
                            const TraceContext& trace,
                            uint64_t parent_span_id);

  /// Drops every entry and advances the epoch (in-flight executions will
  /// not install results). Call while quiescing the backend — e.g. around
  /// `Engine::ClearCaches` or after `Engine::RegisterTable`.
  void Clear();

  /// Drops entries whose query touches `table` and advances the epoch.
  /// The targeted form of `Clear` for a single-table refresh.
  void InvalidateTable(const std::string& table);

  /// Aggregated counters across all shards.
  ResultCacheStats Stats() const;

  const ResultCacheOptions& options() const { return options_; }

 private:
  /// A completed, cached response.
  struct Entry {
    QueryResponse response;
    int64_t bytes = 0;
    std::vector<std::string> tables;  ///< For table-level invalidation.
    std::list<std::string>::iterator lru_it;
  };

  /// A single-flight execution in progress. Waiters hold the shared_ptr,
  /// so the leader may erase the flight from the map before they wake.
  struct Flight {
    bool done = false;
    bool ok = false;
    Status error = Status::OK();
    QueryResponse response;
  };

  struct Shard {
    mutable std::mutex mu;
    std::condition_variable cv;  ///< Signals flight completions.
    std::unordered_map<std::string, Entry> entries;
    std::unordered_map<std::string, std::shared_ptr<Flight>> flights;
    std::list<std::string> lru;  ///< Front = most recently used.
    int64_t bytes = 0;
    uint64_t epoch = 0;  ///< Bumped by every invalidation.
    ResultCacheStats stats;  ///< hits/misses/coalesced/evictions/invalid.
  };

  Shard& ShardFor(const std::string& key);

  /// Inserts a completed response under `key`, evicting LRU entries until
  /// the shard fits its budget slice. Caller holds `shard.mu`.
  void Insert(Shard* shard, const std::string& key, const Query& query,
              const QueryResponse& response);

  ResultCacheOptions options_;
  int64_t shard_budget_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace ideval

#endif  // IDEVAL_SERVE_RESULT_CACHE_H_
