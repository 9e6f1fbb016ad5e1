/// Property-based tests: randomized sweeps checking invariants that must
/// hold for *every* input, with brute-force reference implementations
/// where applicable.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <thread>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/stats.h"
#include "engine/engine.h"
#include "engine/progressive.h"
#include "engine/sharded_engine.h"
#include "opt/throttle.h"
#include "serve/result_cache.h"
#include "sim/query_scheduler.h"

namespace ideval {
namespace {

/// Builds a random numeric table with `rows` rows and two columns.
TablePtr RandomTable(Rng* rng, int64_t rows) {
  Schema schema({{"a", DataType::kDouble}, {"b", DataType::kInt64}});
  TableBuilder builder("rand", schema);
  for (int64_t i = 0; i < rows; ++i) {
    builder.MustAppendRow({Value(rng->Uniform(-100.0, 100.0)),
                           Value(rng->UniformInt(-50, 50))});
  }
  return std::move(builder).Finish().ValueOrDie();
}

// ---------------------- Engine vs brute-force oracle ----------------------

class EngineOracleTest : public ::testing::TestWithParam<int> {};

TEST_P(EngineOracleTest, HistogramMatchesBruteForce) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 6151 + 11);
  TablePtr table = RandomTable(&rng, rng.UniformInt(50, 800));
  EngineOptions eopts;
  eopts.profile = rng.Bernoulli(0.5) ? EngineProfile::kDiskRowStore
                                     : EngineProfile::kInMemoryColumnStore;
  Engine engine(eopts);
  ASSERT_TRUE(engine.RegisterTable(table).ok());

  HistogramQuery q;
  q.table = "rand";
  q.bin_column = "a";
  q.bin_lo = -100.0;
  q.bin_hi = 100.0;
  q.bins = rng.UniformInt(1, 30);
  const double lo_a = rng.Uniform(-120.0, 80.0);
  const double hi_a = lo_a + rng.Uniform(0.0, 150.0);
  const double lo_b = static_cast<double>(rng.UniformInt(-60, 40));
  const double hi_b = lo_b + static_cast<double>(rng.UniformInt(0, 80));
  q.predicates = {RangePredicate{"a", lo_a, hi_a},
                  RangePredicate{"b", lo_b, hi_b}};

  auto response = engine.Execute(Query(q));
  ASSERT_TRUE(response.ok());
  const auto& hist = std::get<FixedHistogram>(response->data);

  // Brute force.
  auto expected =
      FixedHistogram::Make(q.bin_lo, q.bin_hi,
                           static_cast<size_t>(q.bins))
          .ValueOrDie();
  const auto& a = (*table->ColumnByName("a"))->double_data();
  const auto& b = (*table->ColumnByName("b"))->int64_data();
  int64_t matched = 0;
  for (size_t i = 0; i < table->num_rows(); ++i) {
    if (a[i] < lo_a || a[i] > hi_a) continue;
    const double bv = static_cast<double>(b[i]);
    if (bv < lo_b || bv > hi_b) continue;
    expected.Add(a[i]);
    ++matched;
  }
  EXPECT_EQ(hist, expected);
  EXPECT_EQ(response->stats.tuples_matched, matched);
  EXPECT_EQ(response->stats.tuples_scanned,
            static_cast<int64_t>(table->num_rows()));
}

TEST_P(EngineOracleTest, PaginationReconstructsTable) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7877 + 5);
  TablePtr table = RandomTable(&rng, rng.UniformInt(20, 300));
  Engine engine(EngineOptions{});
  ASSERT_TRUE(engine.RegisterTable(table).ok());

  const int64_t page = rng.UniformInt(1, 50);
  std::vector<double> collected;
  for (int64_t offset = 0;; offset += page) {
    SelectQuery q;
    q.table = "rand";
    q.columns = {"a"};
    q.limit = page;
    q.offset = offset;
    auto r = engine.Execute(Query(q));
    ASSERT_TRUE(r.ok());
    const auto& rows = std::get<RowSet>(r->data).rows;
    for (const auto& row : rows) collected.push_back(row[0].dbl());
    if (static_cast<int64_t>(rows.size()) < page) break;
  }
  const auto& expected = (*table->ColumnByName("a"))->double_data();
  ASSERT_EQ(collected.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_DOUBLE_EQ(collected[i], expected[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInputs, EngineOracleTest,
                         ::testing::Range(0, 20));

// ----------------------- Buffer pool vs reference -----------------------

class BufferPoolOracleTest : public ::testing::TestWithParam<int> {};

TEST_P(BufferPoolOracleTest, MatchesReferenceLru) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 3571 + 9);
  const int64_t capacity = rng.UniformInt(1, 8);
  BufferPool pool(capacity);
  // Reference: vector-based LRU.
  std::vector<int64_t> reference;  // Front = most recent.
  int64_t ref_hits = 0;
  for (int step = 0; step < 500; ++step) {
    const int64_t pageno = rng.UniformInt(0, 12);
    const bool hit = pool.Access(PageId{"t", pageno});
    auto it = std::find(reference.begin(), reference.end(), pageno);
    const bool ref_hit = it != reference.end();
    if (ref_hit) {
      reference.erase(it);
      ++ref_hits;
    } else if (static_cast<int64_t>(reference.size()) >= capacity) {
      reference.pop_back();
    }
    reference.insert(reference.begin(), pageno);
    ASSERT_EQ(hit, ref_hit) << "step " << step;
  }
  EXPECT_EQ(pool.hits(), ref_hits);
  EXPECT_LE(pool.resident_pages(), capacity);
}

INSTANTIATE_TEST_SUITE_P(RandomStreams, BufferPoolOracleTest,
                         ::testing::Range(0, 10));

// ------------------------- Scheduler invariants -------------------------

class SchedulerInvariantTest : public ::testing::TestWithParam<int> {};

TEST_P(SchedulerInvariantTest, TimelinesAreCausal) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 9973 + 3);
  TablePtr table = RandomTable(&rng, 5000);
  EngineOptions eopts;
  eopts.profile = rng.Bernoulli(0.5) ? EngineProfile::kDiskRowStore
                                     : EngineProfile::kInMemoryColumnStore;
  Engine engine(eopts);
  ASSERT_TRUE(engine.RegisterTable(table).ok());

  HistogramQuery hq;
  hq.table = "rand";
  hq.bin_column = "a";
  hq.bin_lo = -100.0;
  hq.bin_hi = 100.0;
  hq.bins = 10;

  std::vector<QueryGroup> groups;
  SimTime t;
  const int n = static_cast<int>(rng.UniformInt(1, 40));
  for (int i = 0; i < n; ++i) {
    t += Duration::MillisF(rng.Uniform(0.0, 40.0));
    QueryGroup g;
    g.issue_time = t;
    const int queries = static_cast<int>(rng.UniformInt(1, 3));
    for (int k = 0; k < queries; ++k) g.queries.push_back(hq);
    groups.push_back(g);
  }

  SchedulerOptions sopts;
  sopts.policy = rng.Bernoulli(0.5) ? SchedulingPolicy::kFifo
                                    : SchedulingPolicy::kSkipStale;
  sopts.num_connections = static_cast<int>(rng.UniformInt(1, 4));
  QueryScheduler scheduler(&engine, sopts);
  auto run = scheduler.Run(groups);
  ASSERT_TRUE(run.ok());

  // Conservation: every group accounted for.
  EXPECT_EQ(run->groups_executed + run->groups_skipped,
            run->groups_submitted);
  std::map<int64_t, int> group_sizes;
  for (const auto& tl : run->timelines) {
    ++group_sizes[tl.group_id];
    if (tl.skipped) {
      EXPECT_FALSE(tl.data.has_value());
      continue;
    }
    // Causality chain.
    EXPECT_GE(tl.backend_arrival, tl.issue_time);
    EXPECT_GE(tl.exec_start, tl.backend_arrival);
    EXPECT_GE(tl.exec_end, tl.exec_start);
    EXPECT_GE(tl.client_receive, tl.exec_end);
    EXPECT_GE(tl.render_end, tl.client_receive);
    // Durations are nonnegative and consistent.
    EXPECT_GE(tl.scheduling_latency, Duration::Zero());
    EXPECT_EQ(tl.exec_start - tl.backend_arrival, tl.scheduling_latency);
    EXPECT_GE(tl.PerceivedLatency(), Duration::Zero());
    ASSERT_TRUE(tl.data.has_value());
  }
  for (size_t i = 0; i < groups.size(); ++i) {
    EXPECT_EQ(group_sizes[static_cast<int64_t>(i)],
              static_cast<int>(groups[i].queries.size()))
        << "group " << i;
  }
  // Backend serves groups serially: executed groups' exec windows do not
  // interleave across groups.
  SimTime prev_group_end;
  int64_t prev_group = -1;
  for (const auto& tl : run->timelines) {
    if (tl.skipped) continue;
    if (tl.group_id != prev_group) {
      EXPECT_GE(tl.exec_start, prev_group_end) << "group " << tl.group_id;
      prev_group = tl.group_id;
    }
    prev_group_end = std::max(prev_group_end, tl.exec_end);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSessions, SchedulerInvariantTest,
                         ::testing::Range(0, 15));

// -------------------------- Throttler property --------------------------

class ThrottlerPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(ThrottlerPropertyTest, OutputRespectsMinInterval) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 131 + 17);
  const Duration min_interval = Duration::MillisF(rng.Uniform(5.0, 200.0));
  QifThrottler throttler(min_interval);
  SimTime t;
  std::vector<SimTime> admitted;
  for (int i = 0; i < 300; ++i) {
    t += Duration::MillisF(rng.Uniform(0.1, 60.0));
    if (throttler.Admit(t)) admitted.push_back(t);
  }
  ASSERT_FALSE(admitted.empty());
  for (size_t i = 1; i < admitted.size(); ++i) {
    EXPECT_GE(admitted[i] - admitted[i - 1], min_interval);
  }
}

TEST_P(ThrottlerPropertyTest, DebounceOutputsDelayedSubset) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 191 + 23);
  const Duration quiet = Duration::MillisF(rng.Uniform(10.0, 150.0));
  std::vector<SimTime> times;
  SimTime t;
  for (int i = 0; i < 100; ++i) {
    t += Duration::MillisF(rng.Uniform(1.0, 120.0));
    times.push_back(t);
  }
  const auto fired = DebounceEventTimes(times, quiet);
  ASSERT_FALSE(fired.empty());
  EXPECT_LE(fired.size(), times.size());
  for (size_t i = 0; i < fired.size(); ++i) {
    // Every fired event references a real source and fires exactly one
    // quiet period after it.
    ASSERT_LT(fired[i].source_index, times.size());
    EXPECT_EQ(fired[i].fire_time, times[fired[i].source_index] + quiet);
    if (i > 0) {
      EXPECT_GT(fired[i].source_index, fired[i - 1].source_index);
    }
  }
  // The final event always fires.
  EXPECT_EQ(fired.back().source_index, times.size() - 1);
}

INSTANTIATE_TEST_SUITE_P(RandomStreams, ThrottlerPropertyTest,
                         ::testing::Range(0, 10));

// ----------------------- MergeSessions property -----------------------

class MergeSessionsPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(MergeSessionsPropertyTest, MergeIsStableAndOrderPreserving) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 977 + 31);
  // Timestamps drawn from a handful of values so equal-time collisions
  // across users are the common case, not the exception.
  const int num_users = rng.UniformInt(1, 6);
  std::vector<std::vector<QueryGroup>> sessions(
      static_cast<size_t>(num_users));
  size_t total = 0;
  for (int u = 0; u < num_users; ++u) {
    const int n = rng.UniformInt(0, 20);
    SimTime t;
    for (int k = 0; k < n; ++k) {
      t += Duration::Millis(10 * rng.UniformInt(0, 3));  // Often zero.
      QueryGroup g;
      g.issue_time = t;
      // Tag the group with (user, per-user sequence) so the merged
      // stream can be audited: limit = user, offset = sequence.
      SelectQuery tag;
      tag.table = "tagged";
      tag.limit = u;
      tag.offset = k;
      g.queries.push_back(tag);
      sessions[static_cast<size_t>(u)].push_back(std::move(g));
      ++total;
    }
  }

  const auto merged = MergeSessions(sessions);
  ASSERT_EQ(merged.size(), total);

  auto tag_of = [](const QueryGroup& g) {
    const auto& s = std::get<SelectQuery>(g.queries.at(0));
    return std::pair<int64_t, int64_t>(s.limit, s.offset);
  };

  std::map<int64_t, int64_t> next_seq;  // Per-user expected sequence.
  for (size_t i = 0; i < merged.size(); ++i) {
    const auto [user, seq] = tag_of(merged[i]);
    // Each user's internal order survives the merge exactly.
    EXPECT_EQ(seq, next_seq[user]) << "user " << user << " at " << i;
    next_seq[user] = seq + 1;
    if (i > 0) {
      EXPECT_GE(merged[i].issue_time, merged[i - 1].issue_time);
      // Stability: within an equal-timestamp run the concatenation
      // order (by user, then per-user sequence) is untouched.
      if (merged[i].issue_time == merged[i - 1].issue_time) {
        EXPECT_GT(tag_of(merged[i]), tag_of(merged[i - 1])) << "at " << i;
      }
    }
  }
  // Nothing lost, nothing duplicated.
  for (int u = 0; u < num_users; ++u) {
    EXPECT_EQ(next_seq[u],
              static_cast<int64_t>(sessions[static_cast<size_t>(u)].size()));
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSessionSets, MergeSessionsPropertyTest,
                         ::testing::Range(0, 20));

// ---------------------- Sharded engine vs unsharded ----------------------

/// The scatter-merge contract: for any table, shard count, and query, the
/// merged K-shard response is indistinguishable from an unsharded
/// execution — bitwise for exact aggregates (counts) and row sets, within
/// one bin width for bucketed-summary quantiles.
class ShardedOracleTest : public ::testing::TestWithParam<int> {};

TEST_P(ShardedOracleTest, HistogramMergesBitwiseEqual) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 2711 + 13);
  TablePtr table = RandomTable(&rng, rng.UniformInt(40, 900));
  Engine engine(EngineOptions{});
  ASSERT_TRUE(engine.RegisterTable(table).ok());
  ShardedEngineOptions shopts;
  shopts.num_shards = static_cast<int>(rng.UniformInt(2, 6));
  auto sharded = ShardedEngine::Create(shopts).ValueOrDie();
  ASSERT_TRUE(sharded->PartitionTable(table).ok());

  HistogramQuery q;
  q.table = "rand";
  q.bin_column = "a";
  q.bin_lo = -100.0;
  q.bin_hi = 100.0;
  q.bins = rng.UniformInt(1, 30);
  const double lo_a = rng.Uniform(-120.0, 80.0);
  q.predicates = {RangePredicate{"a", lo_a, lo_a + rng.Uniform(0.0, 180.0)}};

  auto one = engine.Execute(Query(q));
  auto many = sharded->Execute(Query(q));
  ASSERT_TRUE(one.ok());
  ASSERT_TRUE(many.ok());
  const auto& h1 = std::get<FixedHistogram>(one->data);
  const auto& hk = std::get<FixedHistogram>(many->data);
  EXPECT_EQ(hk, h1);  // Defaulted operator==: bitwise bin counts.
  // Every shard scans its full chunk, so summed work equals one scan.
  EXPECT_EQ(many->stats.tuples_scanned, one->stats.tuples_scanned);
  EXPECT_EQ(many->stats.tuples_matched, one->stats.tuples_matched);

  // Bucketed-summary quantiles off the merged histogram are within one
  // bin width of the exact sample quantile (values clamped into the
  // histogram range, matching FixedHistogram::Add's edge-bin semantics).
  if (hk.total() > 0) {
    std::vector<double> matched;
    const auto& a = (*table->ColumnByName("a"))->double_data();
    const auto& pred = std::get<RangePredicate>(q.predicates[0]);
    for (double v : a) {
      if (v < pred.lo || v > pred.hi) continue;
      matched.push_back(std::clamp(v, q.bin_lo, q.bin_hi));
    }
    std::sort(matched.begin(), matched.end());
    const double quantile = rng.Uniform(0.05, 0.95);
    auto estimate = HistogramQuantile(hk, quantile);
    ASSERT_TRUE(estimate.ok());
    const size_t n = matched.size();
    const size_t idx = std::min(
        n - 1, static_cast<size_t>(quantile * static_cast<double>(n)));
    EXPECT_NEAR(*estimate, matched[idx], hk.bin_width() + 1e-9);
  }
}

/// A table for the morsel property: the binned column "a" trends upward
/// (so zone maps prune whole blocks) and holds some ±inf and NaN; the
/// filter column "c" holds NaN and ±inf. A NaN value passes every range
/// conjunct, and a NaN bin value lands in bin 0
/// (engine/kernels/kernels.h).
TablePtr MorselTable(Rng* rng, int64_t rows) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  Schema schema({{"a", DataType::kDouble},
                 {"b", DataType::kInt64},
                 {"c", DataType::kDouble}});
  TableBuilder builder("rand", schema);
  for (int64_t i = 0; i < rows; ++i) {
    double a = -100.0 + 200.0 * static_cast<double>(i) /
                            static_cast<double>(rows) +
               rng->Uniform(-5.0, 5.0);
    if (rng->Bernoulli(0.01)) a = rng->Bernoulli(0.5) ? kInf : -kInf;
    if (rng->Bernoulli(0.01)) a = std::numeric_limits<double>::quiet_NaN();
    double c = rng->Uniform(-100.0, 100.0);
    const double special = rng->NextDouble();
    if (special < 0.03) c = std::numeric_limits<double>::quiet_NaN();
    else if (special < 0.04) c = kInf;
    else if (special < 0.05) c = -kInf;
    builder.MustAppendRow(
        {Value(a), Value(rng->UniformInt(-50, 50)), Value(c)});
  }
  return std::move(builder).Finish().ValueOrDie();
}

/// A random range conjunct: usually finite, sometimes empty (lo > hi),
/// unbounded (±inf) or NaN-bounded (which excludes nothing).
RangePredicate RandomRange(Rng* rng, const std::string& column) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  double lo = rng->Uniform(-120.0, 100.0);
  double hi = lo + rng->Uniform(0.0, 120.0);
  const double shape = rng->NextDouble();
  if (shape < 0.1) std::swap(lo, hi);
  else if (shape < 0.2) lo = -kInf;
  else if (shape < 0.3) hi = kInf;
  else if (shape < 0.35) lo = std::numeric_limits<double>::quiet_NaN();
  return RangePredicate{column, lo, hi};
}

TEST_P(ShardedOracleTest, MorselExecutionMatchesRangePartition) {
  // Elastic morsels (docs/kernels.md): k participants claim the morsels
  // of one HistogramScan from its atomic queue, each into a private int64
  // partial, and the engine merges the partials. Claim order is
  // nondeterministic, so this is the merge-commutativity property: for
  // any seed the merged answer equals the scalar engine's Execute
  // bitwise, with equal work counters and modelled times, and equals the
  // range-partitioned sharded run.
  Rng rng(static_cast<uint64_t>(GetParam()) * 6553 + 7);
  // Small blocks so small tables still cut into many morsels, and a row
  // count off every block and morsel boundary.
  EngineOptions eopts;
  eopts.enable_zone_maps = true;
  eopts.zone_map_block_rows = rng.UniformInt(3, 40);
  const int64_t morsel_rows = kMorselBlocks * eopts.zone_map_block_rows;
  int64_t rows = rng.UniformInt(1, 20 * morsel_rows);
  while (rows % eopts.zone_map_block_rows == 0 || rows % morsel_rows == 0) {
    ++rows;
  }
  TablePtr table = MorselTable(&rng, rows);
  Engine engine(eopts);
  ASSERT_TRUE(engine.RegisterTable(table).ok());
  EngineOptions scalar_opts = eopts;
  scalar_opts.kernel_isa = KernelIsa::kScalar;
  Engine scalar(scalar_opts);
  ASSERT_TRUE(scalar.RegisterTable(table).ok());
  ShardedEngineOptions shopts;
  shopts.num_shards = static_cast<int>(rng.UniformInt(2, 6));
  auto by_range = ShardedEngine::Create(shopts).ValueOrDie();
  ASSERT_TRUE(by_range->PartitionTable(table).ok());

  int64_t blocks_scanned = 0;
  int64_t blocks_pruned = 0;
  for (int trial = 0; trial < 8; ++trial) {
    HistogramQuery q;
    q.table = "rand";
    q.bin_column = rng.Bernoulli(0.7) ? "a" : "b";
    q.bin_lo = rng.Uniform(-110.0, 0.0);
    q.bin_hi = q.bin_lo + rng.Uniform(1.0, 150.0);
    q.bins = rng.UniformInt(1, 30);
    q.predicates = {RandomRange(&rng, "a")};
    if (rng.Bernoulli(0.5)) q.predicates.push_back(RandomRange(&rng, "c"));
    if (rng.Bernoulli(0.3)) q.predicates.push_back(RandomRange(&rng, "b"));

    auto scan = engine.PrepareHistogram(q);
    ASSERT_TRUE(scan.ok()) << scan.status().ToString();
    const int participants = static_cast<int>(rng.UniformInt(1, 4));
    std::vector<HistogramPartial> partials(
        static_cast<size_t>(participants));
    std::vector<int64_t> claimed(static_cast<size_t>(participants), 0);
    std::vector<std::thread> threads;
    for (int t = 0; t < participants; ++t) {
      threads.emplace_back([&, t] {
        claimed[static_cast<size_t>(t)] = engine.RunHistogramMorsels(
            **scan, &partials[static_cast<size_t>(t)]);
      });
    }
    for (std::thread& t : threads) t.join();
    int64_t total_claimed = 0;
    for (int64_t c : claimed) total_claimed += c;
    // Every morsel was claimed exactly once, and the queue stays drained.
    EXPECT_EQ(total_claimed, (rows + morsel_rows - 1) / morsel_rows);
    EXPECT_EQ((*scan)->queue.num_morsels, total_claimed);
    EXPECT_GE((*scan)->queue.next.load(), total_claimed);
    auto merged = engine.MergeHistogram(**scan, partials);
    ASSERT_TRUE(merged.ok());

    auto ref = scalar.Execute(Query(q));
    auto ranged = by_range->Execute(Query(q));
    ASSERT_TRUE(ref.ok());
    ASSERT_TRUE(ranged.ok());
    const auto& hm = std::get<FixedHistogram>(merged->data);
    EXPECT_EQ(hm, std::get<FixedHistogram>(ref->data))
        << QueryToString(Query(q));
    EXPECT_EQ(hm, std::get<FixedHistogram>(ranged->data));
    EXPECT_EQ(merged->stats, ref->stats);
    EXPECT_EQ(merged->execution_time, ref->execution_time);
    EXPECT_EQ(merged->post_aggregation_time, ref->post_aggregation_time);
    blocks_scanned += merged->stats.blocks_scanned;
    blocks_pruned += merged->stats.blocks_pruned;
  }
  // The merge folds each scan into the engine's pruning totals once.
  EXPECT_EQ(engine.PruneTotals().blocks_scanned, blocks_scanned);
  EXPECT_EQ(engine.PruneTotals().blocks_pruned, blocks_pruned);
}

TEST_P(ShardedOracleTest, SelectPageMatchesUnsharded) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 3917 + 29);
  TablePtr table = RandomTable(&rng, rng.UniformInt(20, 400));
  Engine engine(EngineOptions{});
  ASSERT_TRUE(engine.RegisterTable(table).ok());
  ShardedEngineOptions shopts;
  shopts.num_shards = static_cast<int>(rng.UniformInt(2, 6));
  auto sharded = ShardedEngine::Create(shopts).ValueOrDie();
  ASSERT_TRUE(sharded->PartitionTable(table).ok());

  SelectQuery q;
  q.table = "rand";
  q.columns = {"a", "b"};
  const double lo = rng.Uniform(-120.0, 80.0);
  q.predicates = {RangePredicate{"a", lo, lo + rng.Uniform(0.0, 180.0)}};
  q.offset = rng.UniformInt(0, 60);
  q.limit = rng.Bernoulli(0.2) ? -1 : rng.UniformInt(0, 80);

  auto one = engine.Execute(Query(q));
  auto many = sharded->Execute(Query(q));
  ASSERT_TRUE(one.ok());
  ASSERT_TRUE(many.ok());
  const auto& r1 = std::get<RowSet>(one->data);
  const auto& rk = std::get<RowSet>(many->data);
  EXPECT_EQ(rk.column_names, r1.column_names);
  ASSERT_EQ(rk.rows.size(), r1.rows.size());
  for (size_t i = 0; i < r1.rows.size(); ++i) {
    EXPECT_EQ(rk.rows[i], r1.rows[i]) << "row " << i;
  }
}

TEST_P(ShardedOracleTest, JoinPageMatchesUnsharded) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 5741 + 41);
  // Left: paged fact table with unique ids in shuffled order (the §6 Q2
  // shape — the engine's join dedups repeated page keys, so uniqueness is
  // part of the workload contract). Right: replicated probe side.
  Schema left_schema({{"a", DataType::kDouble}, {"b", DataType::kInt64}});
  TableBuilder lb("fact", left_schema);
  const int64_t left_rows = rng.UniformInt(20, 300);
  std::vector<int64_t> ids(static_cast<size_t>(left_rows));
  for (int64_t i = 0; i < left_rows; ++i) ids[static_cast<size_t>(i)] = i;
  for (size_t i = ids.size(); i > 1; --i) {
    std::swap(ids[i - 1],
              ids[static_cast<size_t>(rng.UniformInt(0,
                                                     static_cast<int64_t>(i) -
                                                         1))]);
  }
  for (int64_t i = 0; i < left_rows; ++i) {
    lb.MustAppendRow({Value(rng.Uniform(-10.0, 10.0)),
                      Value(ids[static_cast<size_t>(i)])});
  }
  TablePtr left = std::move(lb).Finish().ValueOrDie();
  Schema right_schema({{"b", DataType::kInt64}, {"c", DataType::kDouble}});
  TableBuilder rb("dim", right_schema);
  for (int64_t key = 0; key < left_rows; ++key) {
    if (rng.Bernoulli(0.8)) {
      rb.MustAppendRow({Value(key), Value(static_cast<double>(key) * 1.5)});
    }
  }
  TablePtr right = std::move(rb).Finish().ValueOrDie();

  Engine engine(EngineOptions{});
  ASSERT_TRUE(engine.RegisterTable(left).ok());
  ASSERT_TRUE(engine.RegisterTable(right).ok());
  ShardedEngineOptions shopts;
  shopts.num_shards = static_cast<int>(rng.UniformInt(2, 6));
  auto sharded = ShardedEngine::Create(shopts).ValueOrDie();
  ASSERT_TRUE(sharded->PartitionTable(left).ok());
  ASSERT_TRUE(sharded->ReplicateTable(right).ok());

  JoinPageQuery q;
  q.left_table = "fact";
  q.right_table = "dim";
  q.join_column = "b";
  q.offset = rng.UniformInt(0, left_rows + 10);  // Sometimes past the end.
  q.limit = rng.UniformInt(0, 120);

  auto one = engine.Execute(Query(q));
  auto many = sharded->Execute(Query(q));
  ASSERT_TRUE(one.ok());
  ASSERT_TRUE(many.ok());
  const auto& r1 = std::get<RowSet>(one->data);
  const auto& rk = std::get<RowSet>(many->data);
  EXPECT_EQ(rk.column_names, r1.column_names);
  ASSERT_EQ(rk.rows.size(), r1.rows.size());
  for (size_t i = 0; i < r1.rows.size(); ++i) {
    EXPECT_EQ(rk.rows[i], r1.rows[i]) << "row " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInputs, ShardedOracleTest,
                         ::testing::Range(0, 20));

// ---------------------- Zone-map pruning vs unpruned ----------------------

/// The pruning contract: for any table, block size, and query, a zone-map
/// -pruned scan returns bitwise-identical `QueryResultData` to the
/// unpruned scan — pruned blocks contain no matches by construction, so
/// only the work counters may differ.
class ZoneMapOracleTest : public ::testing::TestWithParam<int> {};

/// A table whose `a` column is sorted: the clustered layout where most
/// blocks are prunable under a narrow range predicate.
TablePtr SortedTable(Rng* rng, int64_t rows) {
  std::vector<double> a(static_cast<size_t>(rows));
  for (double& v : a) v = rng->Uniform(-100.0, 100.0);
  std::sort(a.begin(), a.end());
  Schema schema({{"a", DataType::kDouble}, {"b", DataType::kInt64}});
  TableBuilder builder("rand", schema);
  for (double v : a) {
    builder.MustAppendRow({Value(v), Value(rng->UniformInt(-50, 50))});
  }
  return std::move(builder).Finish().ValueOrDie();
}

TEST_P(ZoneMapOracleTest, PrunedResultsMatchUnpruned) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 8513 + 19);
  const int64_t rows = rng.UniformInt(50, 900);
  TablePtr table = rng.Bernoulli(0.5) ? SortedTable(&rng, rows)
                                      : RandomTable(&rng, rows);
  EngineOptions plain;
  plain.profile = rng.Bernoulli(0.5) ? EngineProfile::kDiskRowStore
                                     : EngineProfile::kInMemoryColumnStore;
  EngineOptions pruned = plain;
  pruned.enable_zone_maps = true;
  // Tiny blocks so every run exercises many block boundaries.
  pruned.zone_map_block_rows = rng.UniformInt(1, 64);
  Engine base(plain);
  Engine zoned(pruned);
  ASSERT_TRUE(base.RegisterTable(table).ok());
  ASSERT_TRUE(zoned.RegisterTable(table).ok());

  for (int trial = 0; trial < 8; ++trial) {
    const double lo = rng.Uniform(-120.0, 100.0);
    const double hi = lo + rng.Uniform(0.0, 60.0);  // Often narrow.
    Query query;
    if (rng.Bernoulli(0.5)) {
      HistogramQuery q;
      q.table = "rand";
      q.bin_column = "a";
      q.bin_lo = -100.0;
      q.bin_hi = 100.0;
      q.bins = rng.UniformInt(1, 30);
      q.predicates = {RangePredicate{"a", lo, hi}};
      query = q;
    } else {
      SelectQuery q;
      q.table = "rand";
      q.columns = {"a", "b"};
      q.predicates = {RangePredicate{"a", lo, hi}};
      q.offset = rng.UniformInt(0, 40);
      q.limit = rng.Bernoulli(0.2) ? -1 : rng.UniformInt(0, 100);
      query = q;
    }
    auto r1 = base.Execute(query);
    auto r2 = zoned.Execute(query);
    ASSERT_TRUE(r1.ok());
    ASSERT_TRUE(r2.ok());
    EXPECT_EQ(r2->data, r1->data) << "trial " << trial;
    EXPECT_EQ(r2->stats.tuples_matched, r1->stats.tuples_matched);
    // The unpruned engine never counts blocks; the pruned one never
    // scans a tuple the oracle did not.
    EXPECT_EQ(r1->stats.blocks_pruned, 0);
    EXPECT_LE(r2->stats.tuples_scanned, r1->stats.tuples_scanned);
  }
  // The engine-lifetime totals reconcile with what the scans reported.
  const ScanPruneTotals totals = zoned.PruneTotals();
  EXPECT_GE(totals.blocks_scanned, 0);
  zoned.ClearCaches();
  EXPECT_EQ(zoned.PruneTotals().blocks_scanned, 0);
  EXPECT_EQ(zoned.PruneTotals().blocks_pruned, 0);
}

INSTANTIATE_TEST_SUITE_P(RandomInputs, ZoneMapOracleTest,
                         ::testing::Range(0, 20));

// ---------------------- Result cache vs uncached ----------------------

/// The cache contract: routing any query stream through a `ResultCache`
/// returns the same `QueryResultData` the backend would have produced,
/// and the outcome counters reconcile with the number of lookups.
class ResultCachePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(ResultCachePropertyTest, CachedResultsMatchUncached) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 4099 + 37);
  TablePtr table = RandomTable(&rng, rng.UniformInt(50, 500));
  Engine engine(EngineOptions{});
  ASSERT_TRUE(engine.RegisterTable(table).ok());

  ResultCacheOptions copts;
  copts.num_shards = static_cast<int>(rng.UniformInt(1, 8));
  ResultCache cache(copts);
  const ResultCache::Backend backend = [&engine](const Query& q) {
    return engine.Execute(q);
  };

  // A small query pool replayed with repetition — the crossfilter regime
  // where identical interactions recur.
  std::vector<Query> pool;
  for (int i = 0; i < 6; ++i) {
    HistogramQuery q;
    q.table = "rand";
    q.bin_column = "a";
    q.bin_lo = -100.0;
    q.bin_hi = 100.0;
    q.bins = rng.UniformInt(1, 20);
    const double lo = rng.Uniform(-120.0, 80.0);
    q.predicates = {RangePredicate{"a", lo, lo + rng.Uniform(0.0, 150.0)},
                    RangePredicate{"b", -20.0, 30.0}};
    pool.push_back(q);
  }
  const int lookups = 60;
  for (int i = 0; i < lookups; ++i) {
    Query q = pool[static_cast<size_t>(rng.UniformInt(
        0, static_cast<int64_t>(pool.size()) - 1))];
    if (rng.Bernoulli(0.3)) {
      // Equivalent-but-rewritten form: reversed conjuncts plus a
      // redundant duplicate; must hit the same canonical key.
      auto& h = std::get<HistogramQuery>(q);
      std::reverse(h.predicates.begin(), h.predicates.end());
      h.predicates.push_back(h.predicates.front());
    }
    auto cached = cache.Execute(q, backend);
    auto direct = engine.Execute(q);
    ASSERT_TRUE(cached.ok());
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ(cached->response.data, direct->data) << "lookup " << i;
  }

  const ResultCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.Lookups(), lookups);
  EXPECT_EQ(stats.coalesced, 0);  // Single-threaded: no concurrent flights.
  // Six distinct canonical keys; everything after the first encounter of
  // each must hit (the equivalent rewrites included).
  EXPECT_EQ(stats.misses, static_cast<int64_t>(pool.size()));
  EXPECT_EQ(stats.hits, lookups - static_cast<int64_t>(pool.size()));

  // Invalidation empties the cache and the next lookups miss again.
  cache.InvalidateTable("rand");
  EXPECT_EQ(cache.Stats().entries, 0);
  auto again = cache.Execute(pool[0], backend);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->outcome, CacheOutcome::kMiss);
}

TEST_P(ResultCachePropertyTest, FullPrecisionBoundsNeverShareAnEntry) {
  // A bound and its twin that differs only in the 7th to 17th significant
  // digit are different queries. Anchoring the bound on a data value
  // makes the twin flip that row in or out, so a shared entry would
  // return a wrong answer. Every answer must equal the scalar engine's.
  Rng rng(static_cast<uint64_t>(GetParam()) * 7919 + 3);
  TablePtr table = RandomTable(&rng, rng.UniformInt(200, 2000));
  Engine engine(EngineOptions{});
  ASSERT_TRUE(engine.RegisterTable(table).ok());
  EngineOptions scalar_opts;
  scalar_opts.kernel_isa = KernelIsa::kScalar;
  Engine scalar(scalar_opts);
  ASSERT_TRUE(scalar.RegisterTable(table).ok());
  ResultCache cache(ResultCacheOptions{});
  const ResultCache::Backend backend = [&engine](const Query& q) {
    return engine.Execute(q);
  };
  const auto& a = (*table->ColumnByName("a"))->double_data();
  constexpr double kInf = std::numeric_limits<double>::infinity();

  std::set<std::string> keys;
  int64_t lookups = 0;
  auto check = [&](const Query& q) {
    keys.insert(CanonicalQueryKey(q));
    ++lookups;
    auto cached = cache.Execute(q, backend);
    auto ref = scalar.Execute(q);
    ASSERT_TRUE(cached.ok());
    ASSERT_TRUE(ref.ok());
    EXPECT_EQ(cached->response.data, ref->data) << QueryToString(q);
  };
  for (int trial = 0; trial < 20; ++trial) {
    const double v = a[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(a.size()) - 1))];
    const int digit = static_cast<int>(rng.UniformInt(7, 17));
    const double sign = rng.Bernoulli(0.5) ? 1.0 : -1.0;
    double twin = v + sign * std::fabs(v) * std::pow(10.0, 1 - digit);
    if (twin == v) twin = std::nextafter(v, sign * kInf);
    HistogramQuery q;
    q.table = "rand";
    q.bin_column = "a";
    q.bin_lo = -100.0;
    q.bin_hi = 100.0;
    q.bins = rng.UniformInt(1, 20);
    const bool lower = rng.Bernoulli(0.5);
    HistogramQuery twin_q = q;
    q.predicates = {lower ? RangePredicate{"a", v, v + 50.0}
                          : RangePredicate{"a", v - 50.0, v}};
    twin_q.predicates = {lower ? RangePredicate{"a", twin, v + 50.0}
                               : RangePredicate{"a", v - 50.0, twin}};
    // A bin edge twin changes the answer's edges, so it keys apart too.
    HistogramQuery edge_q = q;
    edge_q.bin_hi = 100.0 + 100.0 * std::pow(10.0, 1 - digit);
    EXPECT_NE(CanonicalQueryKey(q), CanonicalQueryKey(twin_q));
    EXPECT_NE(CanonicalQueryKey(q), CanonicalQueryKey(edge_q));
    check(q);
    check(twin_q);
    check(edge_q);
  }
  // One entry per distinct key: no twin was ever served its sibling's.
  EXPECT_EQ(cache.Stats().misses, static_cast<int64_t>(keys.size()));
  EXPECT_EQ(cache.Stats().hits, lookups - static_cast<int64_t>(keys.size()));

  // Spellings that select the same rows still share a key: a −0.0 range
  // bound and +0.0, any two NaN bounds, and a NaN bound (which excludes
  // nothing) intersected with a finite one.
  HistogramQuery z;
  z.table = "rand";
  z.bin_column = "a";
  z.bin_lo = -100.0;
  z.bin_hi = 100.0;
  z.bins = 10;
  HistogramQuery z2 = z;
  z.predicates = {RangePredicate{"a", -0.0, 50.0}};
  z2.predicates = {RangePredicate{"a", 0.0, 50.0}};
  EXPECT_EQ(CanonicalQueryKey(z), CanonicalQueryKey(z2));
  z.predicates = {RangePredicate{"a", std::nan("1"), 50.0}};
  z2.predicates = {RangePredicate{"a", -std::nan("2"), 50.0}};
  EXPECT_EQ(CanonicalQueryKey(z), CanonicalQueryKey(z2));
  z.predicates.push_back(RangePredicate{"a", 5.0, kInf});
  z2.predicates = {RangePredicate{"a", 5.0, 50.0}};
  EXPECT_EQ(CanonicalQueryKey(z), CanonicalQueryKey(z2));
  check(z);
  check(z2);
  // Bin edges stay bit-exact: −0.0 and +0.0 edges are different answers.
  z2 = z;
  z.bin_lo = -0.0;
  z2.bin_lo = 0.0;
  EXPECT_NE(CanonicalQueryKey(z), CanonicalQueryKey(z2));
}

INSTANTIATE_TEST_SUITE_P(RandomInputs, ResultCachePropertyTest,
                         ::testing::Range(0, 15));

// ----------------------- Progressive sampling property -----------------------

class ProgressivePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(ProgressivePropertyTest, PrefixSamplingIsUnbiasedEnough) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 433 + 7);
  TablePtr table = RandomTable(&rng, 20000);
  HistogramQuery q;
  q.table = "rand";
  q.bin_column = "a";
  q.bin_lo = -100.0;
  q.bin_hi = 100.0;
  q.bins = 10;
  ProgressiveOptions opts;
  opts.fractions = {0.05, 0.25, 1.0};
  auto steps = RunProgressiveHistogram(table, q, opts);
  ASSERT_TRUE(steps.ok());
  // A 5% uniform sample of 20k rows estimates a 10-bin distribution to
  // within a small MSE; 25% must not be worse than 4x the 5% error.
  EXPECT_LT((*steps)[0].mse_vs_exact, 5e-4);
  EXPECT_LE((*steps)[1].mse_vs_exact, (*steps)[0].mse_vs_exact * 4.0 + 1e-9);
  EXPECT_DOUBLE_EQ((*steps)[2].mse_vs_exact, 0.0);
  // Sample totals track the fractions.
  EXPECT_NEAR((*steps)[0].estimate.total() / (*steps)[2].estimate.total(),
              0.05, 0.02);
}

INSTANTIATE_TEST_SUITE_P(RandomTables, ProgressivePropertyTest,
                         ::testing::Range(0, 8));

// ------------------------ Incremental drag answers ------------------------

/// `Engine::ExecuteHistogramDrag` (docs/serve.md): a group that differs
/// from the previous one only in one range conjunct's bounds is answered
/// from the previous group's exact counts plus the rows the bounds swept.
/// Every answer must equal a scalar engine's `Execute` bit for bit, and it
/// must answer exactly when one conjunct moved and the sweep is within
/// the cutoff.
class DragOracleTest : public ::testing::TestWithParam<int> {};

constexpr double kDragInf = std::numeric_limits<double>::infinity();
constexpr double kDragNaN = std::numeric_limits<double>::quiet_NaN();

/// f64 columns x, y, z drawn from 61 levels (many ties), with ±0.0, ±inf
/// and NaN rows in each, plus an int64 column i.
TablePtr DragTable(Rng* rng, int64_t rows) {
  Schema schema({{"x", DataType::kDouble},
                 {"y", DataType::kDouble},
                 {"z", DataType::kDouble},
                 {"i", DataType::kInt64}});
  const auto value = [rng]() -> double {
    const double roll = rng->NextDouble();
    if (roll < 0.03) return kDragNaN;
    if (roll < 0.05) return rng->Bernoulli(0.5) ? kDragInf : -kDragInf;
    if (roll < 0.08) return rng->Bernoulli(0.5) ? 0.0 : -0.0;
    return static_cast<double>(rng->UniformInt(-30, 30)) * 0.25;
  };
  TableBuilder builder("drag", schema);
  for (int64_t r = 0; r < rows; ++r) {
    const double x = value();
    const double y = value();
    const double z = value();
    builder.MustAppendRow(
        {Value(x), Value(y), Value(z), Value(rng->UniformInt(-9, 9))});
  }
  return std::move(builder).Finish().ValueOrDie();
}

/// The distinct non-NaN values of `column`, ascending.
std::vector<double> Levels(const Table& table, const std::string& column) {
  std::vector<double> v;
  for (double x : (*table.ColumnByName(column))->double_data()) {
    if (!std::isnan(x)) v.push_back(x);
  }
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

/// A new bound: usually a data value a few levels from `current`, else
/// any data value, NaN, ±inf or a non-data value; a fifth of the time
/// nudged one ulp either way.
double PickBound(Rng* rng, const std::vector<double>& levels,
                 double current) {
  const double roll = rng->NextDouble();
  double v;
  if (roll < 0.6 && !std::isnan(current)) {
    int64_t pos = std::lower_bound(levels.begin(), levels.end(), current) -
                  levels.begin() + rng->UniformInt(-3, 3);
    pos = std::clamp<int64_t>(pos, 0,
                              static_cast<int64_t>(levels.size()) - 1);
    v = levels[static_cast<size_t>(pos)];
  } else if (roll < 0.75) {
    v = levels[static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(levels.size()) - 1))];
  } else if (roll < 0.8) {
    v = kDragNaN;
  } else if (roll < 0.9) {
    v = rng->Bernoulli(0.5) ? kDragInf : -kDragInf;
  } else {
    v = rng->Uniform(-10.0, 10.0);
  }
  const double ulp = rng->NextDouble();
  if (ulp < 0.1) return std::nextafter(v, kDragInf);
  if (ulp < 0.2) return std::nextafter(v, -kDragInf);
  return v;
}

/// Moves one conjunct: a bound or two, or to the full domain, an empty
/// range, or with its bounds swapped (lo > hi).
RangePredicate MoveRange(Rng* rng, const std::vector<double>& levels,
                         RangePredicate r) {
  const double shape = rng->NextDouble();
  if (shape < 0.05) {
    r.lo = -kDragInf;
    r.hi = kDragInf;
  } else if (shape < 0.1) {
    r.lo = levels[levels.size() / 2];
    r.hi = std::nextafter(r.lo, -kDragInf);
  } else if (shape < 0.15) {
    std::swap(r.lo, r.hi);
  } else {
    if (rng->Bernoulli(0.5)) {
      r.lo = PickBound(rng, levels, r.lo);
    } else {
      r.hi = PickBound(rng, levels, r.hi);
    }
    if (rng->Bernoulli(0.1)) r.hi = PickBound(rng, levels, r.hi);
  }
  return r;
}

bool RangePasses(double v, const RangePredicate& r) {
  return !(v < r.lo) && !(v > r.hi);
}

uint64_t Bits(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

/// A group of histograms sharing `preds`: bin columns y and z, and x
/// half the time; bin edges sometimes span the whole f64 range, so the
/// bin width is inf and an inf value's quotient is NaN.
std::vector<Query> DragGroup(Rng* rng, const std::vector<Predicate>& preds) {
  std::vector<Query> group;
  std::vector<std::string> bins = {"y", "z"};
  if (rng->Bernoulli(0.5)) bins.push_back("x");
  for (const std::string& column : bins) {
    HistogramQuery q;
    q.table = "drag";
    q.bin_column = column;
    if (rng->Bernoulli(0.1)) {
      q.bin_lo = -std::numeric_limits<double>::max();
      q.bin_hi = std::numeric_limits<double>::max();
    } else {
      q.bin_lo = rng->Uniform(-9.0, 0.0);
      q.bin_hi = q.bin_lo + rng->Uniform(0.5, 15.0);
    }
    q.bins = rng->UniformInt(1, 30);
    q.predicates = preds;
    group.push_back(q);
  }
  return group;
}

/// Executes `group` on `engine` into a drag base.
HistogramGroupCounts BaseOf(const Engine& engine,
                            const std::vector<Query>& group) {
  HistogramGroupCounts base;
  for (const Query& q : group) {
    auto r = engine.Execute(q);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (!r.ok()) return base;
    const auto& h = std::get<FixedHistogram>(r->data);
    base.queries.push_back(std::get<HistogramQuery>(q));
    base.counts.emplace_back(h.counts().begin(), h.counts().end());
  }
  return base;
}

/// Every answer of `got` equals `engine`'s `Execute` of `group`, bit for
/// bit (edges, counts and total).
void ExpectScalarAnswers(const Engine& engine, const std::vector<Query>& group,
                         const std::vector<QueryResponse>& got) {
  ASSERT_EQ(got.size(), group.size());
  for (size_t i = 0; i < group.size(); ++i) {
    auto ref = engine.Execute(group[i]);
    ASSERT_TRUE(ref.ok());
    const auto& want = std::get<FixedHistogram>(ref->data);
    const auto& have = std::get<FixedHistogram>(got[i].data);
    ASSERT_EQ(have.num_bins(), want.num_bins());
    EXPECT_EQ(Bits(have.lo()), Bits(want.lo()));
    EXPECT_EQ(Bits(have.hi()), Bits(want.hi()));
    EXPECT_EQ(Bits(have.total()), Bits(want.total()));
    for (size_t b = 0; b < want.num_bins(); ++b) {
      EXPECT_EQ(Bits(have.count(b)), Bits(want.count(b)))
          << QueryToString(group[i]) << " bin " << b;
    }
  }
}

std::unique_ptr<Engine> ScalarEngine(const TablePtr& table) {
  EngineOptions opts;
  opts.kernel_isa = KernelIsa::kScalar;
  auto engine = std::make_unique<Engine>(opts);
  EXPECT_TRUE(engine->RegisterTable(table).ok());
  return engine;
}

TEST_P(DragOracleTest, MoveChainsMatchScalarEngine) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7919 + 3);
  const int64_t rows = rng.UniformInt(40, 3000);
  TablePtr table = DragTable(&rng, rows);
  Engine engine(EngineOptions{});
  ASSERT_TRUE(engine.RegisterTable(table).ok());
  const auto scalar = ScalarEngine(table);
  const std::vector<std::string> columns = {"x", "y", "z"};
  std::map<std::string, std::vector<double>> levels;
  for (const std::string& c : columns) levels[c] = Levels(*table, c);

  std::vector<Predicate> preds;
  for (const std::string& c : columns) {
    preds.push_back(RangePredicate{c, -kDragInf, kDragInf});
  }
  const std::vector<Query> shape = DragGroup(&rng, preds);
  HistogramGroupCounts base = BaseOf(*scalar, shape);
  int answered = 0;
  int refused = 0;
  size_t k = 0;  // The moving conjunct; switches now and then.
  for (int step = 0; step < 60; ++step) {
    if (rng.Bernoulli(0.1)) k = static_cast<size_t>(rng.UniformInt(0, 2));
    const auto& before = std::get<RangePredicate>(preds[k]);
    const RangePredicate after =
        MoveRange(&rng, levels[columns[k]], before);
    // The rows whose side of the moved conjunct changed; NaN rows pass
    // both sides.
    const std::vector<double>& v =
        (*table->ColumnByName(columns[k]))->double_data();
    int64_t swept = 0;
    for (double x : v) {
      swept += !std::isnan(x) && RangePasses(x, before) != RangePasses(x, after);
    }
    const bool moved = Bits(before.lo) != Bits(after.lo) ||
                       Bits(before.hi) != Bits(after.hi);
    preds[k] = after;
    std::vector<Query> group = shape;
    for (Query& q : group) std::get<HistogramQuery>(q).predicates = preds;

    auto got = engine.ExecuteHistogramDrag(base, group);
    const bool expect = moved && swept <= rows / kDragSweepDivisor;
    ASSERT_EQ(got.has_value(), expect)
        << "step " << step << " swept " << swept << " of " << rows << ": "
        << QueryToString(group[0]);
    if (got.has_value()) {
      ++answered;
      ExpectScalarAnswers(*scalar, group, *got);
      EXPECT_EQ((*got)[0].stats.tuples_scanned, swept);
    } else {
      ++refused;
    }
    base = BaseOf(*scalar, group);
  }
  EXPECT_GT(answered, 0);
  EXPECT_GT(refused, 0);
}

TEST_P(DragOracleTest, RefusesWhatItCannotAnswer) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 104729 + 11);
  const int64_t rows = 2000;
  TablePtr table = DragTable(&rng, rows);
  Engine engine(EngineOptions{});
  ASSERT_TRUE(engine.RegisterTable(table).ok());
  const std::vector<Predicate> start = {
      RangePredicate{"x", -1.0, 1.0}, RangePredicate{"y", -kDragInf, kDragInf},
      RangePredicate{"z", -2.0, 2.0}};
  const std::vector<Query> group = DragGroup(&rng, start);
  const HistogramGroupCounts base = BaseOf(engine, group);
  const auto with = [&](std::vector<Predicate> preds) {
    std::vector<Query> g = group;
    for (Query& q : g) std::get<HistogramQuery>(q).predicates = preds;
    return g;
  };
  // The answerable move these refusals start from: x's lo by one level.
  std::vector<Predicate> one = start;
  std::get<RangePredicate>(one[0]).lo = -0.75;
  auto ok = engine.ExecuteHistogramDrag(base, with(one));
  ASSERT_TRUE(ok.has_value());
  ExpectScalarAnswers(*ScalarEngine(table), with(one), *ok);

  // Nothing moved, or two conjuncts moved.
  EXPECT_FALSE(engine.ExecuteHistogramDrag(base, group).has_value());
  std::vector<Predicate> two = one;
  std::get<RangePredicate>(two[2]).hi = 2.25;
  EXPECT_FALSE(engine.ExecuteHistogramDrag(base, with(two)).has_value());
  // A bound that differs only in its sign bit is a move; the sweep is
  // empty and the answer the base's.
  std::vector<Predicate> signed_zero = start;
  std::get<RangePredicate>(signed_zero[1]).lo = 0.0;
  std::vector<Predicate> signed_zero2 = signed_zero;
  std::get<RangePredicate>(signed_zero2[1]).lo = -0.0;
  const HistogramGroupCounts zero_base = BaseOf(engine, with(signed_zero));
  auto zero = engine.ExecuteHistogramDrag(zero_base, with(signed_zero2));
  ASSERT_TRUE(zero.has_value());
  EXPECT_EQ((*zero)[0].stats.tuples_scanned, 0);

  // A changed bin spec: bins, an edge's bits, the column, the order.
  for (int change = 0; change < 4; ++change) {
    std::vector<Query> g = with(one);
    auto& q0 = std::get<HistogramQuery>(g[0]);
    if (change == 0) q0.bins += 1;
    if (change == 1) q0.bin_lo = std::nextafter(q0.bin_lo, kDragInf);
    if (change == 2) q0.bin_column = "x";
    if (change == 3) std::swap(g[0], g[1]);
    EXPECT_FALSE(engine.ExecuteHistogramDrag(base, g).has_value()) << change;
  }
  // A group of another size, a non-histogram query, a different table.
  std::vector<Query> shorter = with(one);
  shorter.pop_back();
  EXPECT_FALSE(engine.ExecuteHistogramDrag(base, shorter).has_value());
  std::vector<Query> mixed = with(one);
  SelectQuery select;
  select.table = "drag";
  mixed.back() = select;
  EXPECT_FALSE(engine.ExecuteHistogramDrag(base, mixed).has_value());

  // An int64 conjunct or an int64 bin column.
  std::vector<Predicate> with_int = start;
  with_int.push_back(RangePredicate{"i", -3.0, 3.0});
  std::vector<Predicate> with_int_moved = with_int;
  std::get<RangePredicate>(with_int_moved[0]).lo = -0.75;
  EXPECT_FALSE(engine
                   .ExecuteHistogramDrag(BaseOf(engine, with(with_int)),
                                         with(with_int_moved))
                   .has_value());
  std::vector<Query> int_bins = group;
  std::get<HistogramQuery>(int_bins[0]).bin_column = "i";
  std::vector<Query> int_bins_moved = int_bins;
  for (Query& q : int_bins_moved) std::get<HistogramQuery>(q).predicates = one;
  EXPECT_FALSE(engine
                   .ExecuteHistogramDrag(BaseOf(engine, int_bins),
                                         int_bins_moved)
                   .has_value());

  // A sweep over the cutoff: x from [-1, 1] to the full domain.
  std::vector<Predicate> wide = start;
  std::get<RangePredicate>(wide[0]) = RangePredicate{"x", -kDragInf, kDragInf};
  EXPECT_FALSE(engine.ExecuteHistogramDrag(base, with(wide)).has_value());

  // The disk profile.
  EngineOptions disk_opts;
  disk_opts.profile = EngineProfile::kDiskRowStore;
  Engine disk(disk_opts);
  ASSERT_TRUE(disk.RegisterTable(table).ok());
  EXPECT_FALSE(disk.ExecuteHistogramDrag(base, with(one)).has_value());
}

TEST_P(DragOracleTest, ConcurrentFirstUseSharesOneSortedOrder) {
  // Four threads answer drags over one column at once, so the first use
  // of its sorted order races: each must wait for the one build and
  // answer exactly.
  Rng rng(static_cast<uint64_t>(GetParam()) * 3571 + 5);
  TablePtr table = DragTable(&rng, rng.UniformInt(500, 4000));
  Engine engine(EngineOptions{});
  ASSERT_TRUE(engine.RegisterTable(table).ok());
  const auto scalar = ScalarEngine(table);
  const std::vector<Predicate> start = {
      RangePredicate{"x", -2.0, 2.0}, RangePredicate{"y", -4.0, 5.0},
      RangePredicate{"z", -kDragInf, kDragInf}};
  const std::vector<Query> group = DragGroup(&rng, start);
  const HistogramGroupCounts base = BaseOf(*scalar, group);
  constexpr int kThreads = 4;
  std::vector<std::vector<Query>> moves(kThreads, group);
  for (int t = 0; t < kThreads; ++t) {
    for (Query& q : moves[static_cast<size_t>(t)]) {
      std::get<RangePredicate>(std::get<HistogramQuery>(q).predicates[0])
          .hi = 2.0 + 0.25 * (t % 2);
      std::get<RangePredicate>(std::get<HistogramQuery>(q).predicates[0])
          .lo = -2.0 - 0.25 * (t / 2) - 0.25 * (t % 2 == 0);
    }
  }
  std::atomic<int> ready{0};
  std::vector<std::optional<std::vector<QueryResponse>>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }
      got[static_cast<size_t>(t)] =
          engine.ExecuteHistogramDrag(base, moves[static_cast<size_t>(t)]);
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_TRUE(got[static_cast<size_t>(t)].has_value()) << t;
    ExpectScalarAnswers(*scalar, moves[static_cast<size_t>(t)],
                        *got[static_cast<size_t>(t)]);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomTables, DragOracleTest,
                         ::testing::Range(0, 12));

}  // namespace
}  // namespace ideval
