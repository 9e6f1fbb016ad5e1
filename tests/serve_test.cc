#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "serve/admission.h"
#include "serve/load_driver.h"
#include "serve/server.h"
#include "widget/crossfilter.h"

namespace ideval {
namespace {

TablePtr MakeServeTable(int64_t rows) {
  Schema schema({{"v", DataType::kDouble}});
  TableBuilder b("t", schema);
  for (int64_t i = 0; i < rows; ++i) {
    b.MustAppendRow({Value(static_cast<double>(i))});
  }
  return std::move(b).Finish().ValueOrDie();
}

Query HistQuery(int64_t rows, int64_t bins = 20) {
  HistogramQuery q;
  q.table = "t";
  q.bin_column = "v";
  q.bin_lo = 0.0;
  q.bin_hi = static_cast<double>(rows);
  q.bins = bins;
  return q;
}

/// Engine over a `rows`-sized table; bigger tables = slower service.
class ServeTest : public ::testing::Test {
 protected:
  void MakeEngine(int64_t rows) {
    rows_ = rows;
    engine_ = std::make_unique<Engine>(EngineOptions{});
    ASSERT_TRUE(engine_->RegisterTable(MakeServeTable(rows)).ok());
  }

  std::unique_ptr<QueryServer> MakeServer(ServerOptions opts) {
    auto server = QueryServer::Create(engine_.get(), opts);
    EXPECT_TRUE(server.ok()) << server.status().ToString();
    return std::move(server).ValueOrDie();
  }

  std::vector<Query> Group(int64_t bins = 20) {
    return {HistQuery(rows_, bins)};
  }

  int64_t rows_ = 0;
  std::unique_ptr<Engine> engine_;
};

void ExpectReconciles(const ServerStatsSnapshot& snap) {
  // Every submitted group must land in exactly one terminal bucket.
  EXPECT_EQ(snap.totals.groups_submitted,
            snap.totals.groups_executed + snap.totals.GroupsShed() +
                snap.totals.groups_rejected + snap.groups_queued);
  // The door partitions submissions: admitted past it, shed at it
  // (throttled), or rejected. Post-admission sheds (stale, coalesced)
  // must come out of the admitted count.
  EXPECT_EQ(snap.totals.groups_submitted,
            snap.totals.groups_admitted + snap.totals.groups_shed_throttled +
                snap.totals.groups_rejected);
  EXPECT_EQ(snap.totals.groups_admitted,
            snap.totals.groups_executed + snap.totals.groups_shed_stale +
                snap.totals.groups_shed_coalesced + snap.groups_queued);
  SessionCounters sum;
  int64_t queued = 0;
  for (const auto& row : snap.sessions) {
    EXPECT_EQ(row.counters.groups_submitted,
              row.counters.groups_executed + row.counters.GroupsShed() +
                  row.counters.groups_rejected + row.queued);
    EXPECT_EQ(row.counters.groups_submitted,
              row.counters.groups_admitted +
                  row.counters.groups_shed_throttled +
                  row.counters.groups_rejected);
    // A session that ever queued a group must have seen depth >= 1.
    if (row.counters.groups_admitted > 0) EXPECT_GE(row.queue_hwm, 1);
    sum += row.counters;
    queued += row.queued;
  }
  EXPECT_EQ(sum.groups_submitted, snap.totals.groups_submitted);
  EXPECT_EQ(sum.groups_executed, snap.totals.groups_executed);
  EXPECT_EQ(queued, snap.groups_queued);
}

TEST_F(ServeTest, CreateValidatesOptions) {
  MakeEngine(100);
  ServerOptions opts;
  opts.num_workers = 0;
  EXPECT_EQ(QueryServer::Create(engine_.get(), opts).status().code(),
            StatusCode::kInvalidArgument);
  opts.num_workers = -3;
  EXPECT_EQ(QueryServer::Create(engine_.get(), opts).status().code(),
            StatusCode::kInvalidArgument);
  opts = ServerOptions{};
  opts.max_queue_per_session = 0;
  EXPECT_EQ(QueryServer::Create(engine_.get(), opts).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(QueryServer::Create(static_cast<const Engine*>(nullptr),
                                ServerOptions{}).status().code(),
            StatusCode::kInvalidArgument);
  // The shared cache's knobs must be positive.
  opts = ServerOptions{};
  opts.enable_shared_cache = true;
  opts.shared_cache_bytes = 0;
  EXPECT_EQ(QueryServer::Create(engine_.get(), opts).status().code(),
            StatusCode::kInvalidArgument);
  opts = ServerOptions{};
  opts.enable_shared_cache = true;
  opts.shared_cache_shards = 0;
  EXPECT_EQ(QueryServer::Create(engine_.get(), opts).status().code(),
            StatusCode::kInvalidArgument);
  // Tracing needs a positive ring capacity (only checked when enabled).
  opts = ServerOptions{};
  opts.enable_tracing = true;
  opts.trace_buffer_spans = 0;
  EXPECT_EQ(QueryServer::Create(engine_.get(), opts).status().code(),
            StatusCode::kInvalidArgument);
  opts.enable_tracing = false;
  EXPECT_TRUE(QueryServer::Create(engine_.get(), opts).ok());
}

TEST_F(ServeTest, ExecutesRealQueriesAndCounts) {
  MakeEngine(1000);
  auto server = MakeServer(ServerOptions{});
  const uint64_t sid = server->OpenSession();
  for (int i = 0; i < 5; ++i) {
    auto out = server->Submit(sid, Group());
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_EQ(out->disposition, SubmitDisposition::kEnqueued);
    server->Drain();
  }
  auto snap = server->Snapshot();
  EXPECT_EQ(snap.totals.groups_submitted, 5);
  EXPECT_EQ(snap.totals.groups_executed, 5);
  EXPECT_EQ(snap.totals.queries_executed, 5);
  EXPECT_EQ(snap.totals.queries_failed, 0);
  // Draining between submissions means no interaction ever outpaced
  // execution — the zero-latency regime.
  EXPECT_EQ(snap.totals.lcv_violations, 0);
  EXPECT_GT(snap.latency_mean_ms, 0.0);
  EXPECT_GE(snap.latency_p90_ms, 0.0);
  ExpectReconciles(snap);
}

TEST_F(ServeTest, UnknownAndClosedSessionsAreErrors) {
  MakeEngine(100);
  auto server = MakeServer(ServerOptions{});
  EXPECT_EQ(server->Submit(42, Group()).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(server->CloseSession(42).code(), StatusCode::kNotFound);
  const uint64_t sid = server->OpenSession();
  ASSERT_TRUE(server->CloseSession(sid).ok());
  EXPECT_EQ(server->Submit(sid, Group()).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(server->Submit(sid, {}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ServeTest, FifoQueueOverflowPushesBack) {
  MakeEngine(400000);  // Slow enough that a burst outruns one worker.
  ServerOptions opts;
  opts.num_workers = 1;
  opts.max_queue_per_session = 2;
  opts.policy = AdmissionPolicy::kFifo;
  auto server = MakeServer(opts);
  const uint64_t sid = server->OpenSession();
  int64_t rejected = 0;
  for (int i = 0; i < 20; ++i) {
    auto out = server->Submit(sid, Group());
    ASSERT_TRUE(out.ok());
    rejected += out->disposition == SubmitDisposition::kRejected;
  }
  server->Drain();
  auto snap = server->Snapshot();
  EXPECT_EQ(snap.totals.groups_submitted, 20);
  EXPECT_EQ(snap.totals.groups_rejected, rejected);
  EXPECT_GE(rejected, 1);  // Cap 2 + one in flight can't absorb 20.
  // FIFO never sheds — whatever was admitted ran.
  EXPECT_EQ(snap.totals.GroupsShed(), 0);
  EXPECT_EQ(snap.totals.groups_executed, 20 - rejected);
  ExpectReconciles(snap);
}

TEST_F(ServeTest, SkipStaleShedsWithAccounting) {
  MakeEngine(400000);
  ServerOptions opts;
  opts.num_workers = 1;
  opts.max_queue_per_session = 4;
  opts.policy = AdmissionPolicy::kSkipStale;
  auto server = MakeServer(opts);
  const uint64_t sid = server->OpenSession();
  for (int i = 0; i < 20; ++i) {
    auto out = server->Submit(sid, Group());
    ASSERT_TRUE(out.ok());
    // Skip-stale sheds instead of pushing back; the door always admits.
    EXPECT_NE(out->disposition, SubmitDisposition::kRejected);
  }
  server->Drain();
  auto snap = server->Snapshot();
  EXPECT_EQ(snap.totals.groups_submitted, 20);
  EXPECT_GE(snap.totals.groups_shed_stale, 1);
  EXPECT_EQ(snap.totals.groups_rejected, 0);
  EXPECT_LT(snap.totals.groups_executed, 20);
  ExpectReconciles(snap);
}

TEST_F(ServeTest, ThrottleShedsAtTheDoor) {
  MakeEngine(1000);
  ServerOptions opts;
  opts.policy = AdmissionPolicy::kThrottle;
  opts.throttle_min_interval = Duration::Seconds(10.0);
  auto server = MakeServer(opts);
  const uint64_t sid = server->OpenSession();
  int64_t throttled = 0;
  for (int i = 0; i < 5; ++i) {
    auto out = server->Submit(sid, Group());
    ASSERT_TRUE(out.ok());
    throttled += out->disposition == SubmitDisposition::kThrottled;
  }
  server->Drain();
  auto snap = server->Snapshot();
  // The burst sits far inside one min_interval: first passes, rest shed.
  EXPECT_EQ(throttled, 4);
  EXPECT_EQ(snap.totals.groups_executed, 1);
  EXPECT_EQ(snap.totals.groups_shed_throttled, 4);
  ExpectReconciles(snap);
}

TEST_F(ServeTest, DebounceCoalescesToTheNewest) {
  MakeEngine(1000);
  ServerOptions opts;
  opts.policy = AdmissionPolicy::kDebounce;
  // Far longer than the burst below, so no group becomes runnable
  // mid-burst even on a heavily loaded machine.
  opts.debounce_quiet = Duration::Seconds(1.0);
  auto server = MakeServer(opts);
  const uint64_t sid = server->OpenSession();
  int64_t coalesced = 0;
  for (int i = 0; i < 5; ++i) {
    auto out = server->Submit(sid, Group());
    ASSERT_TRUE(out.ok());
    coalesced += out->disposition == SubmitDisposition::kCoalesced;
  }
  server->Drain();
  auto snap = server->Snapshot();
  // Only the interaction the user settled on runs (trailing edge).
  EXPECT_EQ(snap.totals.groups_executed, 1);
  EXPECT_EQ(snap.totals.groups_shed_coalesced, 4);
  EXPECT_EQ(coalesced, 4);
  // And it ran only after the quiet period.
  EXPECT_GE(snap.latency_mean_ms, opts.debounce_quiet.millis());
  ExpectReconciles(snap);
}

TEST_F(ServeTest, SharedCacheServesAcrossSessions) {
  MakeEngine(1000);
  ServerOptions opts;
  opts.enable_shared_cache = true;
  auto server = MakeServer(opts);

  // Session A warms the cache; session B's identical query hits.
  const uint64_t a = server->OpenSession();
  const uint64_t b = server->OpenSession();
  ASSERT_TRUE(server->Submit(a, Group()).ok());
  server->Drain();
  ASSERT_TRUE(server->Submit(b, Group()).ok());
  server->Drain();
  auto snap = server->Snapshot();
  EXPECT_TRUE(snap.result_cache_enabled);
  EXPECT_EQ(snap.totals.queries_executed, 2);
  EXPECT_EQ(snap.result_cache.misses, 1);
  EXPECT_EQ(snap.result_cache.hits, 1);
  EXPECT_EQ(snap.totals.cache_hits, 1);
  EXPECT_EQ(snap.result_cache.entries, 1);
  EXPECT_GT(snap.result_cache.bytes, 0);

  // Cached and uncached answers are identical.
  auto direct = engine_->Execute(Group()[0]);
  ASSERT_TRUE(direct.ok());
  auto cached = server->result_cache()->Execute(
      Group()[0], [this](const Query& q) { return engine_->Execute(q); });
  ASSERT_TRUE(cached.ok());
  EXPECT_EQ(cached->outcome, CacheOutcome::kHit);
  EXPECT_EQ(cached->response.data, direct->data);
}

TEST_F(ServeTest, SharedCacheWorksOverShardedBackend) {
  // The shared cache layers above scatter/merge, so it serves a sharded
  // backend too.
  const int64_t rows = 5000;
  ShardedEngineOptions shopts;
  shopts.num_shards = 3;
  auto sharded = ShardedEngine::Create(shopts).ValueOrDie();
  ASSERT_TRUE(sharded->PartitionTable(MakeServeTable(rows)).ok());

  ServerOptions opts;
  opts.num_workers = 2;
  opts.max_queue_per_session = 64;
  opts.enable_shared_cache = true;
  auto made = QueryServer::Create(sharded.get(), opts);
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  auto server = std::move(made).ValueOrDie();

  const uint64_t sid = server->OpenSession();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(server->Submit(sid, {HistQuery(rows)}).ok());
    server->Drain();
  }
  auto snap = server->Snapshot();
  server->Stop();
  ExpectReconciles(snap);
  EXPECT_EQ(snap.num_shards, 3);
  EXPECT_EQ(snap.totals.queries_executed, 10);
  EXPECT_EQ(snap.totals.queries_failed, 0);
  // One scatter/merge execution; nine served from the shared cache.
  EXPECT_EQ(snap.result_cache.misses, 1);
  EXPECT_EQ(snap.result_cache.hits, 9);

  // The merged-and-cached answer matches a direct sharded execution.
  auto direct = sharded->Execute(HistQuery(rows));
  ASSERT_TRUE(direct.ok());
  const auto& hist = std::get<FixedHistogram>(direct->data);
  EXPECT_DOUBLE_EQ(hist.total(), static_cast<double>(rows));
}

/// A served engine over one table and a scalar engine over the same
/// table as the oracle, plus every completion the tests capture.
class ScalarOracleRig {
 public:
  ScalarOracleRig(const TablePtr& table, const EngineOptions& served)
      : table_(table) {
    engine_ = std::make_unique<Engine>(served);
    EXPECT_TRUE(engine_->RegisterTable(table).ok());
    EngineOptions scalar_opts;
    scalar_opts.kernel_isa = KernelIsa::kScalar;
    scalar_ = std::make_unique<Engine>(scalar_opts);
    EXPECT_TRUE(scalar_->RegisterTable(table).ok());
  }

  const TablePtr& table() const { return table_; }

  std::unique_ptr<QueryServer> MakeServer(const ServerOptions& opts) {
    auto server = QueryServer::Create(engine_.get(), opts);
    EXPECT_TRUE(server.ok()) << server.status().ToString();
    return std::move(server).ValueOrDie();
  }

  /// Submits `group` with result capture.
  void Submit(QueryServer* server, uint64_t sid, std::vector<Query> group) {
    auto out = server->Submit(sid, group,
                              [this, group](GroupCompletion&& c) {
                                std::lock_guard<std::mutex> lock(mu_);
                                done_.emplace_back(group, std::move(c));
                              });
    ASSERT_TRUE(out.ok());
  }

  /// Every executed group's answers equal the scalar engine's.
  void ExpectScalarAnswers() {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [group, c] : done_) {
      if (c.terminal != GroupTerminal::kExecuted) continue;
      ASSERT_EQ(c.results.size(), group.size());
      for (size_t k = 0; k < group.size(); ++k) {
        auto ref = scalar_->Execute(group[k]);
        ASSERT_TRUE(ref.ok());
        ASSERT_TRUE(c.results[k].has_value());
        EXPECT_EQ(*c.results[k], ref->data) << QueryToString(group[k]);
      }
    }
    done_.clear();
  }

 private:
  TablePtr table_;
  std::unique_ptr<Engine> engine_;
  std::unique_ptr<Engine> scalar_;
  std::mutex mu_;
  std::vector<std::pair<std::vector<Query>, GroupCompletion>> done_;
};

/// The elastic-morsel rig: a 100,000-row table cut into 13 morsels of
/// 8 x 1,024 rows.
class MorselRig : public ScalarOracleRig {
 public:
  static constexpr int64_t kRows = 100000;

  MorselRig() : ScalarOracleRig(MakeServeTable(kRows), Options()) {}

  /// Group `i`: two filtered histograms no other group repeats, so every
  /// query misses the shared cache.
  static std::vector<Query> Group(int i) {
    std::vector<Query> group;
    for (int k = 0; k < 2; ++k) {
      HistogramQuery q = std::get<HistogramQuery>(HistQuery(kRows, 7 + k));
      q.bin_hi += static_cast<double>(i);
      q.predicates = {RangePredicate{"v", 10.0 * i, kRows * 0.9 + k}};
      group.push_back(q);
    }
    return group;
  }

  /// Submits group `i` with result capture.
  void Submit(QueryServer* server, uint64_t sid, int i) {
    ScalarOracleRig::Submit(server, sid, Group(i));
  }

 private:
  static EngineOptions Options() {
    EngineOptions eopts;
    eopts.zone_map_block_rows = 1024;
    return eopts;
  }
};

TEST_F(ServeTest, MorselExecutionServesIdenticalHistograms) {
  // Elastic morsels (docs/kernels.md) with three workers and one
  // session: while one worker runs a group the other two are parked, so
  // they join its posted scans. Both miss paths post: the shared cache's
  // backend and the cacheless worker path.
  MorselRig rig;
  for (bool shared_cache : {false, true}) {
    MetricsRegistry registry;
    ServerOptions opts;
    opts.num_workers = 3;
    opts.enable_shared_cache = shared_cache;
    opts.enable_metrics = true;
    opts.metrics_registry = &registry;
    auto server = rig.MakeServer(opts);
    const uint64_t sid = server->OpenSession();
    // Helpers race the owner for morsels, so keep sending groups until
    // one has claimed some (bounded), instead of sleeping.
    int groups = 0;
    while (groups < 8 || (server->Snapshot(false).morsels_executed == 0 &&
                          groups < 400)) {
      rig.Submit(server.get(), sid, groups++);
      server->Drain();
    }
    auto snap = server->Snapshot();
    server->Stop();
    ExpectReconciles(snap);
    EXPECT_EQ(snap.totals.groups_executed, groups);
    EXPECT_EQ(snap.totals.queries_failed, 0);
    EXPECT_EQ(snap.morsel_queries, 2 * groups);  // Every histogram posted.
    EXPECT_GT(snap.morsels_executed, 0);
    EXPECT_EQ(registry.FindCounter("ideval_morsel_queries_total")->value(),
              snap.morsel_queries);
    EXPECT_EQ(registry.FindCounter("ideval_morsel_morsels_total")->value(),
              snap.morsels_executed);
    rig.ExpectScalarAnswers();
  }
}

TEST_F(ServeTest, MorselScansNeedTwoWorkers) {
  MorselRig rig;
  ServerOptions opts;
  opts.num_workers = 1;
  opts.enable_shared_cache = true;
  auto server = rig.MakeServer(opts);
  const uint64_t sid = server->OpenSession();
  for (int i = 0; i < 4; ++i) {
    rig.Submit(server.get(), sid, i);
    server->Drain();
  }
  auto snap = server->Snapshot();
  server->Stop();
  EXPECT_EQ(snap.totals.queries_executed, 8);
  EXPECT_EQ(snap.morsel_queries, 0);
  EXPECT_EQ(snap.morsels_executed, 0);
  rig.ExpectScalarAnswers();
}

TEST_F(ServeTest, StopReturnsWithMorselScanInFlight) {
  // Three sessions keep every worker busy; Stop lands while scans are
  // posted and helpers are inside them, and must still return, with
  // every group that ran answered exactly.
  MorselRig rig;
  ServerOptions opts;
  opts.num_workers = 3;
  auto server = rig.MakeServer(opts);
  for (int s = 0; s < 3; ++s) {
    const uint64_t sid = server->OpenSession();
    for (int i = 0; i < 4; ++i) rig.Submit(server.get(), sid, 4 * s + i);
  }
  for (int spins = 0; spins < 100000 &&
                      server->Snapshot(false).morsel_queries == 0;
       ++spins) {
    std::this_thread::yield();
  }
  server->Stop();
  rig.ExpectScalarAnswers();
}

/// The incremental-drag rig (docs/serve.md): a crossfilter view over a
/// 20,000-row table of three f64 columns (z in 0.1 steps, so many ties).
class DragRig : public ScalarOracleRig {
 public:
  static constexpr int64_t kRows = 20000;

  DragRig() : ScalarOracleRig(Table(), EngineOptions{}) {}

  /// A drag stream: `runs` runs of `moves` slider events, each run on the
  /// next slider, each event pulling the upper handle in by 1% of the
  /// domain. With `two_sliders`, every group follows one event on its
  /// slider and one on the slider after it, so consecutive groups differ
  /// in two conjuncts.
  std::vector<std::vector<Query>> Stream(int runs, int moves,
                                         bool two_sliders) const {
    auto view = CrossfilterView::Make(table(), {"x", "y", "z"}, 20);
    EXPECT_TRUE(view.ok());
    std::vector<std::vector<Query>> groups;
    std::vector<int> steps(3, 0);
    const auto move = [&](int slider) {
      const RangeSlider& r = view->slider(static_cast<size_t>(slider));
      const double span = r.domain_hi() - r.domain_lo();
      ++steps[static_cast<size_t>(slider)];
      SliderEvent e;
      e.slider_index = slider;
      e.min_val = r.domain_lo() + 0.05 * span;
      e.max_val =
          r.domain_hi() - 0.01 * span * steps[static_cast<size_t>(slider)];
      auto g = view->ApplySliderEvent(e);
      EXPECT_TRUE(g.ok());
      return g->queries;
    };
    for (int run = 0; run < runs; ++run) {
      const int slider = run % 3;
      for (int m = 0; m < moves; ++m) {
        if (two_sliders) move((slider + 1) % 3);
        groups.push_back(move(slider));
      }
    }
    return groups;
  }

 private:
  static TablePtr Table() {
    Schema schema({{"x", DataType::kDouble},
                   {"y", DataType::kDouble},
                   {"z", DataType::kDouble}});
    TableBuilder b("road", schema);
    Rng rng(26);
    for (int64_t i = 0; i < kRows; ++i) {
      b.MustAppendRow({Value(rng.Uniform(0.0, 100.0)),
                       Value(rng.Uniform(-50.0, 50.0)),
                       Value(static_cast<double>(rng.UniformInt(0, 999)) *
                             0.1)});
    }
    return std::move(b).Finish().ValueOrDie();
  }
};

TEST_F(ServeTest, DragAnswersServeExactHistogramsOnBothUnshardedPaths) {
  // One session drags three sliders in turn. The first group of each run
  // (and the first ever) scans; every later one moves the run's slider
  // by 1% and is answered from the group before it, through the shared
  // cache's miss path and through the cacheless path.
  DragRig rig;
  constexpr int kRuns = 4;
  constexpr int kMoves = 6;
  const auto stream = rig.Stream(kRuns, kMoves, /*two_sliders=*/false);
  for (bool shared_cache : {false, true}) {
    SCOPED_TRACE(shared_cache ? "shared cache" : "cacheless");
    MetricsRegistry registry;
    ServerOptions opts;
    opts.num_workers = 2;
    opts.enable_shared_cache = shared_cache;
    opts.enable_metrics = true;
    opts.metrics_registry = &registry;
    auto server = rig.MakeServer(opts);
    const uint64_t sid = server->OpenSession();
    for (const auto& group : stream) {
      rig.Submit(server.get(), sid, group);
      server->Drain();
    }
    auto snap = server->Snapshot();
    server->Stop();
    ExpectReconciles(snap);
    EXPECT_EQ(snap.totals.groups_executed,
              static_cast<int64_t>(stream.size()));
    EXPECT_EQ(snap.totals.queries_failed, 0);
    EXPECT_EQ(snap.drag_groups, kRuns * (kMoves - 1));
    EXPECT_GT(snap.drag_rows_swept, 0);
    EXPECT_LE(snap.drag_rows_swept,
              snap.drag_groups * DragRig::kRows / kDragSweepDivisor);
    const Counter* drag = registry.FindCounter("ideval_drag_groups_total");
    ASSERT_NE(drag, nullptr);
    EXPECT_EQ(drag->value(), snap.drag_groups);
    rig.ExpectScalarAnswers();
  }
}

TEST_F(ServeTest, DragAnswersNeedOneMovedSliderAndOneEngine) {
  DragRig rig;
  // Consecutive groups that move two sliders are never drag answers.
  const auto two = rig.Stream(2, 6, /*two_sliders=*/true);
  for (bool shared_cache : {false, true}) {
    ServerOptions opts;
    opts.enable_shared_cache = shared_cache;
    auto server = rig.MakeServer(opts);
    const uint64_t sid = server->OpenSession();
    for (const auto& group : two) {
      rig.Submit(server.get(), sid, group);
      server->Drain();
    }
    auto snap = server->Snapshot();
    server->Stop();
    EXPECT_EQ(snap.totals.queries_failed, 0);
    EXPECT_EQ(snap.drag_groups, 0);
    rig.ExpectScalarAnswers();
  }
  // Nor are a sharded server's, on the drag stream itself.
  ShardedEngineOptions shopts;
  shopts.num_shards = 2;
  auto sharded = ShardedEngine::Create(shopts).ValueOrDie();
  ASSERT_TRUE(sharded->PartitionTable(rig.table()).ok());
  ServerOptions opts;
  opts.enable_shared_cache = true;
  auto made = QueryServer::Create(sharded.get(), opts);
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  auto server = std::move(made).ValueOrDie();
  const uint64_t sid = server->OpenSession();
  for (const auto& group : rig.Stream(2, 6, /*two_sliders=*/false)) {
    rig.Submit(server.get(), sid, group);
    server->Drain();
  }
  auto snap = server->Snapshot();
  server->Stop();
  EXPECT_EQ(snap.totals.queries_failed, 0);
  EXPECT_EQ(snap.drag_groups, 0);
  rig.ExpectScalarAnswers();
}

TEST_F(ServeTest, SharedCacheStressReconciles) {
  MakeEngine(20000);
  ServerOptions opts;
  opts.num_workers = 4;
  opts.max_queue_per_session = 64;
  opts.enable_shared_cache = true;
  auto server = MakeServer(opts);

  // Many sessions hammer a small pool of distinct queries so hits,
  // misses, and single-flight coalescing all occur concurrently.
  constexpr int kClients = 8;
  constexpr int kGroupsPerClient = 30;
  std::vector<uint64_t> sids(kClients);
  for (auto& sid : sids) sid = server->OpenSession();
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kGroupsPerClient; ++i) {
        auto out = server->Submit(sids[static_cast<size_t>(c)],
                                  Group(10 + (i % 3)));
        ASSERT_TRUE(out.ok());
      }
    });
  }
  for (auto& t : clients) t.join();
  server->Drain();

  auto snap = server->Snapshot();
  ExpectReconciles(snap);
  EXPECT_EQ(snap.totals.queries_failed, 0);
  // Every executed query went through the cache and landed in exactly
  // one outcome bucket: hits + misses + coalesced == lookups == queries.
  EXPECT_EQ(snap.result_cache.Lookups(),
            snap.result_cache.hits + snap.result_cache.misses +
                snap.result_cache.coalesced);
  EXPECT_EQ(snap.result_cache.Lookups(), snap.totals.queries_executed);
  // Only three distinct canonical keys exist and nothing invalidates or
  // evicts, so single-flight guarantees exactly one backend execution
  // (miss) per key; every other lookup hit or coalesced.
  EXPECT_EQ(snap.result_cache.misses, 3);
  EXPECT_EQ(snap.result_cache.entries, 3);
  // The single-flight leader path, asserted directly: exactly one caller
  // per key installed a flight and ran the backend. Coalesced waiters
  // rode a leader's flight without ever bumping this.
  EXPECT_EQ(snap.result_cache.leader_executions, 3);
  EXPECT_EQ(snap.result_cache.leader_executions, snap.result_cache.misses);
  EXPECT_EQ(snap.totals.cache_hits,
            snap.result_cache.hits + snap.result_cache.coalesced);
  EXPECT_EQ(snap.result_cache.invalidations, 0);
  EXPECT_EQ(snap.result_cache.evictions, 0);
}

TEST_F(ServeTest, TracingRecordsFullPipelineOverShardedCache) {
  // The tentpole, end to end: shards + shared cache + tracing puts every
  // span kind on one timeline. Two sessions submit the same query, so the
  // second lookup hits; the miss trace carries the scatter/shard/merge
  // spans nested under the cache's execute span.
  const int64_t rows = 5000;
  ShardedEngineOptions shopts;
  shopts.num_shards = 2;
  auto sharded = ShardedEngine::Create(shopts).ValueOrDie();
  ASSERT_TRUE(sharded->PartitionTable(MakeServeTable(rows)).ok());

  ServerOptions opts;
  opts.num_workers = 2;
  opts.enable_shared_cache = true;
  opts.enable_tracing = true;
  auto made = QueryServer::Create(sharded.get(), opts);
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  auto server = std::move(made).ValueOrDie();

  const uint64_t a = server->OpenSession();
  const uint64_t b = server->OpenSession();
  ASSERT_TRUE(server->Submit(a, {HistQuery(rows)}).ok());
  server->Drain();
  ASSERT_TRUE(server->Submit(b, {HistQuery(rows)}).ok());
  server->Drain();

  ASSERT_NE(server->trace_buffer(), nullptr);
  const std::vector<SpanRecord> spans = server->trace_buffer()->Snapshot();
  server->Stop();

  // Group the spans by trace; both groups produced a complete trace.
  std::map<uint64_t, std::vector<SpanRecord>> traces;
  for (const SpanRecord& s : spans) {
    ASSERT_GT(s.trace_id, 0u);
    ASSERT_GT(s.span_id, 0u);
    EXPECT_GE(s.end_us, s.start_us);
    traces[s.trace_id].push_back(s);
  }
  ASSERT_EQ(traces.size(), 2u);

  int miss_traces = 0;
  int hit_traces = 0;
  for (const auto& [trace_id, trace] : traces) {
    std::multiset<SpanKind> kinds;
    std::set<uint64_t> ids;
    uint64_t root = 0;
    uint64_t session = 0;
    for (const SpanRecord& s : trace) {
      kinds.insert(s.kind);
      ids.insert(s.span_id);
      if (s.kind == SpanKind::kGroup) root = s.span_id;
      if (session == 0) session = s.session_id;
      // One trace belongs to one session.
      EXPECT_EQ(s.session_id, session);
    }
    ASSERT_EQ(ids.size(), trace.size());  // Span ids are unique.
    // The pipeline stages every admitted group passes through.
    EXPECT_EQ(kinds.count(SpanKind::kGroup), 1u);
    EXPECT_EQ(kinds.count(SpanKind::kAdmission), 1u);
    EXPECT_EQ(kinds.count(SpanKind::kQueueWait), 1u);
    EXPECT_EQ(kinds.count(SpanKind::kCacheLookup), 1u);
    // Every parent resolves to another span of the same trace (roots
    // have parent 0).
    for (const SpanRecord& s : trace) {
      if (s.parent_span_id != 0) {
        EXPECT_TRUE(ids.count(s.parent_span_id))
            << "dangling parent in trace " << trace_id;
      } else {
        EXPECT_EQ(s.kind, SpanKind::kGroup);
      }
    }
    ASSERT_NE(root, 0u);
    const SpanRecord* lookup = nullptr;
    for (const SpanRecord& s : trace) {
      if (s.kind == SpanKind::kCacheLookup) lookup = &s;
    }
    ASSERT_NE(lookup, nullptr);
    if (lookup->detail == 2) {  // Miss: the backend ran, sharded.
      ++miss_traces;
      EXPECT_EQ(kinds.count(SpanKind::kExecute), 1u);
      EXPECT_EQ(kinds.count(SpanKind::kScatter), 1u);
      EXPECT_EQ(kinds.count(SpanKind::kShardExec), 2u);  // One per shard.
      EXPECT_EQ(kinds.count(SpanKind::kMerge), 1u);
    } else if (lookup->detail == 1) {  // Hit: no backend spans at all.
      ++hit_traces;
      EXPECT_EQ(kinds.count(SpanKind::kExecute), 0u);
      EXPECT_EQ(kinds.count(SpanKind::kShardExec), 0u);
    }
  }
  EXPECT_EQ(miss_traces, 1);
  EXPECT_EQ(hit_traces, 1);
}

TEST_F(ServeTest, TracingClosesShedRootSpans) {
  // A throttled submission never reaches a worker; its root span must
  // still close, with the shed terminal in its detail.
  MakeEngine(1000);
  ServerOptions opts;
  opts.policy = AdmissionPolicy::kThrottle;
  opts.throttle_min_interval = Duration::Seconds(30);
  opts.enable_tracing = true;
  auto server = MakeServer(opts);
  const uint64_t sid = server->OpenSession();
  auto first = server->Submit(sid, Group());
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->disposition, SubmitDisposition::kEnqueued);
  auto second = server->Submit(sid, Group());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->disposition, SubmitDisposition::kThrottled);
  server->Drain();

  int shed_roots = 0;
  for (const SpanRecord& s : server->trace_buffer()->Snapshot()) {
    if (s.kind != SpanKind::kGroup) continue;
    if ((s.detail & 0xff) ==
        static_cast<uint32_t>(GroupTerminal::kShedThrottled)) {
      ++shed_roots;
    }
  }
  EXPECT_EQ(shed_roots, 1);
  auto snap = server->Snapshot();
  EXPECT_TRUE(snap.tracing_enabled);
  EXPECT_GT(snap.trace_buffer.recorded, 0);
  ExpectReconciles(snap);
}

TEST_F(ServeTest, SlowQueryLogCapturesSlowGroups) {
  MakeEngine(1000);
  ServerOptions opts;
  opts.slow_query_ms = 0.0;  // Log everything.
  auto server = MakeServer(opts);
  const uint64_t sid = server->OpenSession();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(server->Submit(sid, Group()).ok());
    server->Drain();
  }
  ASSERT_NE(server->slow_query_log(), nullptr);
  EXPECT_EQ(server->slow_query_log()->logged(), 3);
  const auto entries = server->slow_query_log()->Snapshot();
  ASSERT_EQ(entries.size(), 3u);
  for (const auto& e : entries) {
    EXPECT_EQ(e.session_id, sid);
    EXPECT_EQ(e.queries_ok, 1);
    EXPECT_GT(e.latency_ms, 0.0);
    EXPECT_NEAR(e.latency_ms, e.queue_ms + e.service_ms, 0.05);
    // Tracing is off: records still land, just without a trace id.
    EXPECT_EQ(e.trace_id, 0u);
  }
  auto snap = server->Snapshot();
  EXPECT_TRUE(snap.slow_log_enabled);
  EXPECT_EQ(snap.slow_queries_logged, 3);
  // The gauges render.
  EXPECT_NE(snap.ToText().find("slow queries logged"), std::string::npos);
  EXPECT_NE(snap.ToText().find("queue depth (now / high-water)"),
            std::string::npos);

  // Negative threshold = no log at all (the default).
  auto plain = MakeServer(ServerOptions{});
  EXPECT_EQ(plain->slow_query_log(), nullptr);
  EXPECT_EQ(plain->trace_buffer(), nullptr);
}

TEST_F(ServeTest, IssueBeforeCompleteCountsAsLcvViolation) {
  // Service time must far exceed the burst duration even if the OS
  // deschedules the submitting thread for a few quanta mid-burst (a
  // real hazard on a 1-core host, where the worker runs by preemption):
  // ~20 ms per query vs a microseconds-scale submit loop.
  MakeEngine(2000000);
  ServerOptions opts;
  opts.num_workers = 1;
  opts.max_queue_per_session = 16;
  auto server = MakeServer(opts);
  const uint64_t sid = server->OpenSession();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(server->Submit(sid, Group()).ok());
  }
  server->Drain();
  auto snap = server->Snapshot();
  ASSERT_EQ(snap.totals.groups_executed, 5);
  // Groups 0-3 completed after their successor was issued; group 4 has
  // no successor (§7.2: completion before next interaction is fine).
  EXPECT_EQ(snap.totals.lcv_violations, 4);
  EXPECT_DOUBLE_EQ(snap.lcv_fraction, 4.0 / 5.0);
}

TEST_F(ServeTest, AdaptiveAdmissionShedsUnderOverload) {
  MakeEngine(400000);
  ServerOptions opts;
  opts.num_workers = 1;
  opts.max_queue_per_session = 4;
  opts.policy = AdmissionPolicy::kFifo;
  opts.adaptive_admission = true;
  opts.admission.reject_factor = 1e12;  // Shed, never hard-reject here.
  auto server = MakeServer(opts);
  const uint64_t sid = server->OpenSession();
  bool saw_overload = false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    auto out = server->Submit(sid, Group());
    ASSERT_TRUE(out.ok());
    if (out->load.state == LoadState::kOverloaded) {
      saw_overload = true;
      break;
    }
  }
  EXPECT_TRUE(saw_overload);
  auto snap = server->Snapshot();
  // The control loop flipped the effective policy to shedding.
  EXPECT_EQ(snap.effective_policy, AdmissionPolicy::kSkipStale);
  EXPECT_EQ(snap.configured_policy, AdmissionPolicy::kFifo);
  server->Drain();
  ExpectReconciles(server->Snapshot());
}

TEST_F(ServeTest, ManyClientsStressReconciles) {
  MakeEngine(50000);
  ServerOptions opts;
  opts.num_workers = 4;
  opts.max_queue_per_session = 2;
  opts.policy = AdmissionPolicy::kSkipStale;
  auto server = MakeServer(opts);

  constexpr int kClients = 8;
  constexpr int kGroupsPerClient = 40;
  std::vector<uint64_t> sids(kClients);
  for (auto& sid : sids) sid = server->OpenSession();

  std::atomic<int64_t> submitted{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kGroupsPerClient; ++i) {
        // Two-query coordinated groups, no think time: worst case load.
        auto out = server->Submit(sids[static_cast<size_t>(c)],
                                  {HistQuery(rows_), HistQuery(rows_, 10)});
        ASSERT_TRUE(out.ok());
        submitted.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : clients) t.join();
  server->Drain();

  auto snap = server->Snapshot();
  EXPECT_EQ(submitted.load(), kClients * kGroupsPerClient);
  EXPECT_EQ(snap.totals.groups_submitted, kClients * kGroupsPerClient);
  EXPECT_EQ(snap.groups_queued, 0);
  EXPECT_EQ(static_cast<int>(snap.sessions.size()), kClients);
  EXPECT_EQ(snap.totals.queries_failed, 0);
  // Each executed group ran both of its queries.
  EXPECT_EQ(snap.totals.queries_executed,
            2 * snap.totals.groups_executed);
  ExpectReconciles(snap);
}

TEST_F(ServeTest, DrainThenStopIsClean) {
  MakeEngine(10000);
  auto server = MakeServer(ServerOptions{});
  const uint64_t sid = server->OpenSession();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(server->Submit(sid, Group()).ok());
  }
  server->Drain();
  server->Stop();
  server->Stop();  // Idempotent.
  auto snap = server->Snapshot();
  EXPECT_EQ(snap.totals.groups_executed, 3);
}

TEST(AdmissionControllerTest, ClassifiesQuadrants) {
  AdmissionOptions aopts;
  aopts.window = Duration::Seconds(1.0);
  AdmissionController ctl(2, aopts);

  // Nothing happened yet.
  EXPECT_EQ(ctl.Assess(SimTime::Origin()).state, LoadState::kIdle);

  // Submissions but no completions: assume the backend keeps up.
  SimTime t = SimTime::FromMillis(100);
  ctl.OnSubmit(t);
  EXPECT_EQ(ctl.Assess(t).state, LoadState::kUnderloaded);

  // 100 ms mean service over 2 workers => capacity ~20 groups/s.
  ctl.OnComplete(t, Duration::Millis(100));
  EXPECT_NEAR(ctl.MeanServiceTime().seconds(), 0.1, 1e-9);

  // 5 submissions in the window: offered 5/s << 20/s.
  for (int i = 0; i < 4; ++i) ctl.OnSubmit(t);
  auto a = ctl.Assess(t);
  EXPECT_EQ(a.state, LoadState::kUnderloaded);
  EXPECT_NEAR(a.capacity_qps, 20.0, 1e-6);

  // Flood the window: offered far above capacity.
  for (int i = 0; i < 200; ++i) ctl.OnSubmit(t);
  a = ctl.Assess(t);
  EXPECT_EQ(a.state, LoadState::kOverloaded);
  EXPECT_TRUE(a.reject);  // 205/20 > default reject_factor 8.

  // The window slides: a quiet second later the flood is forgotten.
  EXPECT_EQ(ctl.Assess(t + Duration::Seconds(2.0)).state, LoadState::kIdle);
}

// ------------------------- Sharded serving -------------------------

TEST(ShardedServeTest, CreateValidatesShardedOptions) {
  ShardedEngineOptions shopts;
  shopts.num_shards = 2;
  auto sharded = ShardedEngine::Create(shopts).ValueOrDie();
  ASSERT_TRUE(sharded->PartitionTable(MakeServeTable(100)).ok());

  EXPECT_EQ(QueryServer::Create(static_cast<const ShardedEngine*>(nullptr),
                                ServerOptions{})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  ServerOptions opts;
  opts.shard_workers = -1;
  EXPECT_EQ(QueryServer::Create(sharded.get(), opts).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ShardedServeTest, ScatterMergePipelineExecutesAndReconciles) {
  const int64_t rows = 5000;
  ShardedEngineOptions shopts;
  shopts.num_shards = 3;
  auto sharded = ShardedEngine::Create(shopts).ValueOrDie();
  ASSERT_TRUE(sharded->PartitionTable(MakeServeTable(rows)).ok());

  ServerOptions opts;
  opts.num_workers = 2;
  opts.max_queue_per_session = 64;
  auto made = QueryServer::Create(sharded.get(), opts);
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  auto server = std::move(made).ValueOrDie();

  const uint64_t sid = server->OpenSession();
  for (int i = 0; i < 20; ++i) {
    auto out = server->Submit(sid, {HistQuery(rows)});
    ASSERT_TRUE(out.ok());
  }
  server->Drain();
  auto snap = server->Snapshot();
  server->Stop();

  ExpectReconciles(snap);
  EXPECT_EQ(snap.num_shards, 3);
  EXPECT_EQ(snap.shard_workers, 3);  // Default: one per shard.
  EXPECT_GT(snap.totals.queries_executed, 0);
  EXPECT_EQ(snap.totals.queries_failed, 0);
  // Phase attribution: the three phases sum to (about) the service time,
  // and execution dominates for a scan-heavy workload.
  EXPECT_GT(snap.execute_mean_ms, 0.0);
  EXPECT_LE(snap.scatter_mean_ms + snap.execute_mean_ms +
                snap.merge_mean_ms,
            snap.service_mean_ms * 1.5 + 1.0);
}

TEST(ShardedServeTest, ShardWorkersOptionSizesThePool) {
  ShardedEngineOptions shopts;
  shopts.num_shards = 2;
  auto sharded = ShardedEngine::Create(shopts).ValueOrDie();
  ASSERT_TRUE(sharded->PartitionTable(MakeServeTable(200)).ok());
  ServerOptions opts;
  opts.num_workers = 1;
  opts.shard_workers = 5;
  auto server = QueryServer::Create(sharded.get(), opts).ValueOrDie();
  auto snap = server->Snapshot();
  EXPECT_EQ(snap.num_shards, 2);
  EXPECT_EQ(snap.shard_workers, 5);
  server->Stop();
}

TEST(AdmissionControllerTest, ShardAwareCapacityScalesWithShardPool) {
  AdmissionOptions aopts;
  aopts.window = Duration::Seconds(1.0);

  // 2 group workers over a 4-shard backend with 4 shard workers.
  AdmissionController ctl(2, 4, 4, aopts);
  SimTime t = SimTime::FromMillis(100);
  ctl.OnSubmit(t);
  // Group service 100 ms; partials 25 ms each; merge 1 ms.
  ctl.OnCompleteSharded(t, Duration::Millis(100), Duration::Millis(25),
                        Duration::Millis(1));
  auto a = ctl.Assess(t);
  // Group-worker bound 2/0.1 = 20 g/s binds; the shard pool sustains
  // 4 workers / (4 shards x 25 ms) = 40 g/s ("K x per-shard rate"); the
  // merge stage 2/0.001 = 2000 g/s is far from saturated.
  EXPECT_NEAR(a.capacity_qps, 20.0, 1e-6);
  EXPECT_NEAR(a.shard_exec_capacity_qps, 40.0, 1e-6);
  EXPECT_NEAR(a.merge_capacity_qps, 2000.0, 1e-6);

  // Undersized shard pool: 2 shard workers for 4 x 100 ms partials can
  // only sustain 5 g/s, so the pool (not the group workers) binds and
  // the same offered load now classifies as overloaded.
  AdmissionController slow(8, 4, 2, aopts);
  for (int i = 0; i < 10; ++i) slow.OnSubmit(t);
  slow.OnCompleteSharded(t, Duration::Millis(100), Duration::Millis(100),
                         Duration::Millis(1));
  a = slow.Assess(t);
  EXPECT_NEAR(a.shard_exec_capacity_qps, 5.0, 1e-6);
  EXPECT_NEAR(a.capacity_qps, 5.0, 1e-6);  // min(80, 5).
  EXPECT_EQ(a.state, LoadState::kOverloaded);

  // Same load with a doubled shard pool: capacity doubles and the
  // adaptive threshold moves with it (saturated, not overloaded).
  AdmissionController fast(8, 4, 4, aopts);
  for (int i = 0; i < 10; ++i) fast.OnSubmit(t);
  fast.OnCompleteSharded(t, Duration::Millis(100), Duration::Millis(100),
                         Duration::Millis(1));
  a = fast.Assess(t);
  EXPECT_NEAR(a.capacity_qps, 10.0, 1e-6);
  EXPECT_EQ(a.state, LoadState::kSaturated);
}

TEST(LoadDriverTest, ReplaysConcurrentClients) {
  auto engine = std::make_unique<Engine>(EngineOptions{});
  ASSERT_TRUE(engine->RegisterTable(MakeServeTable(1000)).ok());
  ServerOptions opts;
  opts.num_workers = 2;
  opts.max_queue_per_session = 64;
  auto server = QueryServer::Create(engine.get(), opts);
  ASSERT_TRUE(server.ok());

  // Two clients, 10 groups each, 20 ms apart in trace time.
  std::vector<std::vector<QueryGroup>> clients(2);
  for (auto& groups : clients) {
    for (int i = 0; i < 10; ++i) {
      QueryGroup g;
      g.issue_time = SimTime::FromMillis(20.0 * i);
      g.queries.push_back(HistQuery(1000));
      groups.push_back(std::move(g));
    }
  }
  LoadDriverOptions lopts;
  lopts.time_compression = 20.0;  // 20 ms spacing -> 1 ms wall.
  auto report = RunLoadDriver(server->get(), clients, lopts);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->clients.size(), 2u);
  for (const auto& c : report->clients) {
    EXPECT_EQ(c.submitted, 10);
    EXPECT_EQ(c.enqueued, 10);  // Queue deep enough: nothing rejected.
  }
  EXPECT_EQ(report->snapshot.totals.groups_submitted, 20);
  EXPECT_EQ(report->snapshot.totals.groups_executed, 20);
  EXPECT_GT(report->wall_seconds, 0.0);

  // The CO-safe battery covers every executed group, and intended-start
  // latency can never be below send-start for the same samples.
  EXPECT_EQ(report->co.samples, 20);
  EXPECT_GE(report->co.intended_p50_ms, report->co.send_p50_ms);
  EXPECT_GE(report->co.intended_p99_ms, report->co.send_p99_ms);
  EXPECT_GE(report->co.intended_max_ms, report->co.send_max_ms);
}

TEST(CoLatencyTest, SummaryReportsBothViewsAndTheirGap) {
  // 99 on-schedule fast responses plus one submission that went out a
  // full second late (its client was stalled). Send-start latencies look
  // uniformly healthy; intended-start must surface the stall at the
  // tail.
  std::vector<double> send_ms(100, 10.0);
  std::vector<double> lag_ms(100, 0.0);
  lag_ms[57] = 1000.0;
  const CoLatencySummary co = SummarizeCoLatency(send_ms, lag_ms);
  EXPECT_EQ(co.samples, 100);
  EXPECT_DOUBLE_EQ(co.send_p50_ms, 10.0);
  EXPECT_DOUBLE_EQ(co.send_p99_ms, 10.0);
  EXPECT_DOUBLE_EQ(co.send_max_ms, 10.0);
  EXPECT_DOUBLE_EQ(co.intended_p50_ms, 10.0);
  EXPECT_DOUBLE_EQ(co.intended_p99_ms, 1010.0);
  EXPECT_DOUBLE_EQ(co.intended_max_ms, 1010.0);
  EXPECT_DOUBLE_EQ(co.lag_max_ms, 1000.0);
  EXPECT_NEAR(co.lag_mean_ms, 10.0, 1e-9);

  // Empty input folds to all-zero, not a crash.
  const CoLatencySummary empty = SummarizeCoLatency({}, {});
  EXPECT_EQ(empty.samples, 0);
  EXPECT_DOUBLE_EQ(empty.intended_p99_ms, 0.0);
}

TEST(CoLatencyTest, StalledServerCannotHideFromIntendedStartLatency) {
  // The coordinated-omission scenario itself: a closed-loop client whose
  // submit call blocks (a stalled server back-pressuring the socket)
  // falls ever further behind its schedule. The lag the replay loop
  // delivers must accumulate, and folding it in must blow the intended-
  // start tail far past the send-start tail even though each individual
  // response looks fast.
  constexpr int kGroups = 6;
  constexpr double kStallMs = 20.0;
  std::vector<std::vector<QueryGroup>> clients(1);
  for (int i = 0; i < kGroups; ++i) {
    QueryGroup g;
    g.issue_time = SimTime::FromMillis(5.0 * i);  // Intends 5 ms spacing.
    g.queries.push_back(HistQuery(10));
    clients[0].push_back(std::move(g));
  }
  std::vector<double> lag_ms;
  const Status replayed = ReplayClients(
      clients, /*time_compression=*/1.0,
      [&lag_ms](size_t, const QueryGroup&, Duration lag) {
        lag_ms.push_back(lag.millis());
        // The "server": every submission stalls the client well past the
        // next intended issue time.
        std::this_thread::sleep_for(std::chrono::milliseconds(
            static_cast<int>(kStallMs)));
      });
  ASSERT_TRUE(replayed.ok()) << replayed.ToString();
  ASSERT_EQ(lag_ms.size(), static_cast<size_t>(kGroups));
  // First submission is on schedule; after it every stall (~20 ms against
  // a 5 ms cadence) compounds, so the lag must grow monotonically and by
  // the last group exceed the single-stall size several times over.
  EXPECT_LT(lag_ms[0], 5.0);
  for (int i = 1; i < kGroups; ++i) EXPECT_GE(lag_ms[i], lag_ms[i - 1]);
  EXPECT_GT(lag_ms.back(), 3 * kStallMs);

  // Each response was "fast" (2 ms send-start); the CO-safe summary must
  // still report a tail dominated by the accumulated schedule lag.
  const std::vector<double> send_ms(lag_ms.size(), 2.0);
  const CoLatencySummary co = SummarizeCoLatency(send_ms, lag_ms);
  EXPECT_DOUBLE_EQ(co.send_p99_ms, 2.0);
  EXPECT_GT(co.intended_p99_ms, 10.0 * co.send_p99_ms);
  EXPECT_GT(co.lag_max_ms, 3 * kStallMs);
}

TEST(LoadDriverTest, ValidatesInput) {
  auto engine = std::make_unique<Engine>(EngineOptions{});
  ASSERT_TRUE(engine->RegisterTable(MakeServeTable(10)).ok());
  auto server = QueryServer::Create(engine.get(), ServerOptions{});
  ASSERT_TRUE(server.ok());
  EXPECT_EQ(RunLoadDriver(nullptr, {}, LoadDriverOptions{}).status().code(),
            StatusCode::kInvalidArgument);
  LoadDriverOptions bad;
  bad.time_compression = 0.0;
  EXPECT_EQ(RunLoadDriver(server->get(), {}, bad).status().code(),
            StatusCode::kInvalidArgument);
  std::vector<std::vector<QueryGroup>> unsorted(1);
  QueryGroup g1;
  g1.issue_time = SimTime::FromMillis(10);
  g1.queries.push_back(HistQuery(10));
  QueryGroup g0 = g1;
  g0.issue_time = SimTime::FromMillis(5);
  unsorted[0] = {g1, g0};
  EXPECT_EQ(
      RunLoadDriver(server->get(), unsorted, LoadDriverOptions{})
          .status()
          .code(),
      StatusCode::kInvalidArgument);
}

TEST_F(ServeTest, CompletionCallbackDeliversResultsExactlyOnce) {
  MakeEngine(1000);
  ServerOptions opts;
  opts.num_workers = 1;
  auto server = MakeServer(opts);
  const uint64_t sid = server->OpenSession();
  std::mutex mu;
  std::vector<GroupCompletion> done;
  for (int i = 0; i < 3; ++i) {
    auto out = server->Submit(sid, Group(), [&](GroupCompletion&& c) {
      std::lock_guard<std::mutex> lock(mu);
      done.push_back(std::move(c));
    });
    ASSERT_TRUE(out.ok());
  }
  server->Drain();
  {
    std::lock_guard<std::mutex> lock(mu);
    ASSERT_EQ(done.size(), 3u);
    std::set<uint64_t> seqs;
    for (const auto& c : done) {
      EXPECT_EQ(c.session_id, sid);
      EXPECT_EQ(c.terminal, GroupTerminal::kExecuted);
      EXPECT_EQ(c.queries_executed, 1);
      EXPECT_EQ(c.queries_failed, 0);
      // Capture is keyed off the callback: the executed group carries
      // its real result payload.
      ASSERT_EQ(c.results.size(), 1u);
      ASSERT_TRUE(c.results[0].has_value());
      EXPECT_EQ(std::get<FixedHistogram>(*c.results[0]).total(), 1000.0);
      EXPECT_GE(c.latency.micros(), c.service.micros());
      seqs.insert(c.seq);
    }
    EXPECT_EQ(seqs.size(), 3u);  // Exactly once per admitted group.
  }
  server->Stop();
}

TEST_F(ServeTest, CompletionCallbackFiresOnShedGroups) {
  // A slow table, one worker, a shallow queue, and a burst under
  // skip-stale: every *admitted* group must produce exactly one terminal
  // callback — executed or shed — and shed completions carry no results.
  MakeEngine(400000);
  ServerOptions opts;
  opts.num_workers = 1;
  opts.max_queue_per_session = 4;
  opts.policy = AdmissionPolicy::kSkipStale;
  auto server = MakeServer(opts);
  const uint64_t sid = server->OpenSession();
  std::mutex mu;
  std::vector<GroupCompletion> done;
  int64_t admitted = 0;
  for (int i = 0; i < 12; ++i) {
    auto out = server->Submit(sid, Group(), [&](GroupCompletion&& c) {
      std::lock_guard<std::mutex> lock(mu);
      done.push_back(std::move(c));
    });
    ASSERT_TRUE(out.ok());
    if (out->disposition == SubmitDisposition::kEnqueued ||
        out->disposition == SubmitDisposition::kCoalesced) {
      ++admitted;
    }
  }
  server->Drain();
  std::set<uint64_t> seqs;
  int64_t executed = 0;
  int64_t shed = 0;
  {
    // Shed callbacks fire inline under the server lock, so never hold
    // the capture mutex across a server call (Snapshot below) — that
    // inverts the lock order.
    std::lock_guard<std::mutex> lock(mu);
    ASSERT_EQ(static_cast<int64_t>(done.size()), admitted);
    for (const auto& c : done) {
      seqs.insert(c.seq);
      if (c.terminal == GroupTerminal::kExecuted) {
        ++executed;
        EXPECT_EQ(c.results.size(), 1u);
      } else {
        EXPECT_EQ(c.terminal, GroupTerminal::kShedStale);
        ++shed;
        EXPECT_TRUE(c.results.empty());
        EXPECT_EQ(c.service.micros(), 0);
      }
    }
    EXPECT_EQ(seqs.size(), done.size());
  }
  EXPECT_GT(executed, 0);  // The newest of each burst survives.
  const ServerStatsSnapshot snap = server->Snapshot();
  EXPECT_EQ(snap.totals.groups_executed, executed);
  EXPECT_EQ(snap.totals.groups_shed_stale, shed);
  server->Stop();
}

TEST_F(ServeTest, DoorVerdictsProduceNoCompletion) {
  MakeEngine(100);
  ServerOptions opts;
  opts.num_workers = 1;
  opts.policy = AdmissionPolicy::kThrottle;
  opts.throttle_min_interval = Duration::Seconds(3600.0);
  auto server = MakeServer(opts);
  const uint64_t sid = server->OpenSession();
  std::mutex mu;
  int callbacks = 0;
  auto on_complete = [&](GroupCompletion&&) {
    std::lock_guard<std::mutex> lock(mu);
    ++callbacks;
  };
  auto first = server->Submit(sid, Group(), on_complete);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->disposition, SubmitDisposition::kEnqueued);
  auto second = server->Submit(sid, Group(), on_complete);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->disposition, SubmitDisposition::kThrottled);
  server->Drain();
  server->Stop();
  // The throttled group was refused at the door (the verdict came back
  // synchronously); only the admitted group reaches a terminal state.
  std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(callbacks, 1);
}

TEST_F(ServeTest, MetricsOptionsValidate) {
  MakeEngine(100);
  ServerOptions opts;
  opts.stats_poll_ms = 5.0;
  opts.stats_ring_samples = 0;
  EXPECT_EQ(QueryServer::Create(engine_.get(), opts).status().code(),
            StatusCode::kInvalidArgument);
  // With the poller disabled the ring size is irrelevant.
  opts.stats_poll_ms = 0.0;
  EXPECT_TRUE(QueryServer::Create(engine_.get(), opts).ok());
}

TEST_F(ServeTest, MetricsOffByDefaultAndAccessorsNull) {
  MakeEngine(100);
  auto server = MakeServer(ServerOptions{});
  EXPECT_EQ(server->metrics_registry(), nullptr);
  EXPECT_EQ(server->timeseries(), nullptr);
}

TEST_F(ServeTest, RegistryCountersReconcileWithSnapshot) {
  // The acceptance invariant: after a drain, the scrapeable counters and
  // the snapshot describe the same run — exactly, not approximately.
  // Skip-stale on a slow table plus a cache plus a burst exercises
  // executed, shed, cache-hit, and histogram paths at once.
  MakeEngine(400000);
  MetricsRegistry registry;  // Dedicated: no cross-test aggregation.
  ServerOptions opts;
  opts.num_workers = 1;
  opts.max_queue_per_session = 4;
  opts.policy = AdmissionPolicy::kSkipStale;
  opts.enable_shared_cache = true;
  opts.enable_metrics = true;
  opts.metrics_registry = &registry;
  auto server = MakeServer(opts);
  EXPECT_EQ(server->metrics_registry(), &registry);
  const uint64_t sid = server->OpenSession();
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(server->Submit(sid, Group()).ok());
  }
  server->Drain();
  const auto snap = server->Snapshot();
  ExpectReconciles(snap);

  const auto counter = [&registry](const char* name) {
    Counter* c = registry.FindCounter(name);
    EXPECT_NE(c, nullptr) << name;
    return c != nullptr ? c->value() : -1;
  };
  EXPECT_EQ(counter("ideval_serve_groups_submitted_total"),
            snap.totals.groups_submitted);
  EXPECT_EQ(counter("ideval_serve_groups_admitted_total"),
            snap.totals.groups_admitted);
  EXPECT_EQ(counter("ideval_serve_groups_executed_total"),
            snap.totals.groups_executed);
  EXPECT_EQ(counter("ideval_serve_groups_shed_stale_total"),
            snap.totals.groups_shed_stale);
  EXPECT_EQ(counter("ideval_serve_groups_shed_coalesced_total"),
            snap.totals.groups_shed_coalesced);
  EXPECT_EQ(counter("ideval_serve_groups_shed_throttled_total"),
            snap.totals.groups_shed_throttled);
  EXPECT_EQ(counter("ideval_serve_groups_rejected_total"),
            snap.totals.groups_rejected);
  EXPECT_EQ(counter("ideval_serve_queries_executed_total"),
            snap.totals.queries_executed);
  EXPECT_EQ(counter("ideval_serve_queries_failed_total"),
            snap.totals.queries_failed);
  EXPECT_EQ(counter("ideval_serve_cache_hits_total"),
            snap.totals.cache_hits);
  EXPECT_EQ(counter("ideval_serve_lcv_violations_total"),
            snap.totals.lcv_violations);

  // One latency and one service observation per executed group.
  Histogram* latency = registry.FindHistogram("ideval_serve_group_latency_ms");
  Histogram* service = registry.FindHistogram("ideval_serve_group_service_ms");
  ASSERT_NE(latency, nullptr);
  ASSERT_NE(service, nullptr);
  EXPECT_EQ(latency->count(), snap.totals.groups_executed);
  EXPECT_EQ(service->count(), snap.totals.groups_executed);

  // Snapshot() refreshed the gauges on its way out.
  Gauge* sessions = registry.FindGauge("ideval_serve_sessions_open");
  ASSERT_NE(sessions, nullptr);
  EXPECT_DOUBLE_EQ(sessions->value(), 1.0);
  Gauge* hit_rate = registry.FindGauge("ideval_serve_cache_hit_rate");
  ASSERT_NE(hit_rate, nullptr);
  EXPECT_GE(hit_rate->value(), 0.0);  // Shared cache on: a real rate.

  // And the whole family appears in both exposition formats.
  const std::string text = registry.ExpositionText();
  EXPECT_NE(text.find("# TYPE ideval_serve_groups_submitted_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("ideval_serve_group_latency_ms_bucket{le=\"+Inf\"}"),
            std::string::npos);
  EXPECT_NE(registry.ExpositionJson().find(
                "\"name\":\"ideval_serve_qif_qps\""),
            std::string::npos);
  server->Stop();
}

TEST_F(ServeTest, WindowedThroughputAppearsAfterCompletions) {
  MakeEngine(1000);
  auto server = MakeServer(ServerOptions{});
  const uint64_t sid = server->OpenSession();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(server->Submit(sid, Group()).ok());
    server->Drain();
  }
  const auto snap = server->Snapshot();
  // Completions seconds old still sit inside the 10s default window, so
  // the windowed rate is positive and counts queries, not groups.
  EXPECT_GT(snap.throughput_window_qps, 0.0);
  EXPECT_EQ(snap.qif_window_truncations, 0);
  const std::string text = snap.ToText();
  EXPECT_NE(text.find("throughput (lifetime / window)"), std::string::npos);
  EXPECT_EQ(text.find("window truncations"), std::string::npos);
}

TEST(OnlineMetricsTest, WindowCapTruncatesInsteadOfGrowing) {
  // A burst past the element cap must drop oldest entries and say so,
  // not grow the deque without bound.
  OnlineMetrics metrics(Duration::Seconds(3600.0));
  const int64_t kOver = 37;
  for (int64_t i = 0; i < OnlineMetrics::kMaxWindowEntries + kOver; ++i) {
    metrics.RecordSubmit(SimTime::FromMicros(i));
  }
  ServerStatsSnapshot snap;
  metrics.FillSnapshot(&snap, SimTime::FromMicros(1000000));
  EXPECT_EQ(snap.qif_window_truncations, kOver);
  EXPECT_GT(snap.qif_qps, 0.0);

  // Completions have the same cap; truncations accumulate across both.
  for (int64_t i = 0; i < OnlineMetrics::kMaxWindowEntries + 1; ++i) {
    metrics.RecordGroupComplete(SimTime::FromMicros(i), Duration::Millis(1),
                                Duration::Millis(1), /*queries=*/2);
  }
  metrics.FillSnapshot(&snap, SimTime::FromMicros(1000000));
  EXPECT_EQ(snap.qif_window_truncations, kOver + 1);
  EXPECT_GT(snap.throughput_window_qps, 0.0);
}

TEST_F(ServeTest, StatsPollerFillsTimeseries) {
  MakeEngine(1000);
  ServerOptions opts;
  opts.enable_metrics = true;
  MetricsRegistry registry;
  opts.metrics_registry = &registry;
  opts.stats_poll_ms = 2.0;
  opts.stats_ring_samples = 32;
  auto server = MakeServer(opts);
  const TimeSeriesRing* ring = server->timeseries();
  ASSERT_NE(ring, nullptr);
  EXPECT_EQ(ring->capacity(), 32);

  const uint64_t sid = server->OpenSession();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(server->Submit(sid, Group()).ok());
    server->Drain();
  }
  // Wait for a sample taken strictly after the last drain, so the newest
  // sample is guaranteed to see all three completions. The poller samples
  // and then pushes on one thread, so the first push after `drained_at`
  // may carry a sample begun before the drain returned; the second one's
  // sample began after the first was pushed, hence after the drain.
  const int64_t drained_at = ring->pushed();
  for (int spin = 0; spin < 2000 && ring->pushed() < drained_at + 2;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(ring->pushed(), drained_at + 2);
  server->Stop();
  // Stop halted the poller before teardown; the ring is now quiescent.
  const int64_t pushed = ring->pushed();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(ring->pushed(), pushed);

  const auto samples = ring->Snapshot();
  ASSERT_FALSE(samples.empty());
  const StatsSample& last = samples.back();
  EXPECT_EQ(last.submitted, 3);
  EXPECT_EQ(last.executed, 3);
  EXPECT_EQ(last.cache_hit_rate, -1.0);  // No result cache configured.
  EXPECT_EQ(last.trace_dropped, 0);      // Tracing off.
  EXPECT_GE(last.t_s, 0.0);
  for (size_t i = 1; i < samples.size(); ++i) {
    EXPECT_GE(samples[i].t_s, samples[i - 1].t_s);
    EXPECT_GE(samples[i].submitted, samples[i - 1].submitted);
  }
}

// ------------------------------ SLO ------------------------------

TEST_F(ServeTest, SloOptionsValidate) {
  MakeEngine(100);
  const auto rejects = [this](ServerOptions opts) {
    EXPECT_EQ(QueryServer::Create(engine_.get(), opts).status().code(),
              StatusCode::kInvalidArgument);
  };
  // The SLO engine rides the stats poller; it cannot run without one.
  ServerOptions opts;
  opts.enable_slo = true;
  opts.stats_poll_ms = 0.0;
  rejects(opts);
  opts.stats_poll_ms = 5.0;
  {
    ServerOptions bad = opts;
    bad.slo_lcv_target = 0.0;
    rejects(bad);
    bad.slo_lcv_target = 1.0;
    rejects(bad);
  }
  {
    ServerOptions bad = opts;
    bad.slo_shed_target = 1.5;
    rejects(bad);
  }
  {
    ServerOptions bad = opts;
    bad.slo_fast_window_s = 0.0;
    rejects(bad);
    bad = opts;
    bad.slo_slow_confirm_window_s = -1.0;
    rejects(bad);
  }
  {
    ServerOptions bad = opts;
    bad.slo_critical_burn = 0.0;
    rejects(bad);
    bad = opts;
    bad.slo_warn_burn = -1.0;
    rejects(bad);
  }
  {
    ServerOptions bad = opts;
    bad.slo_clear_hold_s = -0.5;
    rejects(bad);
    bad = opts;
    bad.slo_flight_bundles = 0;
    rejects(bad);
  }
  // The defaults with a poller are fine.
  EXPECT_TRUE(QueryServer::Create(engine_.get(), opts).ok());
}

TEST_F(ServeTest, SloOffByDefaultAndAccessorsNull) {
  MakeEngine(100);
  auto server = MakeServer(ServerOptions{});
  EXPECT_EQ(server->slo_engine(), nullptr);
  EXPECT_EQ(server->flight_recorder(), nullptr);
  EXPECT_FALSE(server->slo_critical());
  EXPECT_EQ(server->CaptureFlightBundle("nope"), -1);
  const auto snap = server->Snapshot();
  EXPECT_FALSE(snap.slo_enabled);
}

TEST_F(ServeTest, SloCriticalPagesOnceAndCapturesOneBundle) {
  // End-to-end: a latency-deadline SLO no real run can meet (p90 must
  // beat 0.0001 ms) with sub-second windows and a lowered page burn.
  // Every poll that observes completions is a bad event (burn 10 at the
  // fixed 0.1 budget), so the first completion-bearing poll pages — and
  // a long clear hold pins the episode to exactly one transition and
  // one flight bundle.
  MakeEngine(10000);
  ServerOptions opts;
  opts.num_workers = 2;
  opts.stats_poll_ms = 5.0;
  opts.enable_slo = true;
  opts.slo_latency_p90_ms = 0.0001;
  opts.slo_critical_burn = 5.0;
  opts.slo_fast_window_s = 0.05;
  opts.slo_fast_confirm_window_s = 0.1;
  opts.slo_slow_window_s = 0.1;
  opts.slo_slow_confirm_window_s = 0.2;
  opts.slo_clear_hold_s = 60.0;
  auto server = MakeServer(opts);
  ASSERT_NE(server->slo_engine(), nullptr);
  ASSERT_NE(server->flight_recorder(), nullptr);

  const uint64_t sid = server->OpenSession();
  // Pace submissions across poll periods so some 5 ms interval sees a
  // completion (a burst that drains inside the first period would leave
  // every later interval with zero executed deltas — no events at all).
  for (int spin = 0; spin < 400 && !server->slo_critical(); ++spin) {
    ASSERT_TRUE(server->Submit(sid, Group()).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  server->Drain();
  EXPECT_TRUE(server->slo_critical());

  const std::vector<SloStatus> status = server->slo_engine()->Status();
  int64_t critical_transitions = 0;
  bool latency_critical = false;
  for (const auto& s : status) {
    critical_transitions += s.critical_transitions;
    if (s.name == "latency_p90" && s.state == SloState::kCritical) {
      latency_critical = true;
    }
  }
  EXPECT_TRUE(latency_critical);
  // One sustained episode => one transition => one automatic bundle.
  EXPECT_EQ(critical_transitions, 1);
  EXPECT_EQ(server->flight_recorder()->captured(), 1);

  const auto snap = server->Snapshot();
  EXPECT_TRUE(snap.slo_enabled);
  EXPECT_TRUE(snap.slo_any_critical);
  EXPECT_EQ(snap.slo_critical_transitions, 1);
  EXPECT_EQ(snap.slo_bundles, 1);

  // On-demand capture stacks on top of the automatic one.
  EXPECT_EQ(server->CaptureFlightBundle("test"), 2);
  EXPECT_EQ(server->flight_recorder()->captured(), 2);
  const std::string bundle = server->flight_recorder()->ToJson();
  EXPECT_NE(bundle.find("ideval.flightrecorder.v1"), std::string::npos);
  EXPECT_NE(bundle.find("slo:latency_p90:critical"), std::string::npos);
  server->Stop();
}

TEST(AdmissionControllerTest, SloCriticalEscalatesWithoutTouchingReject) {
  AdmissionOptions aopts;
  aopts.window = Duration::Seconds(1.0);
  AdmissionController ctl(2, aopts);

  // A quiet server stays idle even while critical: with nothing
  // offered there is nothing to escalate.
  ctl.SetSloCritical(true);
  EXPECT_EQ(ctl.Assess(SimTime::Origin()).state, LoadState::kIdle);

  // Unknown capacity: the optimistic "assume the backend keeps up"
  // default yields to the SLO verdict.
  SimTime t = SimTime::FromMillis(100);
  ctl.OnSubmit(t);
  auto a = ctl.Assess(t);
  EXPECT_EQ(a.state, LoadState::kOverloaded);
  EXPECT_FALSE(a.reject);  // Escalation never sets the reject bit.

  // Known capacity, light load: still overloaded while critical...
  ctl.OnComplete(t, Duration::Millis(100));
  a = ctl.Assess(t);
  EXPECT_EQ(a.state, LoadState::kOverloaded);
  EXPECT_FALSE(a.reject);

  // ...and back to the load-derived state once the SLO recovers.
  ctl.SetSloCritical(false);
  EXPECT_EQ(ctl.Assess(t).state, LoadState::kUnderloaded);
}

}  // namespace
}  // namespace ideval
