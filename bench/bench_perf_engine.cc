/// P1: google-benchmark microbenchmarks of the execution engine's real
/// (wall-clock) operator throughput — scans, filtered histograms, paged
/// joins — under both engine profiles. These measure the substrate itself,
/// complementing the modelled-time experiment benches.
///
/// `--zone_maps` (stripped before google-benchmark sees the argv) turns
/// on per-block min/max pruning in both shared engines; pruning-sensitive
/// benchmarks report a `pruned%` counter (blocks skipped / total). The
/// road table is registered twice — in generation order and re-sorted by
/// `x` — because zone maps only pay when the filter column is clustered:
/// compare BM_ZoneMapHistogram/0 (unclustered, pruned% near zero) against
/// /1 (clustered, pruned% tracking 1 - selectivity).
///
/// `--kernels=auto|scalar|sse42|avx2|avx512` (also stripped) pins the SIMD scan
/// kernels (`EngineOptions::kernel_isa`, docs/kernels.md) for every
/// engine this bench builds; every ISA produces bitwise-identical
/// results, so comparing `--kernels=scalar` against the default is a pure
/// speedup measurement (and the `perf_smoke_kernels` CI check asserts the
/// exported digests agree).
///
/// `--json_out=FILE` (also stripped) writes a schema-stable
/// `ideval.bench.engine.v2` JSON after the benchmarks run: per-shape
/// headline throughput over `--json_reps=N` repetitions — one headline
/// block per zone-map config actually run, each on its own engine, so
/// `pruned_pct` reflects the config it claims to describe — plus the CPU
/// feature probe, the resolved kernel ISA, and the full metrics-registry
/// exposition. This is the engine half of the perf trajectory;
/// `bench_serve_saturation --json_out` is the serve half.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <numeric>
#include <string>

#include "bench/bench_util.h"
#include "common/build_info.h"
#include "common/json_writer.h"
#include "common/text_table.h"
#include "data/datasets.h"
#include "engine/engine.h"
#include "engine/kernels/kernels.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"

namespace ideval {
namespace {

bool g_zone_maps = false;
KernelIsa g_kernels = KernelIsa::kAuto;
std::string g_trace_out;
std::string g_json_out;
int g_json_reps = 25;

/// The road table re-sorted by `x`: the clustered layout on which a range
/// predicate on `x` makes most blocks prunable.
TablePtr RoadSortedByX(const TablePtr& road) {
  const std::vector<double>& x = road->column(0).double_data();
  std::vector<size_t> order(road->num_rows());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(),
            [&x](size_t a, size_t b) { return x[a] < x[b]; });
  TableBuilder builder("dataroad_byx", road->schema());
  for (size_t c = 0; c < road->num_columns(); ++c) {
    const std::vector<double>& src = road->column(c).double_data();
    Column* dst = builder.mutable_column(c);
    for (size_t row : order) dst->AppendDouble(src[row]);
  }
  return std::move(builder).Finish().ValueOrDie();
}

Engine* MakeEngine(EngineProfile profile, bool zone_maps) {
  EngineOptions opts;
  opts.profile = profile;
  opts.enable_zone_maps = zone_maps;
  opts.kernel_isa = g_kernels;
  auto* e = new Engine(opts);
  RoadNetworkOptions r;
  r.num_rows = 434874;
  TablePtr road = MakeRoadNetworkTable(r).ValueOrDie();
  (void)e->RegisterTable(road);
  (void)e->RegisterTable(RoadSortedByX(road));
  MoviesOptions m;
  auto movies = MakeMoviesTable(m).ValueOrDie();
  (void)e->RegisterTable(movies);
  auto split = SplitMoviesForJoin(movies).ValueOrDie();
  (void)e->RegisterTable(split.ratings);
  (void)e->RegisterTable(split.movies);
  return e;
}

Engine* SharedEngine(EngineProfile profile) {
  static Engine* disk =
      MakeEngine(EngineProfile::kDiskRowStore, g_zone_maps);
  static Engine* mem =
      MakeEngine(EngineProfile::kInMemoryColumnStore, g_zone_maps);
  return profile == EngineProfile::kDiskRowStore ? disk : mem;
}

/// Folds a response's block counters into the benchmark's `pruned%`.
void AddPruneCounters(benchmark::State& state, int64_t scanned,
                      int64_t pruned) {
  const int64_t total = scanned + pruned;
  state.counters["pruned%"] = benchmark::Counter(
      total > 0 ? 100.0 * static_cast<double>(pruned) /
                      static_cast<double>(total)
                : 0.0);
}

EngineProfile ProfileOf(const benchmark::State& state) {
  return state.range(0) == 0 ? EngineProfile::kDiskRowStore
                             : EngineProfile::kInMemoryColumnStore;
}

void BM_CrossfilterHistogram(benchmark::State& state) {
  Engine* engine = SharedEngine(ProfileOf(state));
  HistogramQuery q;
  q.table = "dataroad";
  q.bin_column = "y";
  q.bin_lo = 56.582;
  q.bin_hi = 57.774;
  q.bins = 20;
  q.predicates = {RangePredicate{"x", 8.146, 10.0},
                  RangePredicate{"z", -8.608, 100.0}};
  int64_t tuples = 0;
  int64_t blocks_scanned = 0;
  int64_t blocks_pruned = 0;
  for (auto _ : state) {
    auto r = engine->Execute(Query(q));
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    tuples += r->stats.tuples_scanned;
    blocks_scanned += r->stats.blocks_scanned;
    blocks_pruned += r->stats.blocks_pruned;
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(tuples);
  AddPruneCounters(state, blocks_scanned, blocks_pruned);
  state.SetLabel(EngineProfileToString(ProfileOf(state)));
}
BENCHMARK(BM_CrossfilterHistogram)->Arg(0)->Arg(1);

/// The group a drag of the road table's x slider sends: histograms of y
/// and z under x <= `x_hi` and the full y and z ranges.
std::vector<Query> XDragGroup(double x_hi) {
  std::vector<Query> group;
  for (const char* column : {"y", "z"}) {
    HistogramQuery q;
    q.table = "dataroad";
    q.bin_column = column;
    q.bin_lo = column[0] == 'y' ? 56.582 : -8.608;
    q.bin_hi = column[0] == 'y' ? 57.774 : 137.361;
    q.bins = 20;
    q.predicates = {RangePredicate{"x", 8.146, x_hi},
                    RangePredicate{"y", 56.582, 57.774},
                    RangePredicate{"z", -8.608, 137.361}};
    group.push_back(q);
  }
  return group;
}

/// `Engine::Execute`s `group` into a drag base.
HistogramGroupCounts XDragBase(Engine* engine,
                               const std::vector<Query>& group) {
  HistogramGroupCounts base;
  for (const Query& q : group) {
    auto r = engine->Execute(q);
    if (!r.ok()) std::abort();
    const auto& h = std::get<FixedHistogram>(r->data);
    base.queries.push_back(std::get<HistogramQuery>(q));
    base.counts.emplace_back(h.counts().begin(), h.counts().end());
  }
  return base;
}

/// The x value that `swept` rows lie at or below beyond the 60th
/// percentile: moving x's upper bound between the two sweeps `swept` rows.
std::pair<double, double> XDragBounds(Engine* engine, int64_t swept) {
  std::vector<double> x =
      (*engine->GetTable("dataroad"))->column(0).double_data();
  std::sort(x.begin(), x.end());
  const size_t at = x.size() * 6 / 10;
  return {x[at], x[at + static_cast<size_t>(swept)]};
}

void BM_CrossfilterGroupScan(benchmark::State& state) {
  // The scan a drag answer replaces: both histograms of an x-drag group.
  // items/s counts rows scanned, one pass per histogram.
  Engine* engine = SharedEngine(EngineProfile::kInMemoryColumnStore);
  const std::vector<Query> group = XDragGroup(10.0);
  int64_t tuples = 0;
  for (auto _ : state) {
    for (const Query& q : group) {
      auto r = engine->Execute(q);
      if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
      tuples += r->stats.tuples_scanned;
      benchmark::DoNotOptimize(r);
    }
  }
  state.SetItemsProcessed(tuples);
}
BENCHMARK(BM_CrossfilterGroupScan);

void BM_CrossfilterDrag(benchmark::State& state) {
  // Drag answers (docs/serve.md): x's upper bound moves back and forth
  // across `state.range(0)` rows and each iteration answers the group
  // from the previous one. items/s counts rows swept; a swept row costs
  // more than a scanned one (BM_CrossfilterGroupScan), and the ratio sets
  // `kDragSweepDivisor`.
  Engine* engine = SharedEngine(EngineProfile::kInMemoryColumnStore);
  const auto [hi_a, hi_b] = XDragBounds(engine, state.range(0));
  const std::vector<Query> group_a = XDragGroup(hi_a);
  const std::vector<Query> group_b = XDragGroup(hi_b);
  const HistogramGroupCounts base_a = XDragBase(engine, group_a);
  const HistogramGroupCounts base_b = XDragBase(engine, group_b);
  // The first drag over x sorts it; keep that out of the timing.
  if (!engine->ExecuteHistogramDrag(base_a, group_b).has_value()) {
    state.SkipWithError("drag refused");
    return;
  }
  int64_t swept = 0;
  bool forth = true;
  for (auto _ : state) {
    auto r = forth ? engine->ExecuteHistogramDrag(base_a, group_b)
                   : engine->ExecuteHistogramDrag(base_b, group_a);
    forth = !forth;
    swept += r->front().stats.tuples_scanned;
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(swept);
}
BENCHMARK(BM_CrossfilterDrag)->Arg(500)->Arg(4500)->Arg(20000)->Arg(54000);

void BM_DragSortedOrderBuild(benchmark::State& state) {
  // The one-time cost of a drag over a fresh column: sorting its rows,
  // paid by the first drag answer over it (docs/serve.md).
  TablePtr road =
      *SharedEngine(EngineProfile::kInMemoryColumnStore)->GetTable("dataroad");
  const std::vector<Query> group_a = XDragGroup(10.0);
  const std::vector<Query> group_b = XDragGroup(10.001);
  for (auto _ : state) {
    state.PauseTiming();
    EngineOptions opts;
    opts.kernel_isa = g_kernels;
    Engine engine(opts);
    (void)engine.RegisterTable(road);
    const HistogramGroupCounts base = XDragBase(&engine, group_a);
    state.ResumeTiming();
    auto r = engine.ExecuteHistogramDrag(base, group_b);
    if (!r.has_value()) state.SkipWithError("drag refused");
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(road->num_rows()));
}
BENCHMARK(BM_DragSortedOrderBuild)->Unit(benchmark::kMillisecond);

void BM_SelectPage(benchmark::State& state) {
  Engine* engine = SharedEngine(ProfileOf(state));
  SelectQuery q;
  q.table = "imdb";
  q.limit = 100;
  q.offset = 2000;
  for (auto _ : state) {
    auto r = engine->Execute(Query(q));
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    benchmark::DoNotOptimize(r);
  }
  state.SetLabel(EngineProfileToString(ProfileOf(state)));
}
BENCHMARK(BM_SelectPage)->Arg(0)->Arg(1);

void BM_JoinPage(benchmark::State& state) {
  Engine* engine = SharedEngine(ProfileOf(state));
  JoinPageQuery q;
  q.left_table = "imdbrating";
  q.right_table = "movie";
  q.join_column = "id";
  q.limit = 100;
  q.offset = 2000;
  for (auto _ : state) {
    auto r = engine->Execute(Query(q));
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    benchmark::DoNotOptimize(r);
  }
  state.SetLabel(EngineProfileToString(ProfileOf(state)));
}
BENCHMARK(BM_JoinPage)->Arg(0)->Arg(1);

void BM_SelectivitySweep(benchmark::State& state) {
  // Narrower x ranges -> fewer matches; scan cost stays (full scan), so
  // throughput should be flat while matched counts fall.
  Engine* engine = SharedEngine(EngineProfile::kInMemoryColumnStore);
  const double frac = static_cast<double>(state.range(0)) / 100.0;
  HistogramQuery q;
  q.table = "dataroad";
  q.bin_column = "y";
  q.bin_lo = 56.582;
  q.bin_hi = 57.774;
  q.bins = 20;
  q.predicates = {
      RangePredicate{"x", 8.146, 8.146 + (11.2616367163 - 8.146) * frac}};
  for (auto _ : state) {
    auto r = engine->Execute(Query(q));
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_SelectivitySweep)->Arg(10)->Arg(50)->Arg(100);

void BM_ZoneMapHistogram(benchmark::State& state) {
  // A ~10%-selective x range on the road table in two layouts: arg 0 =
  // generation order (segments scattered, blocks span the full x range,
  // nothing prunes), arg 1 = sorted by x (clustered; with --zone_maps
  // ~90% of blocks prune and scan throughput rises accordingly). Results
  // are bitwise identical across all four combinations.
  Engine* engine = SharedEngine(EngineProfile::kInMemoryColumnStore);
  HistogramQuery q;
  q.table = state.range(0) == 0 ? "dataroad" : "dataroad_byx";
  q.bin_column = "y";
  q.bin_lo = 56.582;
  q.bin_hi = 57.774;
  q.bins = 20;
  q.predicates = {RangePredicate{"x", 8.146, 8.458}};
  int64_t tuples = 0;
  int64_t blocks_scanned = 0;
  int64_t blocks_pruned = 0;
  for (auto _ : state) {
    auto r = engine->Execute(Query(q));
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    tuples += r->stats.tuples_scanned;
    blocks_scanned += r->stats.blocks_scanned;
    blocks_pruned += r->stats.blocks_pruned;
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(tuples);
  AddPruneCounters(state, blocks_scanned, blocks_pruned);
  state.SetLabel(state.range(0) == 0 ? "unclustered" : "clustered");
}
BENCHMARK(BM_ZoneMapHistogram)->Arg(0)->Arg(1);

/// Runs the three representative operator queries a few times each under a
/// standalone `TraceBuffer`, one trace per query with a `kExecute` span
/// carrying the engine's work stats, and exports the timeline. The same
/// file format the serve bench emits, so engine-only spans can be eyeballed
/// in ui.perfetto.dev without standing up a server.
int ExportEngineTrace(const std::string& path) {
  Engine* engine = SharedEngine(EngineProfile::kInMemoryColumnStore);
  TraceOptions topts;
  TraceBuffer buffer(topts);

  HistogramQuery hist;
  hist.table = "dataroad";
  hist.bin_column = "y";
  hist.bin_lo = 56.582;
  hist.bin_hi = 57.774;
  hist.bins = 20;
  hist.predicates = {RangePredicate{"x", 8.146, 10.0},
                     RangePredicate{"z", -8.608, 100.0}};
  SelectQuery page;
  page.table = "imdb";
  page.limit = 100;
  page.offset = 2000;
  JoinPageQuery join;
  join.left_table = "imdbrating";
  join.right_table = "movie";
  join.join_column = "id";
  join.limit = 100;
  join.offset = 2000;

  const Query queries[] = {Query(hist), Query(page), Query(join)};
  constexpr int kReps = 7;
  for (int rep = 0; rep < kReps; ++rep) {
    for (const Query& q : queries) {
      const TraceContext ctx = MakeTraceContext(&buffer, /*session_id=*/1);
      Span exec(ctx, SpanKind::kExecute, /*parent_span_id=*/0);
      auto r = engine->Execute(q);
      if (!r.ok()) {
        std::fprintf(stderr, "trace query failed: %s\n",
                     r.status().ToString().c_str());
        return 1;
      }
      exec.SetAttrs(r->stats.tuples_scanned, r->stats.blocks_scanned,
                    r->stats.blocks_pruned);
    }
  }
  const Status exported = buffer.ExportChromeTrace(path);
  if (!exported.ok()) {
    std::fprintf(stderr, "trace export failed: %s\n",
                 exported.ToString().c_str());
    return 1;
  }
  const TraceBufferStats stats = buffer.Stats();
  std::printf("engine trace: %lld spans -> %s\n",
              static_cast<long long>(stats.recorded), path.c_str());
  return 0;
}

/// FNV-1a over raw bytes, seeded with `h` so digests chain.
uint64_t Fnv1a(uint64_t h, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

/// Chains one response's observable outputs into a digest: the work
/// counters plus the full payload (histogram bin patterns or every row
/// value). Two runs of the same shape digest equal iff the engine
/// produced bitwise-identical results — the `perf_smoke_kernels` check
/// compares `--kernels=scalar` against `--kernels=auto` through this.
uint64_t DigestResponse(uint64_t h, const QueryResponse& r) {
  const int64_t counters[] = {r.stats.tuples_scanned, r.stats.tuples_matched,
                              r.stats.blocks_scanned, r.stats.blocks_pruned,
                              r.stats.groups_built, r.stats.rows_output};
  h = Fnv1a(h, counters, sizeof(counters));
  if (const auto* hist = std::get_if<FixedHistogram>(&r.data)) {
    h = Fnv1a(h, hist->counts().data(),
              hist->counts().size() * sizeof(double));
    const double edges[] = {hist->lo(), hist->hi(), hist->total()};
    h = Fnv1a(h, edges, sizeof(edges));
    return h;
  }
  const auto& rows = std::get<RowSet>(r.data);
  for (const auto& row : rows.rows) {
    for (const Value& v : row) {
      switch (v.type()) {
        case DataType::kInt64: {
          const int64_t x = v.int64();
          h = Fnv1a(h, &x, sizeof(x));
          break;
        }
        case DataType::kDouble: {
          const double x = v.dbl();
          h = Fnv1a(h, &x, sizeof(x));
          break;
        }
        case DataType::kString:
          h = Fnv1a(h, v.str().data(), v.str().size());
          break;
      }
    }
  }
  return h;
}

/// The engine half of the perf trajectory (`ideval.bench.engine.v2`):
/// runs the representative operator queries `g_json_reps` times each on
/// the in-memory profile — one headline block per zone-map config, each
/// against an engine actually built with that config, so `pruned_pct`
/// describes the run it is attached to (v1 reported the zone_maps:false
/// engine's zeros regardless of the flag). Records per-query wall time
/// into a registry histogram per shape and writes headline throughput,
/// per-shape result digests, the CPU feature probe, the resolved kernel
/// ISA, and the exposition to `path`. Own measurement loop rather than
/// google-benchmark state so the export's schema (and runtime) is ours.
int ExportEngineJson(const std::string& path) {
  MetricsRegistry registry;

  HistogramQuery hist;
  hist.table = "dataroad";
  hist.bin_column = "y";
  hist.bin_lo = 56.582;
  hist.bin_hi = 57.774;
  hist.bins = 20;
  hist.predicates = {RangePredicate{"x", 8.146, 10.0},
                     RangePredicate{"z", -8.608, 100.0}};
  SelectQuery page;
  page.table = "imdb";
  page.limit = 100;
  page.offset = 2000;
  JoinPageQuery join;
  join.left_table = "imdbrating";
  join.right_table = "movie";
  join.join_column = "id";
  join.limit = 100;
  join.offset = 2000;
  // The ~10%-selective clustered shape: with zone maps on, most blocks
  // of the x-sorted layout prune, so this headline's `pruned_pct` is the
  // one that moves when pruning regresses.
  HistogramQuery zoned = hist;
  zoned.table = "dataroad_byx";
  zoned.predicates = {RangePredicate{"x", 8.146, 8.458}};

  struct Shape {
    const char* name;
    Query query;
  };
  const Shape plain_shapes[] = {{"crossfilter_histogram", Query(hist)},
                                {"select_page", Query(page)},
                                {"join_page", Query(join)}};
  const Shape zm_shapes[] = {{"crossfilter_histogram", Query(hist)},
                             {"zonemap_histogram", Query(zoned)}};

  // Sub-ms shapes need finer-than-default buckets.
  HistogramOptions hopts;
  hopts.first_bound = 0.01;
  hopts.growth = 2.0;
  hopts.num_bounds = 20;

  const CpuFeatures cpu = ProbeCpu();
  JsonWriter w;
  w.BeginObject();
  w.Key("schema").String("ideval.bench.engine.v2");
  w.Key("bench").String("bench_perf_engine");
  w.Key("config").BeginObject();
  w.Key("profile").String("in_memory_column_store");
  w.Key("reps").Int(g_json_reps);
  w.Key("kernels").String(KernelIsaToString(g_kernels));
  w.Key("kernel_isa")
      .String(KernelIsaToString(GetKernelOps(g_kernels).isa));
  w.Key("cpu_sse42").Bool(cpu.sse42);
  w.Key("cpu_avx2").Bool(cpu.avx2);
  w.Key("cpu_avx512").Bool(cpu.avx512);
  w.EndObject();
  w.Key("build").Raw(
      BuildInfoJson(KernelIsaToString(GetKernelOps(g_kernels).isa)));

  // One headline block per config: each runs on an engine built with
  // that zone-map setting (`metric_prefix` keeps registry names unique).
  auto emit_block = [&](const char* block_key, bool zone_maps,
                        const char* metric_prefix, const Shape* shapes,
                        size_t num_shapes) -> int {
    std::unique_ptr<Engine> engine(
        MakeEngine(EngineProfile::kInMemoryColumnStore, zone_maps));
    w.Key(block_key).BeginObject();
    for (size_t si = 0; si < num_shapes; ++si) {
      const Shape& shape = shapes[si];
      Histogram* h = registry.RegisterHistogram(
          StrFormat("ideval_engine_%s%s_ms", metric_prefix, shape.name),
          StrFormat("Wall time per %s query (ms, zone_maps=%d)", shape.name,
                    zone_maps ? 1 : 0),
          hopts);
      double total_ms = 0.0;
      int64_t tuples = 0;
      int64_t blocks_scanned = 0;
      int64_t blocks_pruned = 0;
      uint64_t digest = 1469598103934665603ull;  // FNV offset basis.
      // One unrecorded warmup rep: the first execution of a shape pays
      // for buffer-pool fills, branch-predictor training, and the lazy
      // CPUID resolve, which says nothing about steady-state latency —
      // the regime interactive sessions live in.
      if (auto warm = engine->Execute(shape.query); !warm.ok()) {
        std::fprintf(stderr, "json warmup failed: %s\n",
                     warm.status().ToString().c_str());
        return 1;
      }
      for (int rep = 0; rep < g_json_reps; ++rep) {
        const auto t0 = std::chrono::steady_clock::now();
        auto r = engine->Execute(shape.query);
        const auto t1 = std::chrono::steady_clock::now();
        if (!r.ok()) {
          std::fprintf(stderr, "json query failed: %s\n",
                       r.status().ToString().c_str());
          return 1;
        }
        const double ms =
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                .count() /
            1e6;
        h->Record(ms);
        total_ms += ms;
        tuples += r->stats.tuples_scanned;
        blocks_scanned += r->stats.blocks_scanned;
        blocks_pruned += r->stats.blocks_pruned;
        if (rep == 0) digest = DigestResponse(digest, *r);
      }
      const int64_t total_blocks = blocks_scanned + blocks_pruned;
      w.Key(shape.name).BeginObject();
      w.Key("mean_ms").Double(total_ms / g_json_reps);
      w.Key("qps").Double(total_ms > 0.0 ? g_json_reps / (total_ms / 1e3)
                                         : 0.0);
      w.Key("tuples_per_query").Int(tuples / g_json_reps);
      w.Key("pruned_pct")
          .Double(total_blocks > 0
                      ? 100.0 * static_cast<double>(blocks_pruned) /
                            static_cast<double>(total_blocks)
                      : 0.0);
      w.Key("digest").String(
          StrFormat("%016llx", static_cast<unsigned long long>(digest)));
      w.EndObject();
    }
    w.EndObject();
    return 0;
  };
  if (emit_block("headline", /*zone_maps=*/false, "", plain_shapes,
                 sizeof(plain_shapes) / sizeof(plain_shapes[0])) != 0) {
    return 1;
  }
  if (emit_block("headline_zone_maps", /*zone_maps=*/true, "zm_", zm_shapes,
                 sizeof(zm_shapes) / sizeof(zm_shapes[0])) != 0) {
    return 1;
  }
  w.Key("metrics").Raw(registry.ExpositionJson());
  w.EndObject();
  const std::string json = std::move(w).Finish();

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("engine json: %d reps, kernels=%s (resolved %s), "
              "%zu bytes -> %s\n",
              g_json_reps, KernelIsaToString(g_kernels),
              KernelIsaToString(GetKernelOps(g_kernels).isa), json.size(),
              path.c_str());
  return 0;
}

}  // namespace
}  // namespace ideval

int main(int argc, char** argv) {
  // Strip the flags google-benchmark would reject as unknown.
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--zone_maps") == 0 ||
        std::strcmp(argv[i], "--zone_maps=1") == 0) {
      ideval::g_zone_maps = true;
    } else if (std::strcmp(argv[i], "--zone_maps=0") == 0) {
      ideval::g_zone_maps = false;
    } else if (std::strncmp(argv[i], "--kernels=", 10) == 0) {
      auto isa = ideval::KernelIsaFromString(argv[i] + 10);
      if (!isa.has_value()) {
        std::fprintf(stderr,
                     "bad %s (want auto|scalar|sse42|avx2|avx512)\n", argv[i]);
        return 1;
      }
      ideval::g_kernels = *isa;
    } else if (std::strncmp(argv[i], "--trace_out=", 12) == 0) {
      ideval::g_trace_out = argv[i] + 12;
    } else if (std::strncmp(argv[i], "--json_out=", 11) == 0) {
      ideval::g_json_out = argv[i] + 11;
    } else if (std::strncmp(argv[i], "--json_reps=", 12) == 0) {
      ideval::g_json_reps = std::atoi(argv[i] + 12);
      if (ideval::g_json_reps < 1) ideval::g_json_reps = 1;
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!ideval::g_trace_out.empty()) {
    const int rc = ideval::ExportEngineTrace(ideval::g_trace_out);
    if (rc != 0) return rc;
  }
  if (!ideval::g_json_out.empty()) {
    return ideval::ExportEngineJson(ideval::g_json_out);
  }
  return 0;
}
