#include <cmath>

#include <gtest/gtest.h>

#include "harness/benchmark_runner.h"
#include "opt/gesture_gate.h"

namespace ideval {
namespace {

// ----------------------------- Spec parsing -----------------------------

TEST(WorkloadSpecTest, ParsesFullSpec) {
  const std::string text = R"(
# A crossfilter benchmark on the gesture device.
name = leap-disk-kl
interface = crossfilter
device = leap
engine = disk
users = 2
seed = 99
rows = 50000
kl_threshold = 0.2
throttle_ms = 100
policy = skip
connections = 2
crossfilter_moves = 10
)";
  auto spec = ParseWorkloadSpec(text);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec->name, "leap-disk-kl");
  EXPECT_EQ(spec->interface_kind, InterfaceKind::kCrossfilter);
  EXPECT_EQ(spec->device, DeviceType::kLeapMotion);
  EXPECT_EQ(spec->engine, EngineProfile::kDiskRowStore);
  EXPECT_EQ(spec->num_users, 2);
  EXPECT_EQ(spec->seed, 99u);
  EXPECT_EQ(spec->rows, 50000);
  EXPECT_DOUBLE_EQ(spec->kl_threshold, 0.2);
  EXPECT_EQ(spec->throttle_interval, Duration::Millis(100));
  EXPECT_EQ(spec->policy, SchedulingPolicy::kSkipStale);
  EXPECT_EQ(spec->crossfilter_moves, 10);
}

TEST(WorkloadSpecTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseWorkloadSpec("interface = teleport").ok());
  EXPECT_FALSE(ParseWorkloadSpec("device = thought").ok());
  EXPECT_FALSE(ParseWorkloadSpec("users = 0").ok());
  EXPECT_FALSE(ParseWorkloadSpec("users = banana").ok());
  EXPECT_FALSE(ParseWorkloadSpec("nonsense_key = 1").ok());
  EXPECT_FALSE(ParseWorkloadSpec("no equals sign here").ok());
  EXPECT_FALSE(ParseWorkloadSpec("throttle_ms = -5").ok());
  // Knobs of removed serve modes are unknown keys, named in the error.
  for (const char* key :
       {"serve_progressive", "serve_deadline_ms", "serve_cache"}) {
    auto spec = ParseWorkloadSpec(std::string(key) + " = 1");
    ASSERT_FALSE(spec.ok()) << key;
    EXPECT_NE(spec.status().ToString().find(key), std::string::npos)
        << spec.status().ToString();
  }
}

TEST(WorkloadSpecTest, RejectsDuplicateKeysNamingTheLine) {
  auto spec = ParseWorkloadSpec("users = 2\nseed = 1\nusers = 3\n");
  ASSERT_FALSE(spec.ok());
  EXPECT_EQ(spec.status().code(), StatusCode::kInvalidArgument);
  // The error points at the offending line and key.
  EXPECT_NE(spec.status().ToString().find("line 3"), std::string::npos)
      << spec.status().ToString();
  EXPECT_NE(spec.status().ToString().find("users"), std::string::npos);
}

TEST(WorkloadSpecTest, ParsesServeKnobs) {
  const std::string text = R"(
serve_threads = 3
serve_clients = 5
serve_queue_cap = 16
admission = debounce
adaptive_admission = true
time_compression = 80
)";
  auto spec = ParseWorkloadSpec(text);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec->serve_threads, 3);
  EXPECT_EQ(spec->serve_clients, 5);
  EXPECT_EQ(spec->serve_queue_cap, 16);
  EXPECT_EQ(spec->admission, AdmissionPolicy::kDebounce);
  EXPECT_TRUE(spec->adaptive_admission);
  EXPECT_DOUBLE_EQ(spec->time_compression, 80.0);

  EXPECT_FALSE(ParseWorkloadSpec("admission = yolo").ok());
  EXPECT_FALSE(ParseWorkloadSpec("serve_threads = -1").ok());
  EXPECT_FALSE(ParseWorkloadSpec("serve_queue_cap = 0").ok());
  EXPECT_FALSE(ParseWorkloadSpec("time_compression = 0").ok());
  EXPECT_FALSE(ParseWorkloadSpec("adaptive_admission = maybe").ok());
}

TEST(WorkloadSpecTest, ParsesObservabilityKnobs) {
  const std::string text = R"(
serve_trace = true
serve_trace_buffer_spans = 4096
serve_slow_query_ms = 25.5
)";
  auto spec = ParseWorkloadSpec(text);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_TRUE(spec->serve_trace);
  EXPECT_EQ(spec->serve_trace_buffer_spans, 4096);
  EXPECT_DOUBLE_EQ(spec->serve_slow_query_ms, 25.5);
  // Defaults: tracing and the slow log stay off.
  WorkloadSpec defaults;
  EXPECT_FALSE(defaults.serve_trace);
  EXPECT_LT(defaults.serve_slow_query_ms, 0.0);
  // A negative threshold is the documented "disabled" value, so it parses.
  EXPECT_TRUE(ParseWorkloadSpec("serve_slow_query_ms = -1").ok());

  EXPECT_FALSE(ParseWorkloadSpec("serve_trace = maybe").ok());
  EXPECT_FALSE(ParseWorkloadSpec("serve_trace_buffer_spans = 0").ok());
  EXPECT_FALSE(ParseWorkloadSpec("serve_trace_buffer_spans = lots").ok());
}

TEST(WorkloadSpecTest, ParsesMetricsKnobs) {
  auto spec = ParseWorkloadSpec(
      "serve_metrics = true\nserve_stats_poll_ms = 50");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_TRUE(spec->serve_metrics);
  EXPECT_DOUBLE_EQ(spec->serve_stats_poll_ms, 50.0);
  // Defaults: the registry and the poller stay off.
  WorkloadSpec defaults;
  EXPECT_FALSE(defaults.serve_metrics);
  EXPECT_LE(defaults.serve_stats_poll_ms, 0.0);
  // <= 0 is the documented "poller disabled" value, so it parses.
  EXPECT_TRUE(ParseWorkloadSpec("serve_stats_poll_ms = 0").ok());
  EXPECT_TRUE(ParseWorkloadSpec("serve_stats_poll_ms = -1").ok());
  EXPECT_FALSE(ParseWorkloadSpec("serve_metrics = maybe").ok());
  EXPECT_FALSE(ParseWorkloadSpec("serve_stats_poll_ms = fast").ok());
}

TEST(WorkloadSpecTest, ParsesNetKnobs) {
  auto spec = ParseWorkloadSpec("serve_net = true\nserve_net_port = 9099");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_TRUE(spec->serve_net);
  EXPECT_EQ(spec->serve_net_port, 9099);
  // Defaults: in-process submission, ephemeral port if net is turned on.
  WorkloadSpec defaults;
  EXPECT_FALSE(defaults.serve_net);
  EXPECT_EQ(defaults.serve_net_port, 0);
  // A configured port must be a real one: 0 means "let the OS pick" and
  // is expressed by omitting the key, not by writing it.
  EXPECT_FALSE(ParseWorkloadSpec("serve_net_port = 0").ok());
  EXPECT_FALSE(ParseWorkloadSpec("serve_net_port = -5").ok());
  EXPECT_FALSE(ParseWorkloadSpec("serve_net_port = 65536").ok());
  EXPECT_FALSE(ParseWorkloadSpec("serve_net = maybe").ok());
  EXPECT_TRUE(ParseWorkloadSpec("serve_net_port = 65535").ok());
  EXPECT_TRUE(ParseWorkloadSpec("serve_net_port = 1").ok());
}

TEST(WorkloadSpecTest, RoundTripsThroughText) {
  WorkloadSpec spec;
  spec.name = "round-trip";
  spec.interface_kind = InterfaceKind::kInertialScroll;
  spec.device = DeviceType::kTouchTrackpad;
  spec.engine = EngineProfile::kDiskRowStore;
  spec.num_users = 7;
  spec.seed = 12345;
  spec.kl_threshold = 0.1;
  spec.scroll_strategy = ScrollLoadStrategy::kEventFetch;
  spec.scroll_tuples_per_fetch = 30;
  spec.serve_threads = 4;
  spec.serve_clients = 6;
  spec.serve_queue_cap = 12;
  spec.admission = AdmissionPolicy::kSkipStale;
  spec.adaptive_admission = true;
  spec.time_compression = 25.0;
  spec.serve_trace = true;
  spec.serve_trace_buffer_spans = 2048;
  spec.serve_slow_query_ms = 75.0;
  spec.serve_metrics = true;
  spec.serve_stats_poll_ms = 100.0;
  spec.serve_net = true;
  spec.serve_net_port = 4242;
  auto parsed = ParseWorkloadSpec(WorkloadSpecToText(spec));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->name, spec.name);
  EXPECT_EQ(parsed->interface_kind, spec.interface_kind);
  EXPECT_EQ(parsed->device, spec.device);
  EXPECT_EQ(parsed->num_users, spec.num_users);
  EXPECT_EQ(parsed->seed, spec.seed);
  EXPECT_DOUBLE_EQ(parsed->kl_threshold, spec.kl_threshold);
  EXPECT_EQ(parsed->scroll_strategy, spec.scroll_strategy);
  EXPECT_EQ(parsed->scroll_tuples_per_fetch, spec.scroll_tuples_per_fetch);
  EXPECT_EQ(parsed->serve_threads, spec.serve_threads);
  EXPECT_EQ(parsed->serve_clients, spec.serve_clients);
  EXPECT_EQ(parsed->serve_queue_cap, spec.serve_queue_cap);
  EXPECT_EQ(parsed->admission, spec.admission);
  EXPECT_EQ(parsed->adaptive_admission, spec.adaptive_admission);
  EXPECT_DOUBLE_EQ(parsed->time_compression, spec.time_compression);
  EXPECT_EQ(parsed->serve_trace, spec.serve_trace);
  EXPECT_EQ(parsed->serve_trace_buffer_spans, spec.serve_trace_buffer_spans);
  EXPECT_DOUBLE_EQ(parsed->serve_slow_query_ms, spec.serve_slow_query_ms);
  EXPECT_EQ(parsed->serve_metrics, spec.serve_metrics);
  EXPECT_DOUBLE_EQ(parsed->serve_stats_poll_ms, spec.serve_stats_poll_ms);
  EXPECT_EQ(parsed->serve_net, spec.serve_net);
  EXPECT_EQ(parsed->serve_net_port, spec.serve_net_port);
}

// ----------------------------- Runner smoke -----------------------------

WorkloadSpec SmallCrossfilterSpec() {
  WorkloadSpec spec;
  spec.name = "test-crossfilter";
  spec.interface_kind = InterfaceKind::kCrossfilter;
  spec.device = DeviceType::kMouse;
  spec.engine = EngineProfile::kInMemoryColumnStore;
  spec.num_users = 2;
  spec.rows = 20000;
  spec.crossfilter_moves = 6;
  spec.seed = 5;
  return spec;
}

TEST(RunWorkloadTest, CrossfilterProducesConsistentReport) {
  auto report = RunWorkload(SmallCrossfilterSpec());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report->interaction_events, 0);
  EXPECT_GT(report->queries_generated, 0);
  EXPECT_EQ(report->queries_executed + report->queries_suppressed,
            report->queries_generated);
  EXPECT_GT(report->qif, 0.0);
  EXPECT_GT(report->median_latency_ms, 0.0);
  EXPECT_LE(report->median_latency_ms, report->p90_latency_ms);
  EXPECT_LE(report->p90_latency_ms, report->max_latency_ms);
  EXPECT_GT(report->mean_session_s, 0.0);
  const std::string text = report->ToText();
  EXPECT_NE(text.find("test-crossfilter"), std::string::npos);
  EXPECT_NE(text.find("LCV"), std::string::npos);
}

TEST(RunWorkloadTest, DeterministicForSameSpec) {
  auto a = RunWorkload(SmallCrossfilterSpec());
  auto b = RunWorkload(SmallCrossfilterSpec());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->queries_generated, b->queries_generated);
  EXPECT_DOUBLE_EQ(a->median_latency_ms, b->median_latency_ms);
  EXPECT_DOUBLE_EQ(a->lcv_fraction, b->lcv_fraction);
}

TEST(RunWorkloadTest, KlSuppressionReducesExecutedQueries) {
  WorkloadSpec raw = SmallCrossfilterSpec();
  WorkloadSpec kl = raw;
  kl.kl_threshold = 0.2;
  auto raw_report = RunWorkload(raw);
  auto kl_report = RunWorkload(kl);
  ASSERT_TRUE(raw_report.ok());
  ASSERT_TRUE(kl_report.ok());
  EXPECT_LT(kl_report->queries_executed, raw_report->queries_executed / 2);
}

TEST(RunWorkloadTest, ScrollWorkloadReportsStalls) {
  WorkloadSpec spec;
  spec.interface_kind = InterfaceKind::kInertialScroll;
  spec.device = DeviceType::kTouchTrackpad;
  spec.engine = EngineProfile::kDiskRowStore;
  spec.num_users = 2;
  spec.rows = 1000;
  spec.scroll_strategy = ScrollLoadStrategy::kTimerFetch;
  spec.scroll_tuples_per_fetch = 80;
  spec.seed = 6;
  auto report = RunWorkload(spec);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_TRUE(report->stalls.has_value());
  EXPECT_GT(report->interaction_events, 0);
  EXPECT_GT(report->queries_generated, 0);
}

TEST(RunWorkloadTest, ExploreWorkloadRuns) {
  WorkloadSpec spec;
  spec.interface_kind = InterfaceKind::kCompositeExplore;
  spec.engine = EngineProfile::kInMemoryColumnStore;
  spec.num_users = 1;
  spec.rows = 5000;
  spec.explore_session_minutes = 3.0;
  spec.seed = 7;
  auto report = RunWorkload(spec);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report->queries_executed, 0);
  EXPECT_GE(report->mean_session_s, 3.0 * 60.0);
}

TEST(RunWorkloadTest, LiveServerModeRunsCrossfilter) {
  WorkloadSpec spec = SmallCrossfilterSpec();
  spec.name = "live-crossfilter";
  spec.rows = 5000;
  spec.crossfilter_moves = 4;
  spec.serve_threads = 2;
  spec.serve_clients = 2;
  spec.admission = AdmissionPolicy::kSkipStale;
  spec.time_compression = 200.0;  // Seconds of think time -> milliseconds.
  auto report = RunWorkload(spec);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report->queries_generated, 0);
  EXPECT_GT(report->queries_executed, 0);
  EXPECT_GT(report->throughput_qps, 0.0);
  EXPECT_GT(report->qif, 0.0);
  const std::string text = report->ToText();
  EXPECT_NE(text.find("live-crossfilter"), std::string::npos);
}

TEST(RunWorkloadTest, LiveServerModeRejectsScroll) {
  WorkloadSpec spec;
  spec.interface_kind = InterfaceKind::kInertialScroll;
  spec.device = DeviceType::kTouchTrackpad;
  spec.rows = 1000;
  spec.serve_threads = 2;
  auto report = RunWorkload(spec);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
}

// ------------------------------ GestureGate ------------------------------

PointerTrace GateTrace(DeviceType device, uint64_t seed) {
  DeviceModel dev(device, Rng(seed));
  // 1 s of deliberate motion, then 3 s of dwell, repeated twice.
  auto path = [](SimTime t) -> std::pair<double, double> {
    const double s = std::fmod(t.seconds(), 4.0);
    const double base = t.seconds() >= 4.0 ? 300.0 : 0.0;
    return {base + std::min(s, 1.0) * 300.0, 0.0};
  };
  auto moving = [](SimTime t) {
    return std::fmod(t.seconds(), 4.0) < 1.0;
  };
  return dev.SamplePath(path, SimTime::Origin(),
                        SimTime::Origin() + Duration::Seconds(8.0), moving);
}

TEST(GestureGateTest, SuppressesLeapJitterKeepsMoves) {
  GestureGate gate;
  const auto report =
      EvaluateGestureGate(&gate, GateTrace(DeviceType::kLeapMotion, 21));
  // The gate keeps most deliberate motion and drops most dwell jitter.
  EXPECT_GT(report.Recall(), 0.6);
  EXPECT_GT(report.NoiseSuppression(), 0.6);
  EXPECT_GT(report.Precision(), 0.5);
}

TEST(GestureGateTest, MousePassesAlmostEverything) {
  GestureGate gate;
  const auto report =
      EvaluateGestureGate(&gate, GateTrace(DeviceType::kMouse, 22));
  // On a low-jitter device the gate barely interferes with real motion.
  EXPECT_GT(report.Recall(), 0.7);
}

TEST(GestureGateTest, ClassifyLabelsWholeTrace) {
  GestureGate gate;
  const auto trace = GateTrace(DeviceType::kTouchTablet, 23);
  const auto labels = gate.Classify(trace);
  ASSERT_EQ(labels.size(), trace.size());
  // Both states appear.
  bool saw_move = false, saw_dwell = false;
  for (const auto& l : labels) {
    saw_move |= (l.intent == GestureIntent::kIntentionalMove);
    saw_dwell |= (l.intent == GestureIntent::kDwell);
  }
  EXPECT_TRUE(saw_move);
  EXPECT_TRUE(saw_dwell);
}

TEST(GestureGateTest, EmptyAndNullInputs) {
  GestureGate gate;
  EXPECT_TRUE(gate.Classify({}).empty());
  const auto report = EvaluateGestureGate(nullptr, GateTrace(
                                              DeviceType::kMouse, 24));
  EXPECT_EQ(report.true_moves + report.true_dwells, 0);
  EXPECT_DOUBLE_EQ(report.Precision(), 0.0);
}

TEST(GestureGateTest, HysteresisPreventsChatter) {
  // A trace that sits right at the threshold should not flip state on
  // every sample: count transitions.
  GestureGate gate;
  const auto trace = GateTrace(DeviceType::kLeapMotion, 25);
  const auto labels = gate.Classify(trace);
  int transitions = 0;
  for (size_t i = 1; i < labels.size(); ++i) {
    transitions += (labels[i].intent != labels[i - 1].intent);
  }
  // 4 intended move/dwell phase changes; allow some slack but far fewer
  // transitions than samples.
  EXPECT_LT(transitions, static_cast<int>(labels.size()) / 10);
}

}  // namespace
}  // namespace ideval
