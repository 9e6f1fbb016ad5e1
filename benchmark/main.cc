// ideval_bench: one workload of the repository benchmark, end to end.
//
//   ideval_bench --workload=NAME --seed=N [--duration_s=30] [--warmup_s=5]
//                [--trace=0|1] [--traced_s=10] [--probe_queries=2000]
//                [--setups=5] [--json_out=FILE] [--trace_out=FILE]
//
// Phases: set-up (repeated --setups times, split around the measured
// window), an open-loop warm-up and measured window against the live
// QueryServer, the correctness check, and with --trace=1 a traced replay
// on a fresh server, a wire probe (in-process workloads), the
// single-threaded engine probe and a memory-bandwidth probe. Prints one
// `workload metric value unit` line per metric and, last, one JSON object:
// end-to-end metrics with --trace=0, per-layer metrics with --trace=1.
// Exits non-zero when an answer is wrong, a query fails, or the generator
// could not keep to its schedule.

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "engine/engine.h"
#include "load.h"
#include "net/net_server.h"
#include "obs/metrics_registry.h"
#include "serve/result_cache.h"
#include "workloads.h"

namespace idebench {
namespace {

using namespace ideval;

// ---------------------------------------------------------------- flags --

struct Flags {
  std::string workload;
  uint64_t seed = 1;
  double duration_s = 30.0;
  double warmup_s = 5.0;
  bool trace = false;
  double traced_s = 10.0;
  int probe_queries = 2000;
  int setups = 5;
  std::string json_out;
  std::string trace_out;
};

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "ideval_bench: %s\nusage: ideval_bench --workload=NAME "
               "--seed=N [--duration_s=S] [--warmup_s=S] [--trace=0|1] "
               "[--traced_s=S] [--probe_queries=N] [--setups=N] "
               "[--json_out=FILE] [--trace_out=FILE]\nworkloads: %s\n",
               why.c_str(), WorkloadNames().c_str());
  std::exit(2);
}

double ParseNumber(const std::string& name, const std::string& v, double lo,
                   double hi) {
  char* end = nullptr;
  const double x = std::strtod(v.c_str(), &end);
  if (v.empty() || *end != '\0' || !(x >= lo && x <= hi)) {
    Usage("bad value for --" + name + ": '" + v + "'");
  }
  return x;
}

Flags ParseFlags(int argc, char** argv) {
  Flags f;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) Usage("unexpected argument " + arg);
    std::string name = arg.substr(2), value;
    const size_t eq = name.find('=');
    if (eq != std::string::npos) {
      value = name.substr(eq + 1);
      name.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      Usage("missing value for " + arg);
    }
    if (name == "workload") {
      f.workload = value;
    } else if (name == "seed") {
      f.seed = static_cast<uint64_t>(ParseNumber(name, value, 0, 1e15));
    } else if (name == "duration_s") {
      f.duration_s = ParseNumber(name, value, 0.5, 600);
    } else if (name == "warmup_s") {
      f.warmup_s = ParseNumber(name, value, 0, 120);
    } else if (name == "trace") {
      f.trace = ParseNumber(name, value, 0, 1) != 0;
    } else if (name == "traced_s") {
      f.traced_s = ParseNumber(name, value, 0.5, 600);
    } else if (name == "probe_queries") {
      f.probe_queries = static_cast<int>(ParseNumber(name, value, 1, 1e6));
    } else if (name == "setups") {
      f.setups = static_cast<int>(ParseNumber(name, value, 1, 20));
    } else if (name == "json_out") {
      f.json_out = value;
    } else if (name == "trace_out") {
      f.trace_out = value;
    } else {
      Usage("unknown flag --" + name);
    }
  }
  if (FindWorkload(f.workload) == nullptr) {
    Usage("unknown workload '" + f.workload + "'");
  }
  return f;
}

// ------------------------------------------------------------- helpers --

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }

/// Linear-interpolated quantile; 0 for an empty sample.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double PeakRssMb() {
  rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB.
}

// --------------------------------------------------- system under test --

/// The fixed server configuration every workload runs against (recorded
/// in benchmark/README.md); only the admission policy varies.
ServerOptions MakeServerOptions(const WorkloadConfig& config,
                                MetricsRegistry* registry) {
  ServerOptions o;
  o.num_workers = 3;  // nproc - 1: one core stays with the generator.
  o.max_queue_per_session = 4;
  o.policy = config.policy;
  o.enable_shared_cache = true;
  o.shared_cache_bytes = 64 << 20;
  o.enable_metrics = true;
  o.metrics_registry = registry;
  o.stats_poll_ms = 1000.0;
  return o;
}

/// A running server with its sessions (one per user) and, for wire
/// workloads, its socket front-end and the generator's connections.
struct Serving {
  std::unique_ptr<MetricsRegistry> registry;
  std::unique_ptr<QueryServer> server;
  std::unique_ptr<NetServer> net;
  std::unique_ptr<WireClient> wire;
  std::vector<uint64_t> sessions;
};

Status AttachWire(Serving* s, int users) {
  IDEVAL_ASSIGN_OR_RETURN(s->net,
                          NetServer::Start(s->server.get(), NetServerOptions{}));
  IDEVAL_ASSIGN_OR_RETURN(s->wire, WireClient::Connect(s->net->port()));
  IDEVAL_ASSIGN_OR_RETURN(s->sessions, s->wire->OpenSessions(users));
  return Status::OK();
}

Result<Serving> StartServing(const WorkloadConfig& config,
                             const Engine* engine) {
  Serving s;
  s.registry = std::make_unique<MetricsRegistry>();
  IDEVAL_ASSIGN_OR_RETURN(
      s.server, QueryServer::Create(
                    engine, MakeServerOptions(config, s.registry.get())));
  if (config.over_wire) {
    IDEVAL_RETURN_NOT_OK(AttachWire(&s, config.users));
  } else {
    for (int u = 0; u < config.users; ++u) {
      s.sessions.push_back(s.server->OpenSession());
    }
  }
  return s;
}

Status Replay(const Serving& s, const std::vector<uint64_t>& sessions,
              const std::vector<Arrival>& arrivals,
              const ReplayOptions& options, std::vector<Slot>* slots) {
  if (s.wire != nullptr) {
    return s.wire->Replay(sessions, arrivals, options, slots);
  }
  return ReplayInProcess(s.server.get(), sessions, arrivals, options, slots);
}

/// Everything one set-up builds. Members are declared in dependency order
/// so destruction tears the server down before the engine and tables.
struct Deployment {
  WorkloadInputs inputs;
  Schedule schedule;
  std::unique_ptr<Engine> engine;
  Serving serving;
  double setup_s = 0.0;
  double register_s = 0.0;
};

Result<std::unique_ptr<Deployment>> SetUp(const WorkloadConfig& config,
                                          uint64_t seed, double window_start_s,
                                          double window_end_s) {
  const int64_t t0 = NowNs();
  auto d = std::make_unique<Deployment>();
  IDEVAL_ASSIGN_OR_RETURN(d->inputs, BuildInputs(config, seed));
  // Planning the arrivals is the benchmark's own work, not the system's,
  // so it is left out of the set-up time.
  const int64_t t1 = NowNs();
  d->schedule = MakeSchedule(d->inputs.users, config.offered_gps, seed,
                             window_start_s, window_end_s);
  const int64_t planning_ns = NowNs() - t1;

  EngineOptions eo;
  eo.profile = EngineProfile::kInMemoryColumnStore;
  eo.enable_zone_maps = true;
  d->engine = std::make_unique<Engine>(eo);
  const int64_t r0 = NowNs();
  for (const TablePtr& t : d->inputs.tables) {
    IDEVAL_RETURN_NOT_OK(d->engine->RegisterTable(t));
  }
  d->register_s = Seconds(NowNs() - r0);
  IDEVAL_ASSIGN_OR_RETURN(d->serving, StartServing(config, d->engine.get()));
  d->setup_s = Seconds(NowNs() - t0 - planning_ns);
  return d;
}

// ------------------------------------------------------------- metrics --

struct Metric {
  std::string name;
  double value;
  std::string unit;
  bool end_to_end;
};

/// What the slots of arrivals intended inside [w0, w1) add up to.
struct WindowStats {
  double seconds = 0.0;
  int64_t scheduled = 0;  ///< Arrivals intended in the window.
  int64_t sent = 0;       ///< Arrivals actually sent in the window.
  int64_t served = 0;     ///< Executed with every query answered.
  int64_t on_time = 0;    ///< Served before the user's next interaction.
  int64_t refused = 0;    ///< Rejected or throttled at the door.
  int64_t shed = 0;       ///< Admitted, then superseded (skip-stale).
  int64_t failed = 0;     ///< A query failed, or the submit/wire did.
  double service_ms_sum = 0.0;
  int64_t bytes = 0;
  std::vector<double> latency_ms, lag_ms, queue_ms, service_ms;
  /// Client-observed latency minus the server's own submit-to-done time.
  std::vector<double> beyond_us;
};

WindowStats Window(const std::vector<Arrival>& arrivals,
                   const std::vector<Slot>& slots, int64_t origin_ns,
                   int64_t w0_ns, int64_t w1_ns) {
  WindowStats w;
  w.seconds = Seconds(w1_ns - w0_ns);
  for (size_t i = 0; i < slots.size(); ++i) {
    const Slot& s = slots[i];
    if (s.sent_ns >= origin_ns + w0_ns && s.sent_ns < origin_ns + w1_ns) {
      ++w.sent;
    }
    if (arrivals[i].at_ns < w0_ns || arrivals[i].at_ns >= w1_ns) continue;
    ++w.scheduled;
    w.lag_ms.push_back(static_cast<double>(s.sent_ns - s.intended_ns) / 1e6);
    w.bytes += s.bytes;
    if (s.Refused()) {
      ++w.refused;
    } else if (s.submit_failed || s.queries_failed > 0) {
      ++w.failed;
    } else if (s.terminal != GroupTerminal::kExecuted) {
      ++w.shed;
    }
    if (!s.Served()) continue;
    ++w.served;
    const double latency_ms =
        static_cast<double>(s.done_ns - s.intended_ns) / 1e6;
    w.latency_ms.push_back(latency_ms);
    if (s.done_ns <= origin_ns + arrivals[i].next_at_ns) ++w.on_time;
    w.queue_ms.push_back(static_cast<double>(s.queue_us) / 1e3);
    w.service_ms.push_back(static_cast<double>(s.service_us) / 1e3);
    w.service_ms_sum += static_cast<double>(s.service_us) / 1e3;
    w.beyond_us.push_back(latency_ms * 1e3 -
                          static_cast<double>(s.latency_us));
  }
  return w;
}

// ---------------------------------------------------------------- spans --

/// One span of the traced replay or the engine probe. Spans of one
/// interaction share `id`; the root is `bench.interaction`.
struct SpanRec {
  const char* name;
  int64_t id;
  int32_t lane;
  int64_t start_ns;
  int64_t end_ns;
};

/// Root self time: the part of [start, end) no child span covers.
double SelfNs(const SpanRec& root, std::vector<SpanRec> children) {
  std::sort(children.begin(), children.end(),
            [](const SpanRec& a, const SpanRec& b) {
              return a.start_ns < b.start_ns;
            });
  int64_t covered = 0, cursor = root.start_ns;
  for (const SpanRec& c : children) {
    const int64_t s = std::max(c.start_ns, cursor);
    const int64_t e = std::min(c.end_ns, root.end_ns);
    if (e > s) {
      covered += e - s;
      cursor = e;
    }
  }
  return static_cast<double>(root.end_ns - root.start_ns - covered);
}

/// Lays one traced interaction out as spans. The server's queue and
/// service intervals come from its own report, laid out from the moment it
/// took the submission: the `Submit` call in process, estimated as the
/// midpoint of the ack round trip on the wire.
void InteractionSpans(const Slot& s, int64_t id, int32_t lane, bool wire,
                      std::vector<SpanRec>* out) {
  int64_t server_submit = s.sent_ns;
  if (wire) {
    out->push_back({"net.send", id, lane, s.sent_ns, s.sent_end_ns});
    out->push_back({"net.ack", id, lane, s.sent_end_ns, s.ack_ns});
    server_submit = s.sent_end_ns + (s.ack_ns - s.sent_end_ns) / 2;
  } else {
    out->push_back({"serve.submit", id, lane, s.sent_ns, s.sent_end_ns});
  }
  const int64_t finish = server_submit + s.latency_us * 1000;
  const int64_t service0 = finish - s.service_us * 1000;
  out->push_back({"serve.queue", id, lane, service0 - s.queue_us * 1000,
                  service0});
  out->push_back({"serve.service", id, lane, service0, finish});
  out->push_back(
      {wire ? "net.recv" : "serve.deliver", id, lane, finish, s.done_ns});
}

void WriteChromeTrace(const std::string& path,
                      const std::vector<SpanRec>& spans, int64_t origin_ns) {
  std::ofstream f(path);
  f << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  bool first = true;
  for (const SpanRec& s : spans) {
    if (!first) f << ",\n";
    first = false;
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%lld}}",
                  s.name, s.lane,
                  static_cast<double>(s.start_ns - origin_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                  static_cast<long long>(s.id));
    f << buf;
  }
  f << "]}\n";
}

// ---------------------------------------------------------- correctness --

bool SameBits(double a, double b) { return std::memcmp(&a, &b, 8) == 0; }

bool SameValue(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  return a.is_double() ? SameBits(a.dbl(), b.dbl()) : a == b;
}

bool SameResult(const QueryResultData& a, const QueryResultData& b) {
  if (a.index() != b.index()) return false;
  if (const auto* ra = std::get_if<RowSet>(&a)) {
    const auto& rb = std::get<RowSet>(b);
    if (ra->column_names != rb.column_names ||
        ra->rows.size() != rb.rows.size()) {
      return false;
    }
    for (size_t r = 0; r < ra->rows.size(); ++r) {
      if (ra->rows[r].size() != rb.rows[r].size()) return false;
      for (size_t c = 0; c < ra->rows[r].size(); ++c) {
        if (!SameValue(ra->rows[r][c], rb.rows[r][c])) return false;
      }
    }
    return true;
  }
  const auto& ha = std::get<FixedHistogram>(a);
  const auto& hb = std::get<FixedHistogram>(b);
  if (!SameBits(ha.lo(), hb.lo()) || !SameBits(ha.hi(), hb.hi()) ||
      !SameBits(ha.total(), hb.total()) ||
      ha.counts().size() != hb.counts().size()) {
    return false;
  }
  for (size_t i = 0; i < ha.counts().size(); ++i) {
    if (!SameBits(ha.counts()[i], hb.counts()[i])) return false;
  }
  return true;
}

/// Sends a seeded sample of up to `kVerifyQueries` distinct workload
/// queries through the serving path (8 per group, one group per fresh
/// session, so no admission policy can refuse or shed them) and compares
/// every answer bit for bit with an unsharded scalar engine over the same
/// tables. Returns the number of queries verified.
Result<int64_t> Verify(Deployment* d, uint64_t seed,
                       std::vector<std::string>* errors) {
  constexpr size_t kVerifyQueries = 1000;
  constexpr size_t kPerGroup = 8;
  std::vector<const Query*> all;
  for (const UserTrace& u : d->inputs.users) {
    for (const QueryGroup& g : u.groups) {
      for (const Query& q : g.queries) all.push_back(&q);
    }
  }
  Rng rng(seed ^ 0xC0FFEEULL);
  rng.Shuffle(&all);
  std::vector<Query> sample;
  std::unordered_set<std::string> keys;
  for (const Query* q : all) {
    if (sample.size() == kVerifyQueries) break;
    if (keys.insert(CanonicalQueryKey(*q)).second) sample.push_back(*q);
  }

  std::vector<std::vector<Query>> groups;
  for (size_t i = 0; i < sample.size(); i += kPerGroup) {
    groups.emplace_back(sample.begin() + i,
                        sample.begin() + std::min(sample.size(), i + kPerGroup));
  }
  std::vector<Arrival> arrivals;
  for (size_t g = 0; g < groups.size(); ++g) {
    arrivals.push_back(Arrival{0, std::numeric_limits<int64_t>::max(),
                               static_cast<int32_t>(g), &groups[g]});
  }
  std::vector<uint64_t> sessions;
  if (d->serving.wire != nullptr) {
    IDEVAL_ASSIGN_OR_RETURN(
        sessions,
        d->serving.wire->OpenSessions(static_cast<int>(groups.size())));
  } else {
    for (size_t g = 0; g < groups.size(); ++g) {
      sessions.push_back(d->serving.server->OpenSession());
    }
  }
  ReplayOptions ro;
  ro.origin_ns = NowNs();
  ro.capture_results = true;
  std::vector<Slot> slots;
  IDEVAL_RETURN_NOT_OK(Replay(d->serving, sessions, arrivals, ro, &slots));

  EngineOptions eo;
  eo.kernel_isa = KernelIsa::kScalar;
  Engine reference(eo);
  for (const TablePtr& t : d->inputs.tables) {
    IDEVAL_RETURN_NOT_OK(reference.RegisterTable(t));
  }
  std::vector<std::optional<QueryResultData>> expected(sample.size());
  std::vector<std::thread> threads;
  constexpr size_t kThreads = 3;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = t; i < sample.size(); i += kThreads) {
        auto r = reference.Execute(sample[i]);
        if (r.ok()) expected[i] = std::move(r->data);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  int64_t verified = 0;
  for (size_t g = 0; g < groups.size(); ++g) {
    const Slot& s = slots[g];
    if (!s.Served() || s.results.size() != groups[g].size()) {
      errors->push_back("verification group " + std::to_string(g) +
                        " was not served in full");
      continue;
    }
    for (size_t k = 0; k < groups[g].size(); ++k) {
      const size_t i = g * kPerGroup + k;
      if (!expected[i].has_value()) {
        errors->push_back("reference engine failed: " +
                          QueryToString(sample[i]));
      } else if (!s.results[k].has_value() ||
                 !SameResult(*s.results[k], *expected[i])) {
        errors->push_back("wrong answer: " + QueryToString(sample[i]));
      } else {
        ++verified;
      }
    }
  }
  return verified;
}

// --------------------------------------------------------------- probes --

struct EngineProbe {
  std::vector<double> exec_us;
  double tuples = 0, ns = 0, bytes = 0;
  int64_t blocks_scanned = 0, blocks_pruned = 0;
};

/// Single-threaded `Engine::Execute` on queries drawn (seeded) from the
/// window's arrivals, on the same engine, with nothing else running.
Result<EngineProbe> ProbeEngine(const Engine& engine,
                                const std::vector<Arrival>& window,
                                int queries, uint64_t seed,
                                std::vector<SpanRec>* spans) {
  EngineProbe p;
  Rng rng(seed ^ 0xE9617EULL);
  int64_t id = 1'000'000'000;
  while (static_cast<int>(p.exec_us.size()) < queries && !window.empty()) {
    const Arrival& a = window[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(window.size()) - 1))];
    for (const Query& q : *a.queries) {
      const int64_t t0 = NowNs();
      auto r = engine.Execute(q);
      const int64_t t1 = NowNs();
      if (!r.ok()) return r.status();
      spans->push_back({"engine.execute", id++, 0, t0, t1});
      p.exec_us.push_back(static_cast<double>(t1 - t0) / 1e3);
      p.ns += static_cast<double>(t1 - t0);
      p.tuples += static_cast<double>(r->stats.tuples_scanned);
      p.bytes += static_cast<double>(r->stats.tuples_scanned) *
                 static_cast<double>(ColumnsScanned(q)) * 8.0;
      p.blocks_scanned += r->stats.blocks_scanned;
      p.blocks_pruned += r->stats.blocks_pruned;
    }
  }
  return p;
}

/// Single-thread streaming read of a 256 MiB buffer, best of 3 passes, in
/// GB/s: the ceiling the engine's computed scan bandwidth is set against.
double StreamReadGbps() {
  std::vector<uint64_t> buf((256u << 20) / sizeof(uint64_t), 1);
  double best = 0.0;
  uint64_t sink = 0;
  for (int rep = 0; rep < 3; ++rep) {
    const int64_t t0 = NowNs();
    uint64_t sum = 0;
    for (uint64_t v : buf) sum += v;
    const int64_t t1 = NowNs();
    sink += sum;
    best = std::max(best, static_cast<double>(buf.size() * sizeof(uint64_t)) /
                              static_cast<double>(t1 - t0));
  }
  if (sink != 3 * buf.size()) std::fprintf(stderr, "bandwidth probe: bad sum\n");
  return best;
}

// --------------------------------------------------------------- output --

std::string Num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string MetricsJson(const std::vector<Metric>& metrics, bool end_to_end,
                        bool all) {
  std::string out = "{";
  for (const Metric& m : metrics) {
    if (!all && m.end_to_end != end_to_end) continue;
    if (out.size() > 1) out += ", ";
    out += JsonString(m.name) + ": {\"value\": " + Num(m.value) +
           ", \"unit\": " + JsonString(m.unit) + "}";
  }
  return out + "}";
}

// ----------------------------------------------------------------- main --

/// Everything a run reports, accumulated phase by phase.
struct Report {
  std::vector<Metric> metrics;
  std::vector<std::string> errors;  ///< Non-empty: the run is not correct.
  std::vector<SpanRec> spans;
  int64_t trace_origin_ns = 0;
  int64_t write_queue_shed = 0;
  int64_t protocol_errors = 0;

  void EndToEnd(const char* name, double v, const char* unit) {
    metrics.push_back({name, v, unit, true});
  }
  void Layer(const char* name, double v, const char* unit) {
    metrics.push_back({name, v, unit, false});
  }
  /// Folds a socket front-end's error counters in before it is torn down.
  void TallyWire(const Serving& s) {
    if (s.net == nullptr) return;
    const NetStatsSnapshot ns = s.net->Stats();
    write_queue_shed += ns.write_queue_shed;
    protocol_errors += ns.protocol_errors;
  }
};

std::vector<Arrival> ArrivalsBetween(const std::vector<Arrival>& arrivals,
                                     int64_t from_ns, int64_t to_ns) {
  auto at = [&](int64_t t) {
    return std::lower_bound(
        arrivals.begin(), arrivals.end(), t,
        [](const Arrival& a, int64_t x) { return a.at_ns < x; });
  };
  return std::vector<Arrival>(at(from_ns), at(to_ns));
}

/// The metrics of the untraced measured window.
void WindowMetrics(const WindowStats& w, const ResultCacheStats& cache0,
                   const ResultCacheStats& cache1, int workers,
                   Report* r) {
  const double sched = static_cast<double>(w.scheduled);
  r->EndToEnd("latency_p50_ms", Quantile(w.latency_ms, 0.5), "ms");
  r->EndToEnd("latency_p90_ms", Quantile(w.latency_ms, 0.9), "ms");
  r->EndToEnd("goodput_ips", Ratio(static_cast<double>(w.on_time), w.seconds),
              "interactions/s");
  r->EndToEnd("on_time_fraction",
              Ratio(static_cast<double>(w.on_time),
                    static_cast<double>(w.served)),
              "ratio");
  r->EndToEnd("served_fraction", Ratio(static_cast<double>(w.served), sched),
              "ratio");

  const double scheduled_ips = Ratio(sched, w.seconds);
  const double offered_ips = Ratio(static_cast<double>(w.sent), w.seconds);
  const double lag_p99_ms = Quantile(w.lag_ms, 0.99);
  r->Layer("bench.offered_ips", offered_ips, "1/s");
  r->Layer("bench.lag_p99_ms", lag_p99_ms, "ms");
  r->Layer("bench.latency_p99_ms", Quantile(w.latency_ms, 0.99), "ms");
  r->Layer("bench.samples", static_cast<double>(w.served), "count");
  r->Layer("serve.delivery_us_p50", Quantile(w.beyond_us, 0.5), "us");
  r->Layer("serve.queue_wait_ms_p50", Quantile(w.queue_ms, 0.5), "ms");
  r->Layer("serve.queue_wait_ms_p90", Quantile(w.queue_ms, 0.9), "ms");
  r->Layer("serve.service_ms_p50", Quantile(w.service_ms, 0.5), "ms");
  r->Layer("serve.service_ms_p90", Quantile(w.service_ms, 0.9), "ms");
  r->Layer("serve.busy_fraction",
           Ratio(w.service_ms_sum / 1e3, workers * w.seconds), "ratio");
  r->Layer("serve.shed_fraction", Ratio(static_cast<double>(w.shed), sched),
           "ratio");
  r->Layer("serve.rejected_fraction",
           Ratio(static_cast<double>(w.refused), sched), "ratio");
  r->Layer("serve.cache_hit_ratio",
           Ratio(static_cast<double>(cache1.hits + cache1.coalesced -
                                     cache0.hits - cache0.coalesced),
                 static_cast<double>(cache1.Lookups() - cache0.Lookups())),
           "ratio");
  r->Layer("serve.cache_coalesced",
           static_cast<double>(cache1.coalesced - cache0.coalesced), "count");
  r->Layer("serve.cache_evictions",
           static_cast<double>(cache1.evictions - cache0.evictions), "count");

  // Validity of the measurement itself: the generator kept its schedule.
  // The lag limit applies at the highest percentile with at least ten
  // arrivals beyond it, p99 from 1,000 arrivals up, so that a short window
  // is not failed by a single stall of the host.
  const double lag_q = std::min(
      0.99, 1.0 - 10.0 / static_cast<double>(std::max<size_t>(
                             w.lag_ms.size(), 10)));
  const double lag_limit_ms = Quantile(w.lag_ms, lag_q);
  if (lag_limit_ms > 5.0) {
    r->errors.push_back("generator lag p" + Num(100 * lag_q) + " " +
                        Num(lag_limit_ms) + " ms > 5 ms");
  }
  if (offered_ips < 0.98 * scheduled_ips) {
    r->errors.push_back("generator sent " + Num(offered_ips) +
                        "/s, more than 2% below the scheduled " +
                        Num(scheduled_ips) + "/s");
  }
  if (w.failed > 0) {
    r->errors.push_back(std::to_string(w.failed) + " interactions failed");
  }
}

/// The traced pass and the probes: a fresh server on the same engine
/// replays the start of the schedule with the benchmark's spans on; the
/// in-process workloads then replay 1 s of it over the wire (their
/// end-to-end numbers never cross a socket, so this is where their wire
/// figures come from); last, the engine and memory-bandwidth probes.
Status TracedMetrics(const Flags& flags, const WorkloadConfig& config,
                     const Deployment& d, const WindowStats& w, Report* r) {
  constexpr int64_t kWarmNs = 1'000'000'000;
  constexpr int64_t kWireProbeNs = 1'000'000'000;
  const std::vector<Arrival>& arrivals = d.schedule.arrivals;
  const int64_t traced_end =
      kWarmNs + static_cast<int64_t>(flags.traced_s * 1e9);
  const std::vector<Arrival> traced_arrivals =
      ArrivalsBetween(arrivals, 0, traced_end);
  IDEVAL_ASSIGN_OR_RETURN(Serving ts, StartServing(config, d.engine.get()));
  ReplayOptions to;
  to.origin_ns = NowNs() + 1'000'000;
  to.traced = true;
  std::vector<Slot> traced;
  IDEVAL_RETURN_NOT_OK(Replay(ts, ts.sessions, traced_arrivals, to, &traced));
  r->trace_origin_ns = to.origin_ns;
  const WindowStats tw =
      Window(traced_arrivals, traced, to.origin_ns, kWarmNs, traced_end);

  std::vector<Arrival> wire_arrivals;
  std::vector<Slot> wire_probe;
  ReplayOptions po;
  po.traced = true;
  if (!config.over_wire) {
    IDEVAL_RETURN_NOT_OK(AttachWire(&ts, config.users));
    wire_arrivals = ArrivalsBetween(arrivals, 0, kWireProbeNs);
    po.origin_ns = NowNs() + 1'000'000;
    IDEVAL_RETURN_NOT_OK(
        ts.wire->Replay(ts.sessions, wire_arrivals, po, &wire_probe));
  }
  r->TallyWire(ts);
  const std::vector<Slot>& wire_timed = config.over_wire ? traced : wire_probe;
  const WindowStats ww =
      config.over_wire
          ? w
          : Window(wire_arrivals, wire_probe, po.origin_ns, 0, kWireProbeNs);

  std::vector<double> submit_us, self_us, ack_us, enc_us, dec_us;
  for (size_t i = 0; i < traced.size(); ++i) {
    const Slot& s = traced[i];
    const int64_t at = traced_arrivals[i].at_ns;
    if (at < kWarmNs || at >= traced_end || !s.Served()) continue;
    const SpanRec root{"bench.interaction", static_cast<int64_t>(i),
                       traced_arrivals[i].user, s.intended_ns, s.done_ns};
    const size_t first = r->spans.size();
    InteractionSpans(s, root.id, root.lane, config.over_wire, &r->spans);
    self_us.push_back(
        SelfNs(root, std::vector<SpanRec>(r->spans.begin() + first,
                                          r->spans.end())) /
        1e3);
    r->spans.push_back(root);
    // On the wire the client's own submit cost is the frame write.
    submit_us.push_back(
        static_cast<double>(s.sent_end_ns - s.sent_ns - s.encode_ns) / 1e3);
  }
  for (const Slot& s : wire_timed) {
    if (!s.Served()) continue;
    ack_us.push_back(static_cast<double>(s.ack_ns - s.sent_end_ns) / 1e3);
    enc_us.push_back(static_cast<double>(s.encode_ns) / 1e3);
    dec_us.push_back(static_cast<double>(s.decode_ns) / 1e3);
  }

  const int64_t window_start = static_cast<int64_t>(flags.warmup_s * 1e9);
  IDEVAL_ASSIGN_OR_RETURN(
      EngineProbe probe,
      ProbeEngine(*d.engine,
                  ArrivalsBetween(arrivals, window_start,
                                  std::numeric_limits<int64_t>::max()),
                  flags.probe_queries, flags.seed, &r->spans));
  const double ceiling = StreamReadGbps();
  const double gbps = Ratio(probe.bytes, probe.ns);
  const double p50 = Quantile(w.latency_ms, 0.5);

  r->Layer("bench.interaction_self_us_p50", Quantile(self_us, 0.5), "us");
  r->Layer("engine.exec_us_p50", Quantile(probe.exec_us, 0.5), "us");
  r->Layer("engine.exec_us_p99", Quantile(probe.exec_us, 0.99), "us");
  r->Layer("engine.rows_per_query",
           Ratio(probe.tuples, static_cast<double>(probe.exec_us.size())),
           "rows");
  r->Layer("engine.ns_per_row", Ratio(probe.ns, probe.tuples), "ns");
  r->Layer("engine.pruned_fraction",
           Ratio(static_cast<double>(probe.blocks_pruned),
                 static_cast<double>(probe.blocks_pruned +
                                     probe.blocks_scanned)),
           "ratio");
  r->Layer("engine.gbps", gbps, "GB/s");
  r->Layer("engine.bw_ceiling_gbps", ceiling, "GB/s");
  r->Layer("engine.bw_fraction", Ratio(gbps, ceiling), "ratio");
  r->Layer("serve.submit_us_p50", Quantile(submit_us, 0.5), "us");
  r->Layer("serve.submit_us_p99", Quantile(submit_us, 0.99), "us");
  r->Layer("net.ack_rtt_us_p50", Quantile(ack_us, 0.5), "us");
  r->Layer("net.ack_rtt_us_p99", Quantile(ack_us, 0.99), "us");
  r->Layer("net.wire_ms_p50", Quantile(ww.beyond_us, 0.5) / 1e3, "ms");
  r->Layer("net.encode_us_p50", Quantile(enc_us, 0.5), "us");
  r->Layer("net.decode_us_p50", Quantile(dec_us, 0.5), "us");
  r->Layer("net.bytes_per_interaction",
           Ratio(static_cast<double>(ww.bytes),
                 static_cast<double>(ww.scheduled)),
           "B");
  r->Layer("obs.span_overhead_pct",
           Ratio(Quantile(tw.latency_ms, 0.5) - p50, p50) * 100.0, "%");
  return Status::OK();
}

int Run(const Flags& flags) {
  const WorkloadConfig& config = *FindWorkload(flags.workload);
  ReserveGeneratorCpu();
  const int64_t warm_ns = static_cast<int64_t>(flags.warmup_s * 1e9);
  const int64_t window_end_ns =
      warm_ns + static_cast<int64_t>(flags.duration_s * 1e9);
  auto fail = [](const Status& st) {
    std::fprintf(stderr, "ideval_bench: %s\n", st.ToString().c_str());
    return 2;
  };

  // Set-up, repeated so set-up time is reported as a median. The host's
  // speed drifts over seconds, so the repeats are split around the
  // measured window rather than run back to back; the last one before the
  // window is the deployment measured.
  std::vector<double> setup_s, data_s, traces_s, register_s;
  auto set_up = [&]() -> Result<std::unique_ptr<Deployment>> {
    IDEVAL_ASSIGN_OR_RETURN(
        std::unique_ptr<Deployment> r,
        SetUp(config, flags.seed, Seconds(warm_ns), Seconds(window_end_ns)));
    setup_s.push_back(r->setup_s);
    data_s.push_back(r->inputs.data_s);
    traces_s.push_back(r->inputs.traces_s);
    register_s.push_back(r->register_s);
    return r;
  };
  std::unique_ptr<Deployment> d;
  for (int k = 0; k < (flags.setups + 1) / 2; ++k) {
    d.reset();
    auto r = set_up();
    if (!r.ok()) return fail(r.status());
    d = std::move(r).ValueOrDie();
  }
  const std::vector<Arrival>& arrivals = d->schedule.arrivals;

  // The measured window, untraced.
  ResultCache* cache = d->serving.server->result_cache();
  ResultCacheStats cache0;
  ReplayOptions ro;
  ro.origin_ns = NowNs() + 1'000'000;
  ro.window_start_ns = warm_ns;
  ro.on_window_start = [&] { cache0 = cache->Stats(); };
  std::vector<Slot> slots;
  if (Status st = Replay(d->serving, d->serving.sessions, arrivals, ro, &slots);
      !st.ok()) {
    return fail(st);
  }
  const ResultCacheStats cache1 = cache->Stats();
  const double peak_rss_mb = PeakRssMb();
  const WindowStats w =
      Window(arrivals, slots, ro.origin_ns, warm_ns, window_end_ns);

  Report report;
  WindowMetrics(w, cache0, cache1, d->serving.server->options().num_workers,
                &report);
  report.EndToEnd("peak_rss_mb", peak_rss_mb, "MB");

  auto verified = Verify(d.get(), flags.seed, &report.errors);
  if (!verified.ok()) return fail(verified.status());
  report.Layer("bench.verified_queries", static_cast<double>(*verified),
               "count");
  report.TallyWire(d->serving);

  for (int k = 0; k < flags.setups / 2; ++k) {
    if (auto r = set_up(); !r.ok()) return fail(r.status());
  }
  report.EndToEnd("setup_s", Median(setup_s), "s");
  report.Layer("data.setup_s", Median(data_s), "s");
  report.Layer("workload.setup_s", Median(traces_s), "s");
  report.Layer("engine.register_s", Median(register_s), "s");

  if (flags.trace) {
    if (Status st = TracedMetrics(flags, config, *d, w, &report);
        !st.ok()) {
      return fail(st);
    }
    report.Layer("net.write_queue_shed",
                 static_cast<double>(report.write_queue_shed), "count");
    report.Layer("net.protocol_errors",
                 static_cast<double>(report.protocol_errors), "count");
  }
  if (report.write_queue_shed > 0 || report.protocol_errors > 0) {
    report.errors.push_back(
        "wire errors: " + std::to_string(report.write_queue_shed) +
        " shed completions, " + std::to_string(report.protocol_errors) +
        " protocol errors");
  }

  for (const Metric& x : report.metrics) {
    std::printf("%s %s %s %s\n", config.name, x.name.c_str(),
                Num(x.value).c_str(), x.unit.c_str());
  }
  for (const std::string& e : report.errors) {
    std::fprintf(stderr, "ideval_bench: %s: %s\n", config.name, e.c_str());
  }
  if (!flags.trace_out.empty() && !report.spans.empty()) {
    WriteChromeTrace(flags.trace_out, report.spans, report.trace_origin_ns);
  }
  const bool correct = report.errors.empty();
  // Door refusals and skip-stale sheds are the admission policy at work,
  // charged to served_fraction and goodput; a failure is an error.
  const int64_t attempted = w.scheduled;
  const int64_t failed = w.failed;
  if (!flags.json_out.empty()) {
    std::ofstream f(flags.json_out);
    f << "{\"workload\": " << JsonString(config.name)
      << ", \"seed\": " << flags.seed
      << ", \"duration_s\": " << Num(flags.duration_s)
      << ", \"warmup_s\": " << Num(flags.warmup_s)
      << ", \"trace\": " << (flags.trace ? 1 : 0)
      << ", \"time_compression\": " << Num(d->schedule.time_compression)
      << ", \"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"errors\": [";
    for (size_t i = 0; i < report.errors.size(); ++i) {
      f << (i ? ", " : "") << JsonString(report.errors[i]);
    }
    f << "], \"metrics\": " << MetricsJson(report.metrics, true, true)
      << "}\n";
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed),
              MetricsJson(report.metrics, !flags.trace, false).c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace idebench

int main(int argc, char** argv) {
  return idebench::Run(idebench::ParseFlags(argc, argv));
}
