#include "obs/trace.h"

#include <algorithm>
#include <cstdio>
#include <set>
#include <utility>

#include "common/text_table.h"

namespace ideval {

const char* SpanKindToString(SpanKind kind) {
  switch (kind) {
    case SpanKind::kGroup:
      return "group";
    case SpanKind::kAdmission:
      return "admission";
    case SpanKind::kQueueWait:
      return "queue_wait";
    case SpanKind::kCacheLookup:
      return "cache_lookup";
    case SpanKind::kExecute:
      return "execute";
    case SpanKind::kScatter:
      return "scatter";
    case SpanKind::kShardExec:
      return "shard_exec";
    case SpanKind::kMerge:
      return "merge";
    case SpanKind::kNetRecv:
      return "net_recv";
    case SpanKind::kNetSend:
      return "net_send";
    case SpanKind::kNetClientSend:
      return "net_client_send";
    case SpanKind::kNetClientRecv:
      return "net_client_recv";
  }
  return "unknown";
}

const char* GroupTerminalToString(GroupTerminal terminal) {
  switch (terminal) {
    case GroupTerminal::kExecuted:
      return "executed";
    case GroupTerminal::kShedThrottled:
      return "shed_throttled";
    case GroupTerminal::kRejected:
      return "rejected";
    case GroupTerminal::kShedCoalesced:
      return "shed_coalesced";
    case GroupTerminal::kShedStale:
      return "shed_stale";
  }
  return "unknown";
}

TraceBuffer::TraceBuffer(TraceOptions options)
    : options_(options), epoch_(std::chrono::steady_clock::now()) {
  if (options_.num_shards < 1) options_.num_shards = 1;
  if (options_.capacity_spans < options_.num_shards) {
    options_.capacity_spans = options_.num_shards;
  }
  const size_t per_shard = static_cast<size_t>(
      options_.capacity_spans / options_.num_shards);
  shards_.reserve(static_cast<size_t>(options_.num_shards));
  for (int i = 0; i < options_.num_shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->ring.resize(per_shard);
    shards_.push_back(std::move(shard));
  }
}

int64_t TraceBuffer::NowMicros() const {
  const auto elapsed = std::chrono::steady_clock::now() - epoch_;
  return std::chrono::duration_cast<std::chrono::microseconds>(elapsed)
      .count();
}

void TraceBuffer::Record(const SpanRecord& record) {
  Shard& shard = *shards_[record.trace_id % shards_.size()];
  std::lock_guard<std::mutex> lock(shard.mu);
  ++shard.recorded;
  if (shard.count == shard.ring.size()) {
    ++shard.dropped;  // The slot at `next` holds the oldest record.
  } else {
    ++shard.count;
  }
  shard.ring[shard.next] = record;
  shard.next = (shard.next + 1) % shard.ring.size();
}

std::vector<SpanRecord> TraceBuffer::Snapshot() const {
  std::vector<SpanRecord> out;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    // Oldest live record sits at `next` when full, at 0 otherwise.
    const size_t n = shard->ring.size();
    const size_t first =
        shard->count == n ? shard->next : 0;
    for (size_t i = 0; i < shard->count; ++i) {
      out.push_back(shard->ring[(first + i) % n]);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              if (a.start_us != b.start_us) return a.start_us < b.start_us;
              return a.span_id < b.span_id;
            });
  return out;
}

TraceBufferStats TraceBuffer::Stats() const {
  TraceBufferStats stats;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    stats.recorded += shard->recorded;
    stats.dropped += shard->dropped;
    stats.live += static_cast<int64_t>(shard->count);
    stats.capacity += static_cast<int64_t>(shard->ring.size());
  }
  return stats;
}

std::string TraceBuffer::ChromeTraceJson() const {
  return ideval::ChromeTraceJson(Snapshot());
}

Status TraceBuffer::ExportChromeTrace(const std::string& path) const {
  const std::string json = ChromeTraceJson();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::Internal("cannot open trace output file: " + path);
  }
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const bool closed_ok = std::fclose(f) == 0;
  if (written != json.size() || !closed_ok) {
    return Status::Internal("short write to trace output file: " + path);
  }
  return Status::OK();
}

TraceContext MakeTraceContext(TraceBuffer* buffer, uint64_t session_id) {
  TraceContext ctx;
  if (buffer == nullptr) return ctx;
  ctx.buffer = buffer;
  ctx.trace_id = buffer->NewTraceId();
  ctx.root_span_id = buffer->NewSpanId();
  ctx.session_id = session_id;
  return ctx;
}

Span::Span(const TraceContext& ctx, SpanKind kind, uint64_t parent_span_id,
           int64_t start_us)
    : buffer_(ctx.buffer) {
  if (buffer_ == nullptr) return;
  record_.trace_id = ctx.trace_id;
  record_.span_id = buffer_->NewSpanId();
  record_.parent_span_id = parent_span_id;
  record_.session_id = ctx.session_id;
  record_.kind = kind;
  record_.start_us = start_us >= 0 ? start_us : buffer_->NowMicros();
}

Span::Span(Span&& other) noexcept
    : buffer_(other.buffer_), record_(other.record_) {
  other.buffer_ = nullptr;
}

Span& Span::operator=(Span&& other) noexcept {
  if (this != &other) {
    End();
    buffer_ = other.buffer_;
    record_ = other.record_;
    other.buffer_ = nullptr;
  }
  return *this;
}

void Span::End(int64_t end_us) {
  if (buffer_ == nullptr) return;
  record_.end_us = end_us >= 0 ? end_us : buffer_->NowMicros();
  if (record_.end_us < record_.start_us) record_.end_us = record_.start_us;
  buffer_->Record(record_);
  buffer_ = nullptr;
}

void RecordSpan(const TraceContext& ctx, SpanKind kind, uint64_t span_id,
                uint64_t parent_span_id, int64_t start_us, int64_t end_us,
                uint32_t detail, int64_t attr0, int64_t attr1,
                int64_t attr2) {
  if (!ctx.enabled()) return;
  SpanRecord rec;
  rec.trace_id = ctx.trace_id;
  rec.span_id = span_id;
  rec.parent_span_id = parent_span_id;
  rec.session_id = ctx.session_id;
  rec.kind = kind;
  rec.detail = detail;
  rec.start_us = start_us;
  rec.end_us = end_us < start_us ? start_us : end_us;
  rec.attr0 = attr0;
  rec.attr1 = attr1;
  rec.attr2 = attr2;
  ctx.buffer->Record(rec);
}

namespace {

/// Disposition names for kAdmission spans; mirrors the server's
/// `SubmitDisposition` order (obs cannot depend on serve).
const char* DispositionName(uint32_t d) {
  switch (d) {
    case 0:
      return "enqueued";
    case 1:
      return "coalesced";
    case 2:
      return "throttled";
    case 3:
      return "rejected";
  }
  return "unknown";
}

/// Outcome names for kCacheLookup spans (0 = backend error).
const char* CacheOutcomeName(uint32_t d) {
  switch (d) {
    case 1:
      return "hit";
    case 2:
      return "miss";
    case 3:
      return "coalesced";
  }
  return "error";
}

/// Track ids within one session's process: the pipeline stages nest on
/// one track; each concurrent shard partial gets its own lane track.
constexpr int64_t kPipelineTid = 0;
constexpr int64_t kShardLaneBase = 100;

/// Client-side spans render as a separate Perfetto process per session
/// ("client session N"), offset so the client track can never collide
/// with a server-side session pid.
constexpr uint64_t kClientPidOffset = 1000000;

bool IsClientSpan(const SpanRecord& s) {
  return s.kind == SpanKind::kNetClientSend ||
         s.kind == SpanKind::kNetClientRecv;
}

uint64_t SpanPid(const SpanRecord& s) {
  return IsClientSpan(s) ? s.session_id + kClientPidOffset : s.session_id;
}

int64_t SpanTid(const SpanRecord& s) {
  if (s.kind == SpanKind::kShardExec) {
    return kShardLaneBase + static_cast<int64_t>(s.detail);
  }
  return kPipelineTid;
}

void AppendCommon(std::string* out, const SpanRecord& s, int64_t tid) {
  *out += StrFormat(
      "{\"name\":\"%s\",\"cat\":\"serve\",\"ph\":\"X\",\"pid\":%llu,"
      "\"tid\":%lld,\"ts\":%lld,\"dur\":%lld,\"args\":{"
      "\"trace_id\":%llu,\"span_id\":%llu,\"parent_span_id\":%llu",
      SpanKindToString(s.kind),
      static_cast<unsigned long long>(SpanPid(s)),
      static_cast<long long>(tid), static_cast<long long>(s.start_us),
      static_cast<long long>(s.end_us - s.start_us),
      static_cast<unsigned long long>(s.trace_id),
      static_cast<unsigned long long>(s.span_id),
      static_cast<unsigned long long>(s.parent_span_id));
}

void AppendKindArgs(std::string* out, const SpanRecord& s) {
  switch (s.kind) {
    case SpanKind::kGroup:
      *out += StrFormat(
          ",\"terminal\":\"%s\",\"lcv\":%s,\"queries_ok\":%lld,"
          "\"queries_failed\":%lld,\"cache_hits\":%lld",
          GroupTerminalToString(
              static_cast<GroupTerminal>(s.detail & 0xffu)),
          (s.detail & kGroupLcvBit) != 0 ? "true" : "false",
          static_cast<long long>(s.attr0), static_cast<long long>(s.attr1),
          static_cast<long long>(s.attr2));
      break;
    case SpanKind::kAdmission:
      *out += StrFormat(
          ",\"disposition\":\"%s\",\"load_state\":%lld,"
          "\"queue_depth\":%lld,\"load_factor\":%.3f",
          DispositionName(s.detail), static_cast<long long>(s.attr0),
          static_cast<long long>(s.attr1),
          static_cast<double>(s.attr2) / 1000.0);
      break;
    case SpanKind::kQueueWait:
      *out += StrFormat(",\"queue_depth\":%lld",
                        static_cast<long long>(s.attr0));
      break;
    case SpanKind::kCacheLookup:
      *out += StrFormat(",\"outcome\":\"%s\"", CacheOutcomeName(s.detail));
      break;
    case SpanKind::kExecute:
      *out += StrFormat(
          ",\"tuples_scanned\":%lld,\"blocks_scanned\":%lld,"
          "\"blocks_pruned\":%lld",
          static_cast<long long>(s.attr0), static_cast<long long>(s.attr1),
          static_cast<long long>(s.attr2));
      break;
    case SpanKind::kScatter:
      *out += StrFormat(
          ",\"subtasks\":%lld,\"planned\":%lld,\"plan_failed\":%lld",
          static_cast<long long>(s.attr0), static_cast<long long>(s.attr1),
          static_cast<long long>(s.attr2));
      break;
    case SpanKind::kShardExec:
      *out += StrFormat(
          ",\"shard\":%lld,\"blocks_scanned\":%lld,\"blocks_pruned\":%lld",
          static_cast<long long>(s.attr0), static_cast<long long>(s.attr1),
          static_cast<long long>(s.attr2));
      break;
    case SpanKind::kMerge:
      *out += StrFormat(",\"merged\":%lld,\"failed\":%lld",
                        static_cast<long long>(s.attr0),
                        static_cast<long long>(s.attr1));
      break;
    case SpanKind::kNetRecv:
    case SpanKind::kNetSend:
    case SpanKind::kNetClientSend:
    case SpanKind::kNetClientRecv:
      *out += StrFormat(
          ",\"opcode\":%lld,\"bytes\":%lld,\"request_id\":%lld",
          static_cast<long long>(s.detail), static_cast<long long>(s.attr0),
          static_cast<long long>(s.attr1));
      break;
  }
}

}  // namespace

std::string ChromeTraceJson(const std::vector<SpanRecord>& spans) {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  // Name every (process, thread) track so Perfetto shows "session N" /
  // "pipeline" / "shard lane K" instead of bare ids.
  std::set<uint64_t> pids;
  std::set<std::pair<uint64_t, int64_t>> tids;
  for (const SpanRecord& s : spans) {
    pids.insert(SpanPid(s));
    tids.insert({SpanPid(s), SpanTid(s)});
  }
  for (uint64_t pid : pids) {
    const bool client = pid >= kClientPidOffset;
    out += StrFormat(
        "%s{\"ph\":\"M\",\"pid\":%llu,\"name\":\"process_name\","
        "\"args\":{\"name\":\"%s %llu\"}}",
        first ? "" : ",", static_cast<unsigned long long>(pid),
        client ? "client session" : "session",
        static_cast<unsigned long long>(
            client ? pid - kClientPidOffset : pid));
    first = false;
  }
  for (const auto& [pid, tid] : tids) {
    std::string name =
        tid == kPipelineTid
            ? std::string("pipeline")
            : StrFormat("shard lane %lld",
                        static_cast<long long>(tid - kShardLaneBase));
    out += StrFormat(
        "%s{\"ph\":\"M\",\"pid\":%llu,\"tid\":%lld,"
        "\"name\":\"thread_name\",\"args\":{\"name\":\"%s\"}}",
        first ? "" : ",", static_cast<unsigned long long>(pid),
        static_cast<long long>(tid), name.c_str());
    first = false;
  }
  for (const SpanRecord& s : spans) {
    if (!first) out += ",";
    first = false;
    AppendCommon(&out, s, SpanTid(s));
    AppendKindArgs(&out, s);
    out += "}}";
  }
  out += "]}";
  return out;
}

}  // namespace ideval
