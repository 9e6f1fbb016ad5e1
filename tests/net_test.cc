#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "net/codec.h"
#include "net/http_endpoint.h"
#include "net/net_client.h"
#include "net/net_load_driver.h"
#include "net/net_server.h"
#include "net/wire.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "serve/load_driver.h"
#include "serve/server.h"

namespace ideval {
namespace {

// ----------------------------- wire layer -----------------------------

TEST(WireTest, PrimitiveRoundTrip) {
  std::vector<uint8_t> buf;
  WireWriter w(&buf);
  w.U8(0xAB);
  w.U16(0xD11D);
  w.U32(0xDEADBEEF);
  w.U64(0x0123456789ABCDEFull);
  w.I64(-42);
  w.F64(-1234.5);
  w.Str("hello");
  w.Str("");  // Empty strings are legal.

  WireReader r(buf.data(), buf.size());
  EXPECT_EQ(r.U8(), 0xAB);
  EXPECT_EQ(r.U16(), 0xD11D);
  EXPECT_EQ(r.U32(), 0xDEADBEEFu);
  EXPECT_EQ(r.U64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.I64(), -42);
  EXPECT_EQ(r.F64(), -1234.5);
  EXPECT_EQ(r.Str(), "hello");
  EXPECT_EQ(r.Str(), "");
  EXPECT_TRUE(r.Done());
}

TEST(WireTest, FrameRoundTrip) {
  std::vector<uint8_t> buf;
  WireWriter w(&buf);
  const size_t f = w.BeginFrame(Opcode::kSubmitGroup, 7, 99);
  w.U64(12345);
  w.EndFrame(f);
  ASSERT_EQ(buf.size(), kWireHeaderBytes + 8);

  FrameHeader h;
  ASSERT_TRUE(DecodeFrameHeader(buf.data(), buf.size(), &h));
  EXPECT_EQ(h.version, kWireVersion);
  EXPECT_EQ(h.opcode, Opcode::kSubmitGroup);
  EXPECT_EQ(h.session_id, 7u);
  EXPECT_EQ(h.request_id, 99u);
  EXPECT_EQ(h.payload_len, 8u);

  // Frames batch: a second frame appends after the first.
  const size_t f2 = w.BeginFrame(Opcode::kPing, 0, 100);
  w.EndFrame(f2);
  EXPECT_EQ(buf.size(), 2 * kWireHeaderBytes + 8);
  ASSERT_TRUE(DecodeFrameHeader(buf.data() + kWireHeaderBytes + 8,
                                kWireHeaderBytes, &h));
  EXPECT_EQ(h.opcode, Opcode::kPing);
  EXPECT_EQ(h.payload_len, 0u);
}

TEST(WireTest, HeaderRejectsCorruption) {
  std::vector<uint8_t> buf;
  WireWriter w(&buf);
  w.EndFrame(w.BeginFrame(Opcode::kPing, 0, 1));
  FrameHeader h;
  ASSERT_TRUE(DecodeFrameHeader(buf.data(), buf.size(), &h));

  auto corrupted = buf;
  corrupted[0] ^= 0xFF;  // Magic.
  EXPECT_FALSE(DecodeFrameHeader(corrupted.data(), corrupted.size(), &h));

  corrupted = buf;
  corrupted[2] = 99;  // Version.
  EXPECT_FALSE(DecodeFrameHeader(corrupted.data(), corrupted.size(), &h));

  corrupted = buf;
  const uint32_t huge = kMaxPayloadBytes + 1;
  std::memcpy(&corrupted[20], &huge, 4);  // Host LE in CI; value checked.
  EXPECT_FALSE(DecodeFrameHeader(corrupted.data(), corrupted.size(), &h));
}

TEST(WireTest, ReaderNeverOverReads) {
  std::vector<uint8_t> buf;
  WireWriter w(&buf);
  w.U32(7);
  WireReader r(buf.data(), buf.size());
  EXPECT_EQ(r.U64(), 0u);  // 8 > 4: flips ok, returns zero.
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.Done());

  // A string length prefix larger than the remaining payload.
  buf.clear();
  WireWriter w2(&buf);
  w2.U32(1000);  // Claims 1000 bytes follow; none do.
  WireReader r2(buf.data(), buf.size());
  EXPECT_EQ(r2.Str(), "");
  EXPECT_FALSE(r2.ok());

  // CanContain guards hostile count prefixes before any allocation.
  WireReader r3(buf.data(), buf.size());
  EXPECT_TRUE(r3.CanContain(1, 4));
  EXPECT_FALSE(r3.CanContain(2, 4));
  EXPECT_FALSE(r3.ok());
}

// ----------------------------- codecs ---------------------------------

std::vector<Query> AllShapesGroup() {
  SelectQuery sel;
  sel.table = "movies";
  sel.columns = {"title", "rating"};
  sel.predicates.push_back(RangePredicate{"rating", 7.5, 10.0});
  sel.predicates.push_back(StringEqPredicate{"genre", "drama"});
  sel.predicates.push_back(StringInPredicate{"country", {"de", "fr", ""}});
  sel.limit = 58;
  sel.offset = 116;

  HistogramQuery hist;
  hist.table = "dataroad";
  hist.bin_column = "speed";
  hist.bin_lo = -3.5;
  hist.bin_hi = 120.25;
  hist.bins = 20;
  hist.predicates.push_back(RangePredicate{"accel", -1.0, 1.0});

  JoinPageQuery join;
  join.left_table = "imdbrating";
  join.right_table = "movie";
  join.join_column = "id";
  join.limit = 100;
  join.offset = 400;

  return {sel, hist, join};
}

TEST(CodecTest, QueryGroupRoundTrip) {
  const std::vector<Query> group = AllShapesGroup();
  std::vector<uint8_t> buf;
  WireWriter w(&buf);
  EncodeQueryGroup(&w, group);

  WireReader r(buf.data(), buf.size());
  auto decoded = DecodeQueryGroup(&r);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_TRUE(r.Done());
  EXPECT_EQ(*decoded, group);
}

TEST(CodecTest, EmptyQueryGroupRoundTrip) {
  std::vector<uint8_t> buf;
  WireWriter w(&buf);
  EncodeQueryGroup(&w, {});
  WireReader r(buf.data(), buf.size());
  auto decoded = DecodeQueryGroup(&r);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(r.Done());
  EXPECT_TRUE(decoded->empty());
}

TEST(CodecTest, TruncatedQueryGroupFailsCleanly) {
  std::vector<uint8_t> buf;
  WireWriter w(&buf);
  EncodeQueryGroup(&w, AllShapesGroup());
  // Every strict prefix must fail to decode as a complete payload: either
  // the decoder errors, or it succeeds without consuming exactly the
  // frame (which the server rejects via `Done()`). Never a crash or an
  // over-read (ASan enforces the latter).
  for (size_t len = 0; len < buf.size(); ++len) {
    WireReader r(buf.data(), len);
    auto decoded = DecodeQueryGroup(&r);
    EXPECT_FALSE(decoded.ok() && r.Done()) << "prefix " << len;
  }
}

TEST(CodecTest, CorruptedQueryGroupNeverCrashes) {
  std::vector<uint8_t> buf;
  WireWriter w(&buf);
  EncodeQueryGroup(&w, AllShapesGroup());
  // Single-byte corruption at every position: decoding must stay memory-
  // safe. (Corrupting a float or a string byte can still decode — that is
  // the frame's own lookout; the property under test is no crash and no
  // over-read.)
  for (size_t pos = 0; pos < buf.size(); ++pos) {
    auto corrupted = buf;
    corrupted[pos] ^= 0xFF;
    WireReader r(corrupted.data(), corrupted.size());
    auto decoded = DecodeQueryGroup(&r);
    (void)decoded;
  }
}

TEST(CodecTest, HostileCountPrefixRejectedWithoutAllocation) {
  // A payload claiming 2^32-16 queries in 4 bytes: `CanContain` must
  // reject it before any resize/reserve, so this returns an error fast
  // instead of attempting a giant allocation.
  std::vector<uint8_t> buf;
  WireWriter w(&buf);
  w.U32(0xFFFFFFF0u);
  WireReader r(buf.data(), buf.size());
  auto decoded = DecodeQueryGroup(&r);
  EXPECT_FALSE(decoded.ok());
}

TEST(CodecTest, SubmitAckRoundTripAndValidation) {
  SubmitAckPayload ack;
  ack.seq = 41;
  ack.disposition = SubmitDisposition::kThrottled;
  ack.load_state = LoadState::kOverloaded;
  ack.load_factor = 2.25;
  std::vector<uint8_t> buf;
  WireWriter w(&buf);
  EncodeSubmitAck(&w, ack);
  WireReader r(buf.data(), buf.size());
  auto decoded = DecodeSubmitAck(&r);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(r.Done());
  EXPECT_EQ(*decoded, ack);

  // An out-of-range disposition enum is a malformed payload, not UB.
  auto corrupted = buf;
  corrupted[8] = 0x77;  // Disposition byte follows the u64 seq.
  WireReader r2(corrupted.data(), corrupted.size());
  EXPECT_FALSE(DecodeSubmitAck(&r2).ok());
}

TEST(CodecTest, CompletionRoundTripWithResults) {
  CompletionPayload done;
  done.seq = 9;
  done.terminal = GroupTerminal::kExecuted;
  done.lcv = true;
  done.queries_executed = 2;
  done.queries_failed = 1;
  done.cache_hits = 1;
  done.queue_wait_us = 1500;
  done.service_us = 800;
  done.latency_us = 2300;
  RowSet rows;
  rows.column_names = {"title", "year", "rating"};
  rows.rows.push_back({Value("Heat"), Value(int64_t{1995}), Value(8.3)});
  rows.rows.push_back({Value(""), Value(int64_t{-1}), Value(0.0)});
  done.results.emplace_back(rows);
  done.results.emplace_back(std::nullopt);  // A failed query's slot.
  auto hist = FixedHistogram::FromCounts(0.0, 10.0, {1.0, 0.0, 5.5});
  ASSERT_TRUE(hist.ok());
  done.results.emplace_back(*hist);

  std::vector<uint8_t> buf;
  WireWriter w(&buf);
  EncodeCompletion(&w, done);
  WireReader r(buf.data(), buf.size());
  auto decoded = DecodeCompletion(&r);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(r.Done());
  EXPECT_EQ(decoded->seq, done.seq);
  EXPECT_EQ(decoded->terminal, done.terminal);
  EXPECT_EQ(decoded->lcv, done.lcv);
  EXPECT_EQ(decoded->queries_executed, done.queries_executed);
  EXPECT_EQ(decoded->queries_failed, done.queries_failed);
  EXPECT_EQ(decoded->cache_hits, done.cache_hits);
  EXPECT_EQ(decoded->queue_wait_us, done.queue_wait_us);
  EXPECT_EQ(decoded->service_us, done.service_us);
  EXPECT_EQ(decoded->latency_us, done.latency_us);
  ASSERT_EQ(decoded->results.size(), 3u);
  ASSERT_TRUE(decoded->results[0].has_value());
  EXPECT_EQ(std::get<RowSet>(*decoded->results[0]), rows);
  EXPECT_FALSE(decoded->results[1].has_value());
  ASSERT_TRUE(decoded->results[2].has_value());
  EXPECT_EQ(std::get<FixedHistogram>(*decoded->results[2]), *hist);

  // Truncation sweep over the result-bearing payload.
  for (size_t len = 0; len < buf.size(); ++len) {
    WireReader rt(buf.data(), len);
    auto d = DecodeCompletion(&rt);
    EXPECT_FALSE(d.ok() && rt.Done()) << "prefix " << len;
  }
}

TEST(CodecTest, V1CompletionEncodingIsUnchanged) {
  // Frozen bytes: a v1 completion frame (rows, a failed slot, a
  // histogram) as every wire peer encodes it. Any change here breaks
  // deployed peers.
  CompletionPayload done;
  done.seq = 9;
  done.terminal = GroupTerminal::kExecuted;
  done.lcv = true;
  done.queries_executed = 2;
  done.queries_failed = 1;
  done.cache_hits = 1;
  done.queue_wait_us = 1500;
  done.service_us = 800;
  done.latency_us = 2300;
  RowSet rows;
  rows.column_names = {"title", "year"};
  rows.rows.push_back({Value("Heat"), Value(int64_t{1995})});
  done.results.emplace_back(rows);
  done.results.emplace_back(std::nullopt);  // A failed query's slot.
  auto hist = FixedHistogram::FromCounts(0.0, 10.0, {1.0, 5.5});
  ASSERT_TRUE(hist.ok());
  done.results.emplace_back(*hist);
  std::vector<uint8_t> completion;
  WireWriter wc(&completion);
  const size_t fc = wc.BeginFrame(Opcode::kGroupComplete, 7, 11);
  EncodeCompletion(&wc, done);
  wc.EndFrame(fc);
  const std::vector<uint8_t> golden_completion = {
      0x1d, 0xd1, 0x01, 0x14, 0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x0b, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x96, 0x00, 0x00, 0x00,
      0x09, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x02, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xdc, 0x05,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x20, 0x03, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0xfc, 0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0x00,
      0x00, 0x00, 0x01, 0x01, 0x02, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00,
      0x74, 0x69, 0x74, 0x6c, 0x65, 0x04, 0x00, 0x00, 0x00, 0x79, 0x65, 0x61,
      0x72, 0x01, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x03, 0x04, 0x00,
      0x00, 0x00, 0x48, 0x65, 0x61, 0x74, 0x01, 0xcb, 0x07, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x01, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x24, 0x40, 0x02, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf0, 0x3f, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x16, 0x40};
  EXPECT_EQ(completion, golden_completion);

  // The frame decodes back, and the completion reads the same under
  // either understood version.
  FrameHeader h;
  ASSERT_TRUE(DecodeFrameHeader(completion.data(), completion.size(), &h));
  for (uint8_t version : {kWireVersion, kWireVersionTrace}) {
    WireReader r(completion.data() + kWireHeaderBytes, h.payload_len);
    auto decoded = DecodeCompletion(&r, version);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_TRUE(r.Done());
    ASSERT_EQ(decoded->results.size(), 3u);
    EXPECT_EQ(std::get<RowSet>(*decoded->results[0]), rows);
    EXPECT_FALSE(decoded->results[1].has_value());
    EXPECT_EQ(std::get<FixedHistogram>(*decoded->results[2]), *hist);
  }
}

TEST(CodecTest, V3SubmitEncodingIsUnchanged) {
  // Frozen bytes: a v3 traced submit frame as every traced client
  // encodes it.
  HistogramQuery q;
  q.table = "road";
  q.bin_column = "y";
  q.bin_lo = -0.5;
  q.bin_hi = 2.25;
  q.bins = 4;
  q.predicates = {RangePredicate{"x", -1.5, 8.0}};
  std::vector<uint8_t> submit;
  WireWriter ws(&submit);
  const size_t fs =
      ws.BeginFrame(Opcode::kSubmitGroup, 7, 12, kWireVersionTrace);
  ws.U64(0x0123456789abcdefULL);  // The client's trace id leads in v3.
  EncodeQueryGroup(&ws, {Query(q)});
  ws.EndFrame(fs);
  const std::vector<uint8_t> golden_submit = {
      0x1d, 0xd1, 0x03, 0x04, 0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x0c, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x4c, 0x00, 0x00, 0x00,
      0xef, 0xcd, 0xab, 0x89, 0x67, 0x45, 0x23, 0x01, 0x01, 0x00, 0x00, 0x00,
      0x02, 0x04, 0x00, 0x00, 0x00, 0x72, 0x6f, 0x61, 0x64, 0x01, 0x00, 0x00,
      0x00, 0x79, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xe0, 0xbf, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x02, 0x40, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x01, 0x01, 0x00, 0x00, 0x00, 0x78,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf8, 0xbf, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x20, 0x40};
  EXPECT_EQ(submit, golden_submit);

  FrameHeader h;
  ASSERT_TRUE(DecodeFrameHeader(submit.data(), submit.size(), &h));
  EXPECT_EQ(h.version, kWireVersionTrace);
  WireReader r(submit.data() + kWireHeaderBytes, h.payload_len);
  EXPECT_EQ(r.U64(), 0x0123456789abcdefULL);
  auto queries = DecodeQueryGroup(&r);
  ASSERT_TRUE(queries.ok()) << queries.status().ToString();
  EXPECT_TRUE(r.Done());
  ASSERT_EQ(queries->size(), 1u);
  EXPECT_EQ(std::get<HistogramQuery>((*queries)[0]), q);
}

TEST(WireTest, HeaderAcceptsV1AndV3Only) {
  std::vector<uint8_t> buf;
  WireWriter w(&buf);
  w.EndFrame(w.BeginFrame(Opcode::kGroupComplete, 1, 2));
  FrameHeader h;
  ASSERT_TRUE(DecodeFrameHeader(buf.data(), buf.size(), &h));
  EXPECT_EQ(h.version, kWireVersion);

  auto corrupted = buf;
  corrupted[2] = kWireVersionTrace;  // Newest (trace-id) version: valid.
  EXPECT_TRUE(DecodeFrameHeader(corrupted.data(), corrupted.size(), &h));
  EXPECT_EQ(h.version, kWireVersionTrace);
  // Version 2 (approximate completions) is retired: malformed like any
  // other unknown version.
  for (uint8_t version : {0, 2, kWireVersionTrace + 1, 0xff}) {
    corrupted[2] = version;
    EXPECT_FALSE(DecodeFrameHeader(corrupted.data(), corrupted.size(), &h))
        << "version " << int{version};
  }
}

TEST(CodecTest, ShedCompletionHasNoResults) {
  CompletionPayload done;
  done.seq = 3;
  done.terminal = GroupTerminal::kShedStale;
  std::vector<uint8_t> buf;
  WireWriter w(&buf);
  EncodeCompletion(&w, done);
  WireReader r(buf.data(), buf.size());
  auto decoded = DecodeCompletion(&r);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(r.Done());
  EXPECT_EQ(decoded->terminal, GroupTerminal::kShedStale);
  EXPECT_TRUE(decoded->results.empty());
}

TEST(CodecTest, ErrorRoundTrip) {
  std::vector<uint8_t> buf;
  WireWriter w(&buf);
  EncodeError(&w, WireErrorCode::kWriteQueueShed, "slow reader");
  WireReader r(buf.data(), buf.size());
  auto decoded = DecodeError(&r);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(r.Done());
  EXPECT_EQ(decoded->code, WireErrorCode::kWriteQueueShed);
  EXPECT_EQ(decoded->message, "slow reader");
}

// --------------------------- end to end -------------------------------

TablePtr MakeNetTable(int64_t rows) {
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

/// A live engine + `QueryServer` + `NetServer` on an ephemeral loopback
/// port, torn down front-to-back.
class NetE2ETest : public ::testing::Test {
 protected:
  void Start(ServerOptions sopts = {}, NetServerOptions nopts = {},
             int64_t rows = 1000) {
    rows_ = rows;
    engine_ = std::make_unique<Engine>(EngineOptions{});
    ASSERT_TRUE(engine_->RegisterTable(MakeNetTable(rows)).ok());
    auto server = QueryServer::Create(engine_.get(), sopts);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    server_ = std::move(server).ValueOrDie();
    auto net = NetServer::Start(server_.get(), nopts);
    ASSERT_TRUE(net.ok()) << net.status().ToString();
    net_ = std::move(net).ValueOrDie();
  }

  void TearDown() override {
    if (net_ != nullptr) net_->Stop();
    if (server_ != nullptr) server_->Stop();
  }

  std::unique_ptr<NetClient> MustConnect() {
    auto client = NetClient::Connect("127.0.0.1", net_->port());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(client).ValueOrDie();
  }

  int64_t rows_ = 0;
  std::unique_ptr<Engine> engine_;
  std::unique_ptr<QueryServer> server_;
  std::unique_ptr<NetServer> net_;
};

TEST_F(NetE2ETest, StartValidatesOptions) {
  EXPECT_EQ(NetServer::Start(nullptr, {}).status().code(),
            StatusCode::kInvalidArgument);
  Start();
  NetServerOptions bad;
  bad.port = -1;
  EXPECT_EQ(NetServer::Start(server_.get(), bad).status().code(),
            StatusCode::kInvalidArgument);
  bad.port = 0;
  bad.max_write_queue_bytes = 4;  // Below one frame header.
  EXPECT_EQ(NetServer::Start(server_.get(), bad).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_GT(net_->port(), 0);  // Ephemeral port resolved.

  EXPECT_FALSE(NetClient::Connect("127.0.0.1", 0).ok());
  // Connecting to a port nobody listens on fails with a status, not a
  // hang: grab a port by binding without listening... simplest portable
  // stand-in: the net server's port + nothing is a race, so instead use
  // an address that cannot parse.
  EXPECT_FALSE(NetClient::Connect("not-an-ip", net_->port()).ok());
}

TEST_F(NetE2ETest, SessionLifecycleAndResultsOverTheWire) {
  Start();
  auto client = MustConnect();
  ASSERT_TRUE(client->Ping().ok());

  auto sid = client->OpenSession();
  ASSERT_TRUE(sid.ok()) << sid.status().ToString();

  std::vector<CompletionPayload> completions;
  client->set_on_complete([&](const CompletionPayload& done) {
    completions.push_back(done);  // Client is single-threaded: no lock.
  });

  auto ack = client->Submit(*sid, {HistQuery(rows_)});
  ASSERT_TRUE(ack.ok()) << ack.status().ToString();
  EXPECT_EQ(ack->disposition, SubmitDisposition::kEnqueued);
  ASSERT_TRUE(client->Drain(*sid).ok());

  // The deferred completion arrived during the drain and carries the
  // same histogram an in-process execution produces.
  ASSERT_EQ(completions.size(), 1u);
  const CompletionPayload& done = completions[0];
  EXPECT_EQ(done.terminal, GroupTerminal::kExecuted);
  EXPECT_EQ(done.queries_executed, 1);
  ASSERT_EQ(done.results.size(), 1u);
  ASSERT_TRUE(done.results[0].has_value());
  const auto& hist = std::get<FixedHistogram>(*done.results[0]);
  EXPECT_EQ(hist.total(), static_cast<double>(rows_));
  EXPECT_EQ(hist.num_bins(), 20);

  EXPECT_EQ(client->stats().completions_executed, 1);
  EXPECT_EQ(client->stats().completions_shed, 0);
  EXPECT_EQ(client->stats().completions_dropped, 0);
  ASSERT_EQ(client->stats().latency_ms.size(), 1u);
  EXPECT_GE(client->stats().latency_ms[0], 0.0);

  ASSERT_TRUE(client->CloseSession(*sid).ok());
  // The session is gone: submitting to it is a server-side error that
  // does not kill the connection.
  EXPECT_FALSE(client->Submit(*sid, {HistQuery(rows_)}).ok());
  EXPECT_TRUE(client->Ping().ok());
}

TEST_F(NetE2ETest, MultiplexesSessionsOnOneConnection) {
  Start();
  auto client = MustConnect();
  constexpr int kSessions = 3;
  constexpr int kGroupsEach = 4;
  std::vector<uint64_t> sids;
  for (int i = 0; i < kSessions; ++i) {
    auto sid = client->OpenSession();
    ASSERT_TRUE(sid.ok());
    sids.push_back(*sid);
  }
  for (int g = 0; g < kGroupsEach; ++g) {
    for (uint64_t sid : sids) {
      auto ack = client->Submit(sid, {HistQuery(rows_)});
      ASSERT_TRUE(ack.ok());
    }
  }
  for (uint64_t sid : sids) ASSERT_TRUE(client->Drain(sid).ok());
  EXPECT_EQ(client->stats().completions_executed +
                client->stats().completions_shed,
            kSessions * kGroupsEach);
  for (uint64_t sid : sids) ASSERT_TRUE(client->CloseSession(sid).ok());

  const ServerStatsSnapshot snap = server_->Snapshot();
  EXPECT_EQ(snap.totals.groups_submitted, kSessions * kGroupsEach);
}

TEST_F(NetE2ETest, RejectsForeignAndUnknownSessions) {
  Start();
  auto client_a = MustConnect();
  auto client_b = MustConnect();
  auto sid = client_a->OpenSession();
  ASSERT_TRUE(sid.ok());
  // A session is bound to the connection that opened it: another
  // connection can neither submit to it, drain it, nor close it.
  EXPECT_FALSE(client_b->Submit(*sid, {HistQuery(rows_)}).ok());
  EXPECT_FALSE(client_b->Drain(*sid).ok());
  EXPECT_FALSE(client_b->CloseSession(*sid).ok());
  // And an id that was never opened is unknown to everyone.
  EXPECT_FALSE(client_a->Submit(*sid + 1000, {HistQuery(rows_)}).ok());
  // Both connections survive their errors.
  EXPECT_TRUE(client_a->Ping().ok());
  EXPECT_TRUE(client_b->Ping().ok());
  EXPECT_TRUE(client_a->CloseSession(*sid).ok());
}

TEST_F(NetE2ETest, ByteCountersReconcileWithClientAndRegistry) {
  MetricsRegistry registry;
  ServerOptions sopts;
  sopts.enable_metrics = true;
  sopts.metrics_registry = &registry;
  Start(sopts);

  auto client = MustConnect();
  auto sid = client->OpenSession();
  ASSERT_TRUE(sid.ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(client->Submit(*sid, {HistQuery(rows_)}).ok());
  }
  ASSERT_TRUE(client->Drain(*sid).ok());
  ASSERT_TRUE(client->CloseSession(*sid).ok());
  const NetClientStats cstats = client->stats();
  client.reset();  // Close the socket; nothing more will flow.

  // Join the event loop before reading the server's counters, so the
  // final flush/reap is ordered before the loads.
  net_->Stop();
  const NetStatsSnapshot sstats = net_->Stats();

  // The two ends of a finished conversation must agree exactly.
  EXPECT_EQ(cstats.bytes_sent, sstats.bytes_received);
  EXPECT_EQ(cstats.bytes_received, sstats.bytes_sent);
  EXPECT_EQ(cstats.frames_sent, sstats.frames_received);
  EXPECT_EQ(cstats.frames_received, sstats.frames_sent);
  EXPECT_GT(cstats.bytes_sent, 0);
  EXPECT_GT(cstats.bytes_received, 0);
  EXPECT_EQ(sstats.connections_accepted, 1);
  EXPECT_EQ(sstats.active_connections, 0);
  EXPECT_EQ(sstats.protocol_errors, 0);
  EXPECT_EQ(sstats.write_queue_shed, 0);

  // The registry mirrors the snapshot counter-for-counter.
  auto counter = [&](const std::string& name) {
    Counter* c = registry.FindCounter(name);
    EXPECT_NE(c, nullptr) << name;
    return c != nullptr ? c->value() : -1;
  };
  EXPECT_EQ(counter("ideval_net_bytes_sent_total"), sstats.bytes_sent);
  EXPECT_EQ(counter("ideval_net_bytes_received_total"),
            sstats.bytes_received);
  EXPECT_EQ(counter("ideval_net_frames_sent_total"), sstats.frames_sent);
  EXPECT_EQ(counter("ideval_net_frames_received_total"),
            sstats.frames_received);
  EXPECT_EQ(counter("ideval_net_connections_accepted_total"),
            sstats.connections_accepted);
  Gauge* active = registry.FindGauge("ideval_net_active_connections");
  ASSERT_NE(active, nullptr);
  EXPECT_EQ(active->value(), 0.0);

  // And the serve snapshot carries the same numbers once filled.
  ServerStatsSnapshot snap = server_->Snapshot();
  EXPECT_FALSE(snap.net_enabled);
  net_->FillSnapshot(&snap);
  EXPECT_TRUE(snap.net_enabled);
  EXPECT_EQ(snap.net.bytes_sent, sstats.bytes_sent);
  EXPECT_EQ(snap.net.bytes_received, sstats.bytes_received);
  EXPECT_NE(snap.ToText().find("net bytes"), std::string::npos);
}

TEST_F(NetE2ETest, WriteQueueBackpressureShedsCompletions) {
  NetServerOptions nopts;
  // Just enough for control frames, never for a result-bearing
  // completion: every admitted group's completion must shed.
  nopts.max_write_queue_bytes = static_cast<int64_t>(kWireHeaderBytes);
  Start({}, nopts);

  auto client = MustConnect();
  auto sid = client->OpenSession();
  ASSERT_TRUE(sid.ok());
  constexpr int kGroups = 4;
  int admitted = 0;
  for (int i = 0; i < kGroups; ++i) {
    auto ack = client->Submit(*sid, {HistQuery(rows_)});
    ASSERT_TRUE(ack.ok());
    if (ack->disposition == SubmitDisposition::kEnqueued ||
        ack->disposition == SubmitDisposition::kCoalesced) {
      ++admitted;
    }
  }
  ASSERT_TRUE(client->Drain(*sid).ok());
  // Every completion was replaced by a small write-queue-shed error
  // frame; the drain still resolves (shed counts as delivered) and the
  // connection stays healthy.
  EXPECT_EQ(client->stats().completions_dropped, admitted);
  EXPECT_EQ(client->stats().completions_executed, 0);
  EXPECT_TRUE(client->Ping().ok());
  ASSERT_TRUE(client->CloseSession(*sid).ok());
  client.reset();
  net_->Stop();
  EXPECT_EQ(net_->Stats().write_queue_shed, admitted);
}

// Raw-socket tests: hostile bytes a real client would never send.

int RawConnect(int port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  EXPECT_EQ(inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  EXPECT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  return fd;
}

bool RawSend(int fd, const std::vector<uint8_t>& bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = send(fd, bytes.data() + off, bytes.size() - off, 0);
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

/// Reads exactly `n` bytes; false on EOF/error.
bool RawRecv(int fd, std::vector<uint8_t>* out, size_t n) {
  out->resize(n);
  size_t off = 0;
  while (off < n) {
    const ssize_t got = recv(fd, out->data() + off, n - off, 0);
    if (got <= 0) return false;
    off += static_cast<size_t>(got);
  }
  return true;
}

/// Reads one kError(kMalformedFrame) frame followed by EOF — the
/// farewell a connection with lost byte framing receives.
void ExpectMalformedErrorThenEof(int fd) {
  std::vector<uint8_t> head;
  ASSERT_TRUE(RawRecv(fd, &head, kWireHeaderBytes));
  FrameHeader h;
  ASSERT_TRUE(DecodeFrameHeader(head.data(), head.size(), &h));
  EXPECT_EQ(h.opcode, Opcode::kError);
  std::vector<uint8_t> payload;
  ASSERT_TRUE(RawRecv(fd, &payload, h.payload_len));
  WireReader r(payload.data(), payload.size());
  auto err = DecodeError(&r);
  ASSERT_TRUE(err.ok());
  EXPECT_EQ(err->code, WireErrorCode::kMalformedFrame);
  std::vector<uint8_t> buf;
  EXPECT_FALSE(RawRecv(fd, &buf, 1));  // EOF.
}

TEST_F(NetE2ETest, GarbageHeaderKillsTheConnection) {
  Start();
  std::vector<uint8_t> garbage(kWireHeaderBytes, 0x5A);  // Bad magic.
  std::vector<uint8_t> v2_ping;
  WireWriter w(&v2_ping);
  w.EndFrame(w.BeginFrame(Opcode::kPing, 0, 1));
  v2_ping[2] = 2;  // The retired wire version.
  for (const auto& header : {garbage, v2_ping}) {
    const int fd = RawConnect(net_->port());
    ASSERT_TRUE(RawSend(fd, header));
    // The server cannot resynchronize a corrupt stream: it answers with
    // one farewell error frame and closes.
    ExpectMalformedErrorThenEof(fd);
    close(fd);
  }
}

TEST_F(NetE2ETest, OversizedLengthKillsTheConnection) {
  Start();
  const int fd = RawConnect(net_->port());
  std::vector<uint8_t> frame;
  WireWriter w(&frame);
  const size_t f = w.BeginFrame(Opcode::kSubmitGroup, 1, 1);
  w.EndFrame(f);
  const uint32_t huge = kMaxPayloadBytes + 1;
  std::memcpy(&frame[20], &huge, 4);
  ASSERT_TRUE(RawSend(fd, frame));
  // An advertised 8 MiB+ payload is an error frame and a hangup, never
  // an allocation.
  ExpectMalformedErrorThenEof(fd);
  close(fd);
}

TEST_F(NetE2ETest, CorruptPayloadKeepsTheConnection) {
  Start();
  const int fd = RawConnect(net_->port());
  // Open a real session first (the binding check runs before the payload
  // decode), then submit a well-framed group whose payload is garbage:
  // the frame is self-delimiting, so the server answers kError and keeps
  // reading.
  std::vector<uint8_t> frame;
  WireWriter w(&frame);
  size_t f = w.BeginFrame(Opcode::kOpenSession, 0, 6);
  w.EndFrame(f);
  ASSERT_TRUE(RawSend(fd, frame));
  std::vector<uint8_t> head;
  ASSERT_TRUE(RawRecv(fd, &head, kWireHeaderBytes));
  FrameHeader h;
  ASSERT_TRUE(DecodeFrameHeader(head.data(), head.size(), &h));
  ASSERT_EQ(h.opcode, Opcode::kSessionOpened);
  std::vector<uint8_t> payload;
  ASSERT_TRUE(RawRecv(fd, &payload, h.payload_len));
  WireReader sid_reader(payload.data(), payload.size());
  const uint64_t sid = sid_reader.U64();
  ASSERT_TRUE(sid_reader.Done());

  frame.clear();
  WireWriter w2(&frame);
  f = w2.BeginFrame(Opcode::kSubmitGroup, sid, 7);
  w2.U8(0xFF);
  w2.U8(0xFF);
  w2.U8(0xFF);
  w2.EndFrame(f);
  f = w2.BeginFrame(Opcode::kPing, 0, 8);  // Pipelined behind the garbage.
  w2.EndFrame(f);
  ASSERT_TRUE(RawSend(fd, frame));

  ASSERT_TRUE(RawRecv(fd, &head, kWireHeaderBytes));
  ASSERT_TRUE(DecodeFrameHeader(head.data(), head.size(), &h));
  EXPECT_EQ(h.opcode, Opcode::kError);
  EXPECT_EQ(h.request_id, 7u);
  ASSERT_TRUE(RawRecv(fd, &payload, h.payload_len));
  WireReader r(payload.data(), payload.size());
  auto err = DecodeError(&r);
  ASSERT_TRUE(err.ok());
  EXPECT_EQ(err->code, WireErrorCode::kMalformedFrame);

  ASSERT_TRUE(RawRecv(fd, &head, kWireHeaderBytes));
  ASSERT_TRUE(DecodeFrameHeader(head.data(), head.size(), &h));
  EXPECT_EQ(h.opcode, Opcode::kPong);  // The connection survived.
  EXPECT_EQ(h.request_id, 8u);
  close(fd);

  net_->Stop();
  EXPECT_GE(net_->Stats().protocol_errors, 1);
}

TEST_F(NetE2ETest, UnknownOpcodeGetsAnErrorFrame) {
  Start();
  const int fd = RawConnect(net_->port());
  std::vector<uint8_t> frame;
  WireWriter w(&frame);
  const size_t f = w.BeginFrame(static_cast<Opcode>(9), 0, 11);
  w.EndFrame(f);
  ASSERT_TRUE(RawSend(fd, frame));
  std::vector<uint8_t> head;
  ASSERT_TRUE(RawRecv(fd, &head, kWireHeaderBytes));
  FrameHeader h;
  ASSERT_TRUE(DecodeFrameHeader(head.data(), head.size(), &h));
  EXPECT_EQ(h.opcode, Opcode::kError);
  std::vector<uint8_t> payload;
  ASSERT_TRUE(RawRecv(fd, &payload, h.payload_len));
  WireReader r(payload.data(), payload.size());
  auto err = DecodeError(&r);
  ASSERT_TRUE(err.ok());
  EXPECT_EQ(err->code, WireErrorCode::kUnknownOpcode);
  close(fd);
}

TEST_F(NetE2ETest, AbruptDisconnectReapsTheSessions) {
  Start();
  {
    auto client = MustConnect();
    auto sid = client->OpenSession();
    ASSERT_TRUE(sid.ok());
    ASSERT_TRUE(client->Submit(*sid, {HistQuery(rows_)}).ok());
    // Drop the connection with the group still in flight: the client
    // destructor closes the socket without drain/close handshakes.
  }
  // The server reaps the connection and closes its orphaned session;
  // completions for it are discarded, not delivered to anyone. Stop()
  // joins the loop, after which the books must be square.
  server_->Drain();
  net_->Stop();
  EXPECT_EQ(net_->Stats().active_connections, 0);
  const ServerStatsSnapshot snap = server_->Snapshot();
  EXPECT_EQ(snap.sessions_open, 0);
  EXPECT_EQ(snap.totals.groups_submitted, 1);
}

TEST_F(NetE2ETest, NetLoadDriverRunsConcurrentClients) {
  ServerOptions sopts;
  sopts.num_workers = 2;
  sopts.max_queue_per_session = 64;
  Start(sopts);

  std::vector<std::vector<QueryGroup>> clients(3);
  for (auto& groups : clients) {
    for (int i = 0; i < 5; ++i) {
      QueryGroup g;
      g.issue_time = SimTime::FromMillis(5.0 * i);
      g.queries.push_back(HistQuery(rows_));
      groups.push_back(std::move(g));
    }
  }
  NetLoadDriverOptions opts;
  opts.port = net_->port();
  opts.time_compression = 10.0;
  auto report = RunNetLoadDriver(clients, opts);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->clients.size(), 3u);
  int64_t executed = 0;
  for (const auto& c : report->clients) {
    EXPECT_EQ(c.submitted, 5);
    EXPECT_EQ(c.enqueued + c.coalesced + c.throttled + c.rejected +
                  c.submit_errors,
              5);
    executed += c.wire.completions_executed;
  }
  EXPECT_EQ(report->wire_totals.frames_sent,
            report->clients[0].wire.frames_sent * 3);
  EXPECT_GT(executed, 0);
  EXPECT_GT(report->wall_seconds, 0.0);

  net_->Stop();
  const NetStatsSnapshot sstats = net_->Stats();
  EXPECT_EQ(report->wire_totals.bytes_sent, sstats.bytes_received);
  EXPECT_EQ(report->wire_totals.bytes_received, sstats.bytes_sent);
  EXPECT_EQ(sstats.connections_accepted, 3);

  NetLoadDriverOptions bad;
  bad.port = 0;
  EXPECT_FALSE(RunNetLoadDriver(clients, bad).ok());
}

// ------------------------- net_smoke (ctest) ---------------------------

/// The `net_smoke` ctest: server up on an ephemeral port, one traced
/// query driven end to end through a real socket, wire spans on the
/// timeline next to the serve pipeline's.
TEST(NetSmoke, TracedEndToEnd) {
  auto engine = std::make_unique<Engine>(EngineOptions{});
  ASSERT_TRUE(engine->RegisterTable(MakeNetTable(500)).ok());
  ServerOptions sopts;
  sopts.enable_tracing = true;
  auto server = QueryServer::Create(engine.get(), sopts);
  ASSERT_TRUE(server.ok());
  auto net = NetServer::Start(server->get(), {});
  ASSERT_TRUE(net.ok()) << net.status().ToString();

  auto client = NetClient::Connect("127.0.0.1", (*net)->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ASSERT_TRUE((*client)->Ping().ok());
  auto sid = (*client)->OpenSession();
  ASSERT_TRUE(sid.ok());
  auto ack = (*client)->Submit(*sid, {HistQuery(500)});
  ASSERT_TRUE(ack.ok());
  EXPECT_EQ(ack->disposition, SubmitDisposition::kEnqueued);
  ASSERT_TRUE((*client)->Drain(*sid).ok());
  EXPECT_EQ((*client)->stats().completions_executed, 1);
  ASSERT_TRUE((*client)->CloseSession(*sid).ok());
  client->reset();
  (*net)->Stop();

  // The trace shows the group crossing the wire: at least one kNetRecv
  // (the submit frame decoded) and one kNetSend (its completion written),
  // alongside the usual serve pipeline spans.
  TraceBuffer* buffer = (*server)->trace_buffer();
  ASSERT_NE(buffer, nullptr);
  int net_recv = 0;
  int net_send = 0;
  int groups = 0;
  for (const SpanRecord& span : buffer->Snapshot()) {
    if (span.kind == SpanKind::kNetRecv) ++net_recv;
    if (span.kind == SpanKind::kNetSend) ++net_send;
    if (span.kind == SpanKind::kGroup) ++groups;
  }
  EXPECT_GE(net_recv, 1);
  EXPECT_GE(net_send, 1);
  EXPECT_GE(groups, 1);
  (*server)->Stop();
}

// ----------------------- HTTP observability ---------------------------

/// Sends one raw request and reads the whole response to EOF — every
/// endpoint response is `Connection: close`, so EOF frames it.
std::string HttpExchange(int port, const std::string& request) {
  const int fd = RawConnect(port);
  EXPECT_TRUE(RawSend(
      fd, std::vector<uint8_t>(request.begin(), request.end())));
  std::string out;
  char chunk[4096];
  while (true) {
    const ssize_t n = recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    out.append(chunk, static_cast<size_t>(n));
  }
  close(fd);
  return out;
}

std::string HttpGet(int port, const std::string& path) {
  return HttpExchange(
      port, "GET " + path + " HTTP/1.1\r\nHost: x\r\n\r\n");
}

/// Parses `name value` out of a Prometheus text exposition; -1 if absent.
double ScrapedValue(const std::string& body, const std::string& name) {
  size_t pos = 0;
  while (pos < body.size()) {
    size_t nl = body.find('\n', pos);
    if (nl == std::string::npos) nl = body.size();
    const std::string line = body.substr(pos, nl - pos);
    if (line.rfind(name + " ", 0) == 0) {
      return std::stod(line.substr(name.size() + 1));
    }
    pos = nl + 1;
  }
  return -1.0;
}

TEST(HttpEndpointTest, StartValidatesOptions) {
  EXPECT_EQ(HttpEndpoint::Start(nullptr, {}).status().code(),
            StatusCode::kInvalidArgument);
  auto engine = std::make_unique<Engine>(EngineOptions{});
  ASSERT_TRUE(engine->RegisterTable(MakeNetTable(10)).ok());
  auto server = QueryServer::Create(engine.get(), ServerOptions{});
  ASSERT_TRUE(server.ok());
  HttpEndpointOptions bad;
  bad.port = -1;
  EXPECT_EQ(HttpEndpoint::Start(server->get(), bad).status().code(),
            StatusCode::kInvalidArgument);
  bad = {};
  bad.max_request_bytes = 4;
  EXPECT_EQ(HttpEndpoint::Start(server->get(), bad).status().code(),
            StatusCode::kInvalidArgument);
  bad = {};
  bad.max_connections = 0;
  EXPECT_EQ(HttpEndpoint::Start(server->get(), bad).status().code(),
            StatusCode::kInvalidArgument);
  bad = {};
  bad.slow_client_timeout_ms = 0.0;
  EXPECT_EQ(HttpEndpoint::Start(server->get(), bad).status().code(),
            StatusCode::kInvalidArgument);
  (*server)->Stop();
}

TEST(HttpEndpointTest, RoutesServeTheObservabilitySurfaces) {
  auto engine = std::make_unique<Engine>(EngineOptions{});
  ASSERT_TRUE(engine->RegisterTable(MakeNetTable(1000)).ok());
  MetricsRegistry registry;
  ServerOptions sopts;
  sopts.num_workers = 2;
  sopts.enable_metrics = true;
  sopts.metrics_registry = &registry;
  sopts.enable_tracing = true;
  // Stats poller and slow log stay off: their routes must 404, not 500.
  auto server = QueryServer::Create(engine.get(), sopts);
  ASSERT_TRUE(server.ok());

  // Real executed work first, so /metrics has non-zero serve counters.
  std::vector<std::vector<QueryGroup>> clients(2);
  for (auto& groups : clients) {
    for (int i = 0; i < 5; ++i) {
      QueryGroup g;
      g.issue_time = SimTime::FromMillis(2.0 * i);
      g.queries.push_back(HistQuery(1000));
      groups.push_back(std::move(g));
    }
  }
  LoadDriverOptions lopts;
  lopts.time_compression = 10.0;
  auto report = RunLoadDriver(server->get(), clients, lopts);
  ASSERT_TRUE(report.ok());
  const int64_t executed = report->snapshot.totals.groups_executed;
  ASSERT_GT(executed, 0);

  auto http = HttpEndpoint::Start(server->get(), HttpEndpointOptions{});
  ASSERT_TRUE(http.ok()) << http.status().ToString();
  const int port = (*http)->port();
  EXPECT_GT(port, 0);

  const std::string health = HttpGet(port, "/healthz");
  EXPECT_NE(health.find("200 OK"), std::string::npos);
  EXPECT_NE(health.find("ok"), std::string::npos);

  // The scraped counter equals the drained snapshot's value exactly.
  const std::string metrics = HttpGet(port, "/metrics");
  EXPECT_NE(metrics.find("200 OK"), std::string::npos);
  EXPECT_EQ(ScrapedValue(metrics, "ideval_serve_groups_executed_total"),
            static_cast<double>(executed));
  // The endpoint's own counters live in the same registry it serves.
  EXPECT_GE(ScrapedValue(metrics, "ideval_http_requests_total"), 1.0);

  EXPECT_NE(HttpGet(port, "/metrics.json").find("200 OK"),
            std::string::npos);
  const std::string trace = HttpGet(port, "/trace.json");
  EXPECT_NE(trace.find("200 OK"), std::string::npos);
  EXPECT_NE(trace.find("traceEvents"), std::string::npos);

  // /stats is the human-facing snapshot battery — always available.
  const std::string stats_text = HttpGet(port, "/stats");
  EXPECT_NE(stats_text.find("200 OK"), std::string::npos);
  EXPECT_NE(stats_text.find("LCV fraction"), std::string::npos);

  // Facilities that are off answer 404, as does an unknown route; quit
  // is 404 unless opted in, and must not flip the flag.
  EXPECT_NE(HttpGet(port, "/stats.json").find("404"), std::string::npos);
  EXPECT_NE(HttpGet(port, "/slo").find("404"), std::string::npos);
  EXPECT_NE(HttpGet(port, "/debug/flightrecorder").find("404"),
            std::string::npos);
  EXPECT_NE(HttpGet(port, "/slowlog").find("404"), std::string::npos);
  EXPECT_NE(HttpGet(port, "/nothing").find("404"), std::string::npos);
  EXPECT_NE(HttpGet(port, "/quitquitquit").find("404"), std::string::npos);
  EXPECT_FALSE((*http)->quit_requested());

  // Query strings are parsed off the path before routing.
  EXPECT_NE(HttpGet(port, "/healthz?x=1").find("200 OK"),
            std::string::npos);

  // A non-GET method is a 400, not a route miss.
  const std::string post =
      HttpExchange(port, "POST /metrics HTTP/1.1\r\n\r\n");
  EXPECT_NE(post.find("400"), std::string::npos);

  const HttpStatsSnapshot stats = (*http)->Stats();
  EXPECT_EQ(stats.requests, 13);
  EXPECT_EQ(stats.responses_ok, 6);
  EXPECT_EQ(stats.not_found, 6);
  EXPECT_EQ(stats.bad_requests, 1);
  EXPECT_GT(stats.bytes_sent, 0);
  // The registry mirrors agree with the endpoint's own counters. (The
  // exposition body is rendered before this scrape's own ok-increment,
  // so it shows the pre-scrape ok count but its own request count.)
  const std::string again = HttpGet(port, "/metrics");
  EXPECT_EQ(ScrapedValue(again, "ideval_http_requests_total"),
            static_cast<double>(stats.requests) + 1.0);
  EXPECT_EQ(ScrapedValue(again, "ideval_http_responses_ok_total"),
            static_cast<double>(stats.responses_ok));
  EXPECT_EQ(ScrapedValue(again, "ideval_http_bad_requests_total"),
            static_cast<double>(stats.bad_requests));

  ServerStatsSnapshot snap = (*server)->Snapshot();
  (*http)->FillSnapshot(&snap);
  EXPECT_TRUE(snap.http_enabled);
  EXPECT_EQ(snap.http.requests, 14);

  // Draining flips the health check to 503 with a reason body, while
  // the other routes keep serving the post-mortem surfaces.
  (*server)->Stop();
  const std::string drained = HttpGet(port, "/healthz");
  EXPECT_NE(drained.find("503"), std::string::npos);
  EXPECT_NE(drained.find("draining"), std::string::npos);
  EXPECT_NE(HttpGet(port, "/trace.json").find("200 OK"),
            std::string::npos);

  (*http)->Stop();
}

TEST(HttpEndpointTest, ConcurrentScrapersSeeTheSameDrainedCounters) {
  auto engine = std::make_unique<Engine>(EngineOptions{});
  ASSERT_TRUE(engine->RegisterTable(MakeNetTable(1000)).ok());
  MetricsRegistry registry;
  ServerOptions sopts;
  sopts.num_workers = 2;
  sopts.enable_metrics = true;
  sopts.metrics_registry = &registry;
  auto server = QueryServer::Create(engine.get(), sopts);
  ASSERT_TRUE(server.ok());

  std::vector<std::vector<QueryGroup>> clients(2);
  for (auto& groups : clients) {
    for (int i = 0; i < 8; ++i) {
      QueryGroup g;
      g.issue_time = SimTime::FromMillis(2.0 * i);
      g.queries.push_back(HistQuery(1000));
      groups.push_back(std::move(g));
    }
  }
  LoadDriverOptions lopts;
  lopts.time_compression = 10.0;
  auto report = RunLoadDriver(server->get(), clients, lopts);
  ASSERT_TRUE(report.ok());
  const double executed =
      static_cast<double>(report->snapshot.totals.groups_executed);
  ASSERT_GT(executed, 0.0);

  auto http = HttpEndpoint::Start(server->get(), HttpEndpointOptions{});
  ASSERT_TRUE(http.ok());
  const int port = (*http)->port();

  // A scrape storm against the drained server: every scraper, on every
  // scrape, must see a complete 200 exposition carrying the one true
  // drained counter value — no torn reads, no short writes.
  constexpr int kScrapers = 8;
  constexpr int kScrapesEach = 4;
  std::atomic<int> failures{0};
  std::vector<std::thread> scrapers;
  scrapers.reserve(kScrapers);
  for (int t = 0; t < kScrapers; ++t) {
    scrapers.emplace_back([port, executed, &failures] {
      for (int i = 0; i < kScrapesEach; ++i) {
        const std::string body = HttpGet(port, "/metrics");
        if (body.find("200 OK") == std::string::npos ||
            ScrapedValue(body, "ideval_serve_groups_executed_total") !=
                executed) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : scrapers) t.join();
  EXPECT_EQ(failures.load(), 0);
  const HttpStatsSnapshot stats = (*http)->Stats();
  EXPECT_EQ(stats.requests, kScrapers * kScrapesEach);
  EXPECT_EQ(stats.responses_ok, kScrapers * kScrapesEach);

  (*http)->Stop();
  (*server)->Stop();
}

TEST(HttpEndpointTest, BoundsOversizedRequestsAndConnectionFloods) {
  auto engine = std::make_unique<Engine>(EngineOptions{});
  ASSERT_TRUE(engine->RegisterTable(MakeNetTable(10)).ok());
  auto server = QueryServer::Create(engine.get(), ServerOptions{});
  ASSERT_TRUE(server.ok());
  HttpEndpointOptions hopts;
  hopts.max_request_bytes = 64;
  hopts.max_connections = 2;
  auto http = HttpEndpoint::Start(server->get(), hopts);
  ASSERT_TRUE(http.ok());
  const int port = (*http)->port();

  // Headers that never finish inside the byte bound: 400 and close, the
  // buffer never grows past the cap.
  const std::string oversized =
      HttpExchange(port, "GET /" + std::string(200, 'a') + " HTTP/1.1\r\n");
  EXPECT_NE(oversized.find("400"), std::string::npos);
  EXPECT_NE(oversized.find("request too large"), std::string::npos);

  // Fill the connection cap with two idle scrapers that never send a
  // request; they hold their slots until the endpoint stops.
  const int idle1 = RawConnect(port);
  const int idle2 = RawConnect(port);
  // Give the loop a poll round to admit both into the connection set.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  // The next connection must be answered 503 at accept and dropped —
  // a scrape storm cannot starve the process of fds.
  const std::string rejected = HttpExchange(port, "GET /healthz HTTP/1.1\r\n\r\n");
  EXPECT_NE(rejected.find("503"), std::string::npos);

  const HttpStatsSnapshot stats = (*http)->Stats();
  EXPECT_EQ(stats.bad_requests, 1);
  EXPECT_GE(stats.connections_rejected, 1);
  close(idle1);
  close(idle2);
  (*http)->Stop();
  (*server)->Stop();
}

}  // namespace
}  // namespace ideval
