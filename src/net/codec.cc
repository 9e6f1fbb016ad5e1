#include "net/codec.h"

#include <optional>
#include <utility>
#include <variant>

namespace ideval {

namespace {

constexpr uint8_t kTagSelect = 1;
constexpr uint8_t kTagHistogram = 2;
constexpr uint8_t kTagJoinPage = 3;

constexpr uint8_t kTagRange = 1;
constexpr uint8_t kTagStringEq = 2;
constexpr uint8_t kTagStringIn = 3;

constexpr uint8_t kTagInt64 = 1;
constexpr uint8_t kTagDouble = 2;
constexpr uint8_t kTagString = 3;

constexpr uint8_t kTagRowSet = 1;
constexpr uint8_t kTagHistogramResult = 2;

Status Malformed(const char* what) {
  return Status::InvalidArgument(std::string("malformed payload: ") + what);
}

void EncodePredicate(WireWriter* w, const Predicate& pred) {
  if (const auto* r = std::get_if<RangePredicate>(&pred)) {
    w->U8(kTagRange);
    w->Str(r->column);
    w->F64(r->lo);
    w->F64(r->hi);
  } else if (const auto* eq = std::get_if<StringEqPredicate>(&pred)) {
    w->U8(kTagStringEq);
    w->Str(eq->column);
    w->Str(eq->value);
  } else {
    const auto& in = std::get<StringInPredicate>(pred);
    w->U8(kTagStringIn);
    w->Str(in.column);
    w->U32(static_cast<uint32_t>(in.values.size()));
    for (const auto& v : in.values) w->Str(v);
  }
}

Result<Predicate> DecodePredicate(WireReader* r) {
  switch (r->U8()) {
    case kTagRange: {
      RangePredicate p;
      p.column = r->Str();
      p.lo = r->F64();
      p.hi = r->F64();
      if (!r->ok()) return Malformed("range predicate");
      return Predicate(std::move(p));
    }
    case kTagStringEq: {
      StringEqPredicate p;
      p.column = r->Str();
      p.value = r->Str();
      if (!r->ok()) return Malformed("string-eq predicate");
      return Predicate(std::move(p));
    }
    case kTagStringIn: {
      StringInPredicate p;
      p.column = r->Str();
      const uint32_t n = r->U32();
      // Each value is at least its u32 length prefix.
      if (!r->CanContain(n, 4)) return Malformed("string-in count");
      p.values.reserve(n);
      for (uint32_t i = 0; i < n; ++i) p.values.push_back(r->Str());
      if (!r->ok()) return Malformed("string-in predicate");
      return Predicate(std::move(p));
    }
    default:
      return Malformed("predicate tag");
  }
}

void EncodePredicates(WireWriter* w, const std::vector<Predicate>& preds) {
  w->U32(static_cast<uint32_t>(preds.size()));
  for (const auto& p : preds) EncodePredicate(w, p);
}

Result<std::vector<Predicate>> DecodePredicates(WireReader* r) {
  const uint32_t n = r->U32();
  // A predicate is at least tag + column length prefix.
  if (!r->CanContain(n, 5)) return Malformed("predicate count");
  std::vector<Predicate> preds;
  preds.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    IDEVAL_ASSIGN_OR_RETURN(Predicate p, DecodePredicate(r));
    preds.push_back(std::move(p));
  }
  return preds;
}

void EncodeQuery(WireWriter* w, const Query& query) {
  if (const auto* sel = std::get_if<SelectQuery>(&query)) {
    w->U8(kTagSelect);
    w->Str(sel->table);
    w->U32(static_cast<uint32_t>(sel->columns.size()));
    for (const auto& c : sel->columns) w->Str(c);
    EncodePredicates(w, sel->predicates);
    w->I64(sel->limit);
    w->I64(sel->offset);
  } else if (const auto* hist = std::get_if<HistogramQuery>(&query)) {
    w->U8(kTagHistogram);
    w->Str(hist->table);
    w->Str(hist->bin_column);
    w->F64(hist->bin_lo);
    w->F64(hist->bin_hi);
    w->I64(hist->bins);
    EncodePredicates(w, hist->predicates);
  } else {
    const auto& join = std::get<JoinPageQuery>(query);
    w->U8(kTagJoinPage);
    w->Str(join.left_table);
    w->Str(join.right_table);
    w->Str(join.join_column);
    w->I64(join.limit);
    w->I64(join.offset);
  }
}

Result<Query> DecodeQuery(WireReader* r) {
  switch (r->U8()) {
    case kTagSelect: {
      SelectQuery q;
      q.table = r->Str();
      const uint32_t ncols = r->U32();
      if (!r->CanContain(ncols, 4)) return Malformed("select column count");
      q.columns.reserve(ncols);
      for (uint32_t i = 0; i < ncols; ++i) q.columns.push_back(r->Str());
      IDEVAL_ASSIGN_OR_RETURN(q.predicates, DecodePredicates(r));
      q.limit = r->I64();
      q.offset = r->I64();
      if (!r->ok()) return Malformed("select query");
      return Query(std::move(q));
    }
    case kTagHistogram: {
      HistogramQuery q;
      q.table = r->Str();
      q.bin_column = r->Str();
      q.bin_lo = r->F64();
      q.bin_hi = r->F64();
      q.bins = r->I64();
      IDEVAL_ASSIGN_OR_RETURN(q.predicates, DecodePredicates(r));
      if (!r->ok()) return Malformed("histogram query");
      return Query(std::move(q));
    }
    case kTagJoinPage: {
      JoinPageQuery q;
      q.left_table = r->Str();
      q.right_table = r->Str();
      q.join_column = r->Str();
      q.limit = r->I64();
      q.offset = r->I64();
      if (!r->ok()) return Malformed("join-page query");
      return Query(std::move(q));
    }
    default:
      return Malformed("query tag");
  }
}

void EncodeValue(WireWriter* w, const Value& v) {
  if (v.is_int64()) {
    w->U8(kTagInt64);
    w->I64(v.int64());
  } else if (v.is_double()) {
    w->U8(kTagDouble);
    w->F64(v.dbl());
  } else {
    w->U8(kTagString);
    w->Str(v.str());
  }
}

Result<Value> DecodeValue(WireReader* r) {
  switch (r->U8()) {
    case kTagInt64:
      return Value(r->I64());
    case kTagDouble:
      return Value(r->F64());
    case kTagString:
      return Value(r->Str());
    default:
      return Malformed("value tag");
  }
}

void EncodeResultData(WireWriter* w, const QueryResultData& data) {
  if (const auto* rows = std::get_if<RowSet>(&data)) {
    w->U8(kTagRowSet);
    w->U32(static_cast<uint32_t>(rows->column_names.size()));
    for (const auto& c : rows->column_names) w->Str(c);
    w->U32(static_cast<uint32_t>(rows->rows.size()));
    for (const auto& row : rows->rows) {
      w->U32(static_cast<uint32_t>(row.size()));
      for (const auto& v : row) EncodeValue(w, v);
    }
  } else {
    const auto& hist = std::get<FixedHistogram>(data);
    w->U8(kTagHistogramResult);
    w->F64(hist.lo());
    w->F64(hist.hi());
    w->U32(static_cast<uint32_t>(hist.num_bins()));
    for (double c : hist.counts()) w->F64(c);
  }
}

Result<QueryResultData> DecodeResultData(WireReader* r) {
  switch (r->U8()) {
    case kTagRowSet: {
      RowSet rows;
      const uint32_t ncols = r->U32();
      if (!r->CanContain(ncols, 4)) return Malformed("row-set column count");
      rows.column_names.reserve(ncols);
      for (uint32_t i = 0; i < ncols; ++i) {
        rows.column_names.push_back(r->Str());
      }
      const uint32_t nrows = r->U32();
      if (!r->CanContain(nrows, 4)) return Malformed("row-set row count");
      rows.rows.reserve(nrows);
      for (uint32_t i = 0; i < nrows; ++i) {
        const uint32_t ncells = r->U32();
        // A value is at least tag + one byte of payload... actually an
        // int64 is 9 bytes, but the smallest (empty string) is 5.
        if (!r->CanContain(ncells, 5)) return Malformed("row cell count");
        std::vector<Value> row;
        row.reserve(ncells);
        for (uint32_t j = 0; j < ncells; ++j) {
          IDEVAL_ASSIGN_OR_RETURN(Value v, DecodeValue(r));
          row.push_back(std::move(v));
        }
        rows.rows.push_back(std::move(row));
      }
      if (!r->ok()) return Malformed("row set");
      return QueryResultData(std::move(rows));
    }
    case kTagHistogramResult: {
      const double lo = r->F64();
      const double hi = r->F64();
      const uint32_t bins = r->U32();
      if (!r->CanContain(bins, 8)) return Malformed("histogram bin count");
      std::vector<double> counts;
      counts.reserve(bins);
      for (uint32_t i = 0; i < bins; ++i) counts.push_back(r->F64());
      if (!r->ok()) return Malformed("histogram result");
      IDEVAL_ASSIGN_OR_RETURN(FixedHistogram hist,
                              FixedHistogram::FromCounts(lo, hi,
                                                         std::move(counts)));
      return QueryResultData(std::move(hist));
    }
    default:
      return Malformed("result tag");
  }
}

}  // namespace

void EncodeQueryGroup(WireWriter* w, const std::vector<Query>& queries) {
  w->U32(static_cast<uint32_t>(queries.size()));
  for (const auto& q : queries) EncodeQuery(w, q);
}

Result<std::vector<Query>> DecodeQueryGroup(WireReader* r) {
  const uint32_t n = r->U32();
  // A query is at least tag + table-name length prefix.
  if (!r->CanContain(n, 5)) return Malformed("query count");
  std::vector<Query> queries;
  queries.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    IDEVAL_ASSIGN_OR_RETURN(Query q, DecodeQuery(r));
    queries.push_back(std::move(q));
  }
  return queries;
}

void EncodeSubmitAck(WireWriter* w, const SubmitAckPayload& ack) {
  w->U64(ack.seq);
  w->U8(static_cast<uint8_t>(ack.disposition));
  w->U8(static_cast<uint8_t>(ack.load_state));
  w->F64(ack.load_factor);
}

Result<SubmitAckPayload> DecodeSubmitAck(WireReader* r) {
  SubmitAckPayload ack;
  ack.seq = r->U64();
  const uint8_t disposition = r->U8();
  const uint8_t load_state = r->U8();
  ack.load_factor = r->F64();
  if (!r->ok()) return Malformed("submit ack");
  if (disposition > static_cast<uint8_t>(SubmitDisposition::kRejected)) {
    return Malformed("submit-ack disposition");
  }
  if (load_state > static_cast<uint8_t>(LoadState::kOverloaded)) {
    return Malformed("submit-ack load state");
  }
  ack.disposition = static_cast<SubmitDisposition>(disposition);
  ack.load_state = static_cast<LoadState>(load_state);
  return ack;
}

void EncodeCompletion(WireWriter* w, const CompletionPayload& done) {
  w->U64(done.seq);
  w->U8(static_cast<uint8_t>(done.terminal));
  w->U8(done.lcv ? 1 : 0);
  w->I64(done.queries_executed);
  w->I64(done.queries_failed);
  w->I64(done.cache_hits);
  w->I64(done.queue_wait_us);
  w->I64(done.service_us);
  w->I64(done.latency_us);
  w->U32(static_cast<uint32_t>(done.results.size()));
  for (const auto& slot : done.results) {
    w->U8(slot.has_value() ? 1 : 0);
    if (slot.has_value()) EncodeResultData(w, *slot);
  }
}

Result<CompletionPayload> DecodeCompletion(WireReader* r) {
  CompletionPayload done;
  done.seq = r->U64();
  const uint8_t terminal = r->U8();
  done.lcv = r->U8() != 0;
  done.queries_executed = r->I64();
  done.queries_failed = r->I64();
  done.cache_hits = r->I64();
  done.queue_wait_us = r->I64();
  done.service_us = r->I64();
  done.latency_us = r->I64();
  if (!r->ok()) return Malformed("completion");
  if (terminal > static_cast<uint8_t>(GroupTerminal::kShedStale)) {
    return Malformed("completion terminal");
  }
  done.terminal = static_cast<GroupTerminal>(terminal);
  const uint32_t n = r->U32();
  if (!r->CanContain(n, 1)) return Malformed("completion result count");
  done.results.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    if (r->U8() == 0) {
      done.results.emplace_back(std::nullopt);
      continue;
    }
    IDEVAL_ASSIGN_OR_RETURN(QueryResultData data, DecodeResultData(r));
    done.results.emplace_back(std::move(data));
  }
  if (!r->ok()) return Malformed("completion results");
  return done;
}

Result<CompletionPayload> DecodeCompletion(WireReader* r,
                                           uint8_t /*version*/) {
  return DecodeCompletion(r);
}

void EncodeError(WireWriter* w, WireErrorCode code,
                 std::string_view message) {
  w->U16(static_cast<uint16_t>(code));
  w->Str(message);
}

Result<ErrorPayload> DecodeError(WireReader* r) {
  ErrorPayload err;
  err.code = static_cast<WireErrorCode>(r->U16());
  err.message = r->Str();
  if (!r->ok()) return Malformed("error payload");
  return err;
}

}  // namespace ideval
