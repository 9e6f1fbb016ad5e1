#ifndef IDEVAL_SERVE_SESSION_H_
#define IDEVAL_SERVE_SESSION_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/sim_time.h"
#include "engine/engine.h"
#include "engine/query.h"
#include "obs/trace.h"
#include "serve/server_stats.h"

namespace ideval {

/// Terminal report for one *admitted* group, delivered through the
/// optional completion callback of `QueryServer::Submit`. `Submit`'s
/// return value only says what happened at the door; this is the other
/// half — what eventually became of a group that made it past the door.
/// The socket front-end (`src/net/net_server.h`) turns these into
/// response frames; in-process callers (tests, the load driver) never pay
/// for them because the callback and the result capture are both opt-in.
struct GroupCompletion {
  uint64_t session_id = 0;
  uint64_t seq = 0;  ///< Per-session submission sequence number.
  /// Trace context of this group (0 when tracing is off). Lets a
  /// front-end record its own spans (net send, client receive) under the
  /// same trace id as the server-side pipeline spans.
  uint64_t trace_id = 0;
  uint64_t root_span_id = 0;
  /// `kExecuted`, `kShedStale`, or `kShedCoalesced`. Door verdicts
  /// (throttled/rejected) never produce a completion — they are returned
  /// synchronously from `Submit`.
  GroupTerminal terminal = GroupTerminal::kExecuted;
  bool lcv = false;  ///< Executed groups: finished after a newer submit.
  int64_t queries_executed = 0;
  int64_t queries_failed = 0;
  int64_t cache_hits = 0;
  Duration queue_wait;  ///< Admit -> dispatch (zero for sheds).
  Duration service;     ///< Dispatch -> done (zero for sheds).
  Duration latency;     ///< Submit -> terminal state.
  /// Per-query result payloads in submission order, filled only for
  /// executed groups with a callback installed (capture is keyed off the
  /// callback's presence, so callback-free submissions never copy
  /// results). A failed query leaves its slot empty.
  std::vector<std::optional<QueryResultData>> results;
};

/// Invoked exactly once per admitted group at its terminal state. Runs
/// under the server lock — on a worker thread (executed and dispatch-time
/// sheds) or inside a later `Submit` call (admission-time sheds) — so it
/// must be fast and must not call back into the `QueryServer`.
using GroupCompletionFn = std::function<void(GroupCompletion&&)>;

/// A query group admitted into a session queue, waiting for a worker.
struct PendingGroup {
  uint64_t seq = 0;  ///< Per-session submission sequence number.
  SimTime submit_time;
  /// Per-group trace handle (disabled when tracing is off). The root
  /// group span stays open while the group is pending; whoever gives the
  /// group its terminal state (worker, shed, coalesce) closes it.
  TraceContext trace;
  std::vector<Query> queries;
  /// Terminal-state callback (null for the classic fire-and-forget
  /// submission path). See `GroupCompletionFn`.
  GroupCompletionFn on_complete;
  /// When false, the callback still fires with full timing/terminal
  /// accounting but per-query result payloads are not copied into it.
  bool capture_results = true;
};

/// One client's server-side state: a bounded request queue, live QIF
/// window, LCV bookkeeping, counters, and the drag base.
///
/// Thread safety: all fields except `drag_base` are guarded by the
/// owning `QueryServer`'s lock. The drag base is touched only by the
/// worker that holds this session's `busy` flag; the flag itself is
/// flipped under the server lock, which establishes the necessary
/// happens-before edges.
class ServeSession {
 public:
  ServeSession(uint64_t id, Duration qif_window);

  uint64_t id() const { return id_; }

  /// Records a submission attempt at `now` and returns its sequence
  /// number. Feeds the QIF window and the LCV successor index whether or
  /// not the group is later admitted — the user interacted either way.
  uint64_t RecordSubmit(SimTime now);

  /// Live sliding-window QIF of this session.
  double QifQps(SimTime now);

  /// Issue-before-complete check (§7.2, live): true iff a newer
  /// submission than `seq` happened before `completion`. Prunes
  /// bookkeeping for sequences <= `seq`.
  bool CheckLcvViolation(uint64_t seq, SimTime completion);

  std::deque<PendingGroup>& queue() { return queue_; }
  SessionCounters& counters() { return counters_; }
  const SessionCounters& counters() const { return counters_; }

  /// Records the queue depth after an admission so the snapshot can show
  /// each session's high-water mark, not just its instantaneous depth.
  void NoteQueueDepth(int64_t depth) {
    if (depth > queue_hwm_) queue_hwm_ = depth;
  }
  int64_t queue_hwm() const { return queue_hwm_; }

  bool busy() const { return busy_; }
  void set_busy(bool b) { busy_ = b; }
  bool closed() const { return closed_; }
  void set_closed(bool c) { closed_ = c; }
  SimTime last_submit() const { return last_submit_; }

  std::optional<SimTime> last_admitted() const { return last_admitted_; }
  void set_last_admitted(SimTime t) { last_admitted_ = t; }

  /// The last executed group, if all its queries were histograms, with
  /// their exact counts: the base the next group's drag answer starts
  /// from (`Engine::ExecuteHistogramDrag`, docs/serve.md). Empty after
  /// any other group or a failed query.
  HistogramGroupCounts& drag_base() { return drag_base_; }

 private:
  uint64_t id_;
  Duration qif_window_;
  uint64_t next_seq_ = 0;
  std::deque<PendingGroup> queue_;
  bool busy_ = false;
  bool closed_ = false;
  SimTime last_submit_;
  std::optional<SimTime> last_admitted_;  // Throttle state.
  std::deque<SimTime> qif_submits_;
  /// (seq, submit time) of recent submissions, for the LCV successor
  /// lookup. Bounded: pruned on every completion and capped.
  std::deque<std::pair<uint64_t, SimTime>> recent_submits_;
  int64_t queue_hwm_ = 0;
  SessionCounters counters_;
  HistogramGroupCounts drag_base_;
};

/// Hands out sessions with isolated queues and stable ids. Externally
/// synchronized by the owning `QueryServer`.
class SessionManager {
 public:
  /// Creates a session and returns it (owned by the manager).
  ServeSession* Open(Duration qif_window);

  /// Looks up a session; null if the id was never issued.
  ServeSession* Get(uint64_t id);

  /// All sessions in creation order (round-robin dispatch iterates this).
  const std::vector<std::unique_ptr<ServeSession>>& sessions() const {
    return sessions_;
  }

  int64_t OpenCount() const;

 private:
  uint64_t next_id_ = 1;
  std::vector<std::unique_ptr<ServeSession>> sessions_;
  std::unordered_map<uint64_t, size_t> index_;
};

}  // namespace ideval

#endif  // IDEVAL_SERVE_SESSION_H_
