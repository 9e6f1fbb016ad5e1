#ifndef IDEVAL_BENCHMARK_WORKLOADS_H_
#define IDEVAL_BENCHMARK_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "serve/admission.h"
#include "sim/query_scheduler.h"
#include "storage/table.h"

namespace idebench {

using ideval::AdmissionPolicy;
using ideval::Query;
using ideval::QueryGroup;
using ideval::Result;
using ideval::TablePtr;

/// Which of the paper's case studies a workload replays.
enum class Interface {
  kCrossfilter,  ///< §7: slider events, 2 histograms per event.
  kScroll,       ///< §6: inertial scrolling, a 20-row join page per move.
  kExplore,      ///< §8: composite map search, an 18-row select page.
};

/// One named benchmark workload. The traffic shape is fixed here; only the
/// sampled users and their phase offsets depend on the run's seed.
struct WorkloadConfig {
  const char* name;
  Interface interface;
  int users;
  /// Offered load in groups per second over the measured window (see
  /// `MakeSchedule`).
  double offered_gps;
  AdmissionPolicy policy;
  /// Drive the server through `NetServer` on loopback instead of calling
  /// `QueryServer::Submit` in process.
  bool over_wire;
};

/// The workload called `name`, or null.
const WorkloadConfig* FindWorkload(std::string_view name);

/// All workload names, comma-separated (for usage text).
std::string WorkloadNames();

/// One simulated user's session: query groups with issue times measured
/// from the session start, repeated every `period_us` when tiled.
struct UserTrace {
  std::vector<QueryGroup> groups;
  int64_t period_us = 0;
};

/// The inputs one set-up generates: the case study's tables (to register)
/// and one trace per user.
struct WorkloadInputs {
  std::vector<TablePtr> tables;
  std::vector<UserTrace> users;
  double data_s = 0.0;   ///< Table generation wall time.
  double traces_s = 0.0; ///< User sampling + trace generation wall time.
};

Result<WorkloadInputs> BuildInputs(const WorkloadConfig& config,
                                   uint64_t seed);

/// One scheduled interaction.
struct Arrival {
  int64_t at_ns = 0;       ///< Intended send, from the schedule origin.
  /// The same user's next intended send: the answer is useful only if it
  /// arrives before then (the paper's latency constraint, LCV).
  int64_t next_at_ns = 0;
  int32_t user = 0;
  const std::vector<Query>* queries = nullptr;  ///< Into `UserTrace`.
};

/// An open-loop schedule: every user's trace tiled cyclically from a
/// seeded phase offset, in intended-send order, ending at the window's
/// end. Users interact in bursts (a slider drag, a flick), so at a fixed
/// compression the number of arrivals in a window swings by several
/// percent from seed to seed; the compression is instead chosen so that
/// [window_start_s, window_end_s) holds exactly `offered_gps` times its
/// length. The seed then changes who the users are, not how much load
/// the window offers.
struct Schedule {
  std::vector<Arrival> arrivals;
  double time_compression = 1.0;  ///< Trace seconds per wall second.
};

Schedule MakeSchedule(const std::vector<UserTrace>& users, double offered_gps,
                      uint64_t seed, double window_start_s,
                      double window_end_s);

/// The distinct columns a scan reads for every tuple it visits: predicate
/// columns plus the histogram's bin column, or the join key of a join
/// page. The engine probe's bytes-moved figure is computed from it.
int64_t ColumnsScanned(const Query& query);

}  // namespace idebench

#endif  // IDEVAL_BENCHMARK_WORKLOADS_H_
