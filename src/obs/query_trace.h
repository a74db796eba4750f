#ifndef LSCHED_OBS_QUERY_TRACE_H_
#define LSCHED_OBS_QUERY_TRACE_H_

// Per-query lifetime traces (DESIGN.md §8.2): every query accumulates a
// causally ordered record of lifecycle edges — arrival, the admission
// verdict from the ServingHooks seam (admit / shed / displace), every
// scheduler decision that considered but skipped it (with the policy's
// predicted score), fairness redirections and injections applied by
// decision post-processing, each work-order dispatch / completion /
// failure / retry, and the terminal transition. The edge stream is the
// ground truth the canonical latency decomposition (LatencyBreakdown) is
// derived from: ApplyEdge() below is the one transition function, which
// EpisodeRecorder runs online on every edge of both engines and
// DeriveBreakdown() folds over a captured trace.
//
// Capture is assembled episode-locally by EpisodeRecorder (coordinator
// thread only) and published per terminal query into the process-global
// QueryTraceLog — a mutex-guarded ring of the most recent traces, dumped
// to CSV via LSCHED_QUERY_TRACE=<path> or `lsched_cli serve --trace-out=`.
// `lsched_cli explain <query-id>` replays a dumped trace into a
// human-readable timeline (RenderExplain).

#include <cstdint>
#include <istream>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "exec/exec_types.h"
#include "obs/obs.h"
#include "obs/ring.h"

namespace lsched {
namespace obs {

/// One lifecycle edge. `a`/`b`/`value` are kind-specific (see each kind).
enum class TraceEdgeKind : uint8_t {
  kArrival = 0,    ///< query entered the system (a=tenant, b=priority)
  kAdmit,          ///< admission verdict: admitted (a=1 when it displaced
                   ///< another query, see kDisplace)
  kShed,           ///< admission verdict: refused / load-shed at the door
  kDisplace,       ///< this (admitted) query displaced victim a
  kDisplacedBy,    ///< this query was displaced by newcomer a
  kConsideredSkipped,  ///< a scheduler decision considered this query but
                       ///< chose another (a=decision id, b=chosen query,
                       ///< value=policy's predicted score for its choice)
  kFallback,       ///< like kConsideredSkipped, but the decision came from
                   ///< a fallback: GuardedPolicy answering with FIFO, or
                   ///< the engine's deadlock guard (value unused)
  kScheduled,      ///< a pipeline of this query launched (a=decision id,
                   ///< b=root op, value=pipeline degree)
  kRedirected,     ///< fairness post-processing redirected this query's
                   ///< launch to query a (the wait continues)
  kInjected,       ///< fairness post-processing injected a launch for this
                   ///< query (a=query it was taken from or -1;
                   ///< value: 1=priority injection, 2=share injection)
  kDispatch,       ///< a work-order attempt was handed to a thread
                   ///< (value!=0 marks a retry dispatch)
  kComplete,       ///< a work-order attempt completed (value=seconds)
  kFailed,         ///< a work-order attempt failed / expired
  kRetry,          ///< a failed attempt was queued for re-dispatch
  kTerminal,       ///< terminal transition (a=QueryStatus as int,
                   ///< value=end-to-end latency seconds)
};

const char* TraceEdgeKindName(TraceEdgeKind k);

struct TraceEdge {
  double time = 0.0;  ///< engine time (virtual or wall seconds)
  TraceEdgeKind kind = TraceEdgeKind::kArrival;
  int64_t a = -1;
  int64_t b = -1;
  double value = 0.0;
};

/// The published lifetime record of one terminal query.
struct QueryTraceRecord {
  int64_t query = -1;
  int32_t tenant = 0;
  int32_t priority = 1;       ///< QueryPriority as int
  std::string engine;         ///< "sim" or "real"
  int32_t final_status = 0;   ///< QueryStatus as int
  double arrival_time = 0.0;
  double terminal_time = 0.0;
  LatencyBreakdown breakdown;  ///< the engine-computed decomposition
  std::vector<TraceEdge> edges;
  int64_t dropped_edges = 0;  ///< edges not recorded (per-query cap hit)
};

/// Per-query edge cap: beyond this, edges are counted in `dropped_edges`
/// instead of stored (the terminal edge is always kept). Dropped edges
/// still drive the decomposition.
inline constexpr int kMaxTraceEdgesPerQuery = 128;

/// The decomposition state of one query's life (DESIGN.md §8.2).
struct LifecycleState {
  int64_t arrival_ns = 0;
  int64_t last_ns = 0;          ///< time of the last state-changing edge
  int32_t inflight = 0;         ///< the query's attempts on threads
  int32_t retries_pending = 0;  ///< failed attempts awaiting re-dispatch
  bool launched = false;        ///< first pipeline launch seen
  LatencyBreakdown breakdown;   ///< valid once the terminal edge applied
};

/// The one transition function of the four-bucket decomposition, over
/// integer nanoseconds: kArrival starts the clock; every other
/// state-changing edge first charges the time since the previous one to
/// the current bucket (service while an attempt runs, else stall while a
/// retry is pending, else queue once launched, else admission), then
/// applies its change; kTerminal stamps the exact total. The deltas
/// telescope from arrival to terminal, so the buckets sum exactly to the
/// total. Causal-context edges (verdicts, passed-over decisions, fairness
/// actions) change nothing.
void ApplyEdge(LifecycleState* state, const TraceEdge& edge);

/// Folds ApplyEdge over a record's edges, which open with its kArrival
/// edge. EpisodeRecorder computed `record.breakdown` with the same calls
/// on every edge, stored or not, so for a record with dropped_edges == 0
/// the result is bit-identical to it, whichever engine produced it.
LatencyBreakdown DeriveBreakdown(const QueryTraceRecord& record);

/// Renders a record as a human-readable timeline plus a per-segment
/// attribution naming the redirection / displacement / guard fallback
/// responsible for each wait segment (`lsched_cli explain`).
std::string RenderExplain(const QueryTraceRecord& record);

/// CSV: one row per edge, per-query columns repeated; header below.
std::string QueryTraceCsvHeader();
void WriteQueryTraceCsv(const std::vector<QueryTraceRecord>& records,
                        std::ostream& os);
/// Parses a CSV produced by WriteQueryTraceCsv. Returns false (leaving
/// `out` in an unspecified state) on a malformed header or row.
bool ParseQueryTraceCsv(std::istream& is, std::vector<QueryTraceRecord>* out);

/// Process-global bounded log of the most recently finished query traces.
/// Thread-safe; Record() is one mutex acquisition per *terminal query*
/// (not per edge), so it stays off the per-work-order hot path.
class QueryTraceLog {
 public:
  explicit QueryTraceLog(size_t capacity = 4096);

  /// Capture master switch (default on). When off, EpisodeRecorder stores
  /// no edges (the decomposition still runs on every one); flipping it
  /// takes effect at the next EpisodeRecorder::Begin().
  void SetCapture(bool on);
  bool capture_enabled() const;

  void Record(QueryTraceRecord record);

  /// All retained records, oldest first.
  std::vector<QueryTraceRecord> Snapshot() const;
  /// Most recent record for `query`; false if none retained.
  bool Find(int64_t query, QueryTraceRecord* out) const;
  size_t size() const;
  void Clear();

  /// Dumps Snapshot() as CSV. Returns false when the file can't be opened.
  bool WriteCsv(const std::string& path) const;

  /// The process-global instance (leaked singleton, like DecisionLog).
  static QueryTraceLog& Global();

 private:
  mutable std::mutex mu_;
  bool capture_ = true;
  Ring<QueryTraceRecord> ring_;
};

}  // namespace obs
}  // namespace lsched

#endif  // LSCHED_OBS_QUERY_TRACE_H_
