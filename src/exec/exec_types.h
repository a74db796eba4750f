#ifndef LSCHED_EXEC_EXEC_TYPES_H_
#define LSCHED_EXEC_EXEC_TYPES_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace lsched {

using QueryId = int64_t;
inline constexpr QueryId kInvalidQuery = -1;

/// --- multi-tenant serving (DESIGN.md §11) ---------------------------------

using TenantId = int32_t;
inline constexpr TenantId kDefaultTenant = 0;

/// Priority class of a query. Strict ordering: the serving layer never
/// schedules a lower class while a higher class has schedulable work and
/// free capacity (enforced at decision post-processing, not inside
/// policies).
enum class QueryPriority : uint8_t {
  kLow = 0,
  kNormal = 1,
  kHigh = 2,
};

const char* QueryPriorityName(QueryPriority p);

/// Serving metadata attached to a query at submission. Engines thread it
/// through QueryState untouched; only the serving layer (admission,
/// fairness, per-tenant metrics) interprets it.
struct QueryTag {
  TenantId tenant = kDefaultTenant;
  QueryPriority priority = QueryPriority::kNormal;
};

/// Converts an engine timestamp (virtual or wall seconds) to the integer
/// nanosecond timebase of LatencyBreakdown. One shared rounding rule for
/// both engines, so identical event sequences derive bit-identical
/// decompositions.
inline int64_t LatencyNs(double seconds) {
  return static_cast<int64_t>(seconds * 1e9 + (seconds >= 0.0 ? 0.5 : -0.5));
}

/// Canonical latency decomposition of one query's lifetime (DESIGN.md
/// §8.2): where every nanosecond between arrival and the terminal
/// transition went. Segments are integer nanoseconds accumulated by
/// telescoping the engine's event stream, so the invariant
///
///   admission_ns + queue_ns + service_ns + stall_ns == total_ns
///
/// holds EXACTLY (integer equality, no floating-point slop) for every
/// terminal query, in both engines.
///
///  * admission_ns — arrival until the first pipeline launch (the query sat
///    in the admitted set; for refused/shed queries the whole lifetime).
///  * queue_ns    — launched, but no work-order attempt in flight and no
///    retry pending (waiting for a thread).
///  * service_ns  — at least one work-order attempt of the query in flight.
///  * stall_ns    — no attempt in flight but a failed attempt awaits
///    re-dispatch (retry backoff / fault recovery).
struct LatencyBreakdown {
  int64_t admission_ns = 0;
  int64_t queue_ns = 0;
  int64_t service_ns = 0;
  int64_t stall_ns = 0;
  int64_t total_ns = 0;  ///< terminal time - arrival time
  int32_t dispatches = 0;  ///< work-order attempts handed to threads
  int32_t retries = 0;     ///< failed attempts queued for re-dispatch
  bool valid = false;      ///< set when the query reached a terminal state

  int64_t SumNs() const {
    return admission_ns + queue_ns + service_ns + stall_ns;
  }
  double admission_seconds() const { return admission_ns * 1e-9; }
  double queue_seconds() const { return queue_ns * 1e-9; }
  double service_seconds() const { return service_ns * 1e-9; }
  double stall_seconds() const { return stall_ns * 1e-9; }
  double total_seconds() const { return total_ns * 1e-9; }
};

/// The major events that trigger the scheduler (paper §5.2). The scheduler
/// is NOT invoked per work order — only on these events.
enum class SchedulingEventType : uint8_t {
  kQueryArrival = 0,      ///< a new query entered the system
  kOperatorCompleted,     ///< a scheduled operator finished all work orders
  kThreadIdle,            ///< a worker thread has no more assigned work
  kThreadAdded,           ///< the worker pool grew
  kThreadRemoved,         ///< the worker pool shrank
  kQueryCancelled,        ///< a query left the system without completing
                          ///< (cancellation or failure) and freed its threads
};

const char* SchedulingEventTypeName(SchedulingEventType t);

/// A scheduled change to the worker pool size (paper §5.1: "the worker
/// threads pool can shrink or grow dynamically during execution"; §5.2
/// events (1)). Positive delta adds threads; negative removes idle threads
/// (busy ones retire when their current work order completes). Times are
/// virtual seconds in SimEngine and run-clock seconds in RealEngine.
struct ThreadPoolEvent {
  double time = 0.0;
  int delta = 0;
};

/// Query lifecycle (DESIGN.md §10): ADMITTED -> RUNNING -> {DONE, CANCELLED,
/// FAILED}. Cancellation/failure is legal from either live state; terminal
/// states are absorbing, which makes double-cancel and cancel-after-done
/// structural no-ops.
enum class QueryStatus : uint8_t {
  kAdmitted = 0,  ///< arrived, no pipeline launched yet
  kRunning,       ///< at least one pipeline launched
  kDone,          ///< all operators completed
  kCancelled,     ///< torn down by CancelQuery / a scripted cancellation
  kFailed,        ///< a work order exhausted its retry budget (or admission
                  ///< was rejected)
  kShed,          ///< load-shed by admission control before any work ran
                  ///< (DESIGN.md §11): the system refused the query under
                  ///< overload, or displaced it for a higher-priority arrival
};

const char* QueryStatusName(QueryStatus s);

inline bool IsTerminalStatus(QueryStatus s) {
  return s == QueryStatus::kDone || s == QueryStatus::kCancelled ||
         s == QueryStatus::kFailed || s == QueryStatus::kShed;
}

/// Retry/backoff policy for failed or deadline-expired work-order attempts:
/// a work order may be retried `max_retries` times; one more failure marks
/// the whole query FAILED. Backoff delays the pipeline's next dispatch.
struct RetryPolicy {
  int max_retries = 2;
  double backoff_seconds = 0.0;       ///< delay before the first retry
  double backoff_multiplier = 2.0;    ///< exponential growth per retry
  /// Backoff before retry number `attempt` (1-based: the delay after the
  /// attempt-th failure of a work order).
  double BackoffFor(int attempt) const {
    double b = backoff_seconds;
    for (int i = 1; i < attempt; ++i) b *= backoff_multiplier;
    return b;
  }
};

/// A scripted cancellation: cancel `query` at engine time `time` (virtual
/// seconds in SimEngine, run-clock seconds in RealEngine). A cancel at or
/// before the query's arrival cancels it on admission, before any work runs.
struct CancelRequest {
  QueryId query = kInvalidQuery;
  double time = 0.0;
};

struct SchedulingEvent {
  SchedulingEventType type = SchedulingEventType::kQueryArrival;
  double time = 0.0;
  QueryId query = kInvalidQuery;  ///< for arrival / operator completion
  int op = -1;                    ///< for operator completion
  int thread = -1;                ///< for thread events
};

/// One unit of work: one (possibly fused pipeline) work order. In the
/// simulator a fused work order pushes one root block through the whole
/// scheduled pipeline; in the real engine it additionally carries the block
/// index to process.
struct WorkOrder {
  QueryId query = kInvalidQuery;
  std::vector<int> chain;  ///< pipeline member op ids, root first
  int index = 0;           ///< work-order sequence number within the pipeline
  double est_seconds = 0.0;
};

/// A scheduling decision: which pipelines to launch (execution root +
/// pipeline degree, paper §5.3.1–5.3.2) and per-query thread caps
/// (parallelism degree, §5.3.3). Queries without an entry keep their cap.
struct PipelineChoice {
  QueryId query = kInvalidQuery;
  int root_op = -1;
  int degree = 1;  ///< number of operators in the pipeline (>= 1)
};

struct ParallelismChoice {
  QueryId query = kInvalidQuery;
  int max_threads = 0;
};

/// A fairness redirection or injection the serving layer applied to a
/// decision (ServingHooks::FilterDecision); the episode recorder turns each
/// one into causal query-trace edges (kRedirected/kInjected).
struct ServingAction {
  enum Kind : int32_t {
    kRedirect = 0,         ///< `query`'s launch rewritten to `other`
    kInjectPriority = 1,   ///< launch injected for starved class `query`
    kInjectShare = 2,      ///< launch injected for under-share `query`
  };
  int32_t kind = kRedirect;
  QueryId query = kInvalidQuery;
  QueryId other = kInvalidQuery;
};

struct SchedulingDecision {
  std::vector<PipelineChoice> pipelines;
  std::vector<ParallelismChoice> parallelism;
  /// The policy's own score for its first pipeline (log-probability for
  /// the learned policies, the ranking key for SJF/HPF/CriticalPath); NaN
  /// when the policy reports none. The decision log records it as the
  /// predicted score the drift monitor compares with the realized cost.
  double score = std::numeric_limits<double>::quiet_NaN();
  /// Appended by ServingHooks::FilterDecision, in the order applied.
  std::vector<ServingAction> serving_actions{};
  /// Set by GuardedPolicy when FIFO answered instead of the guarded policy:
  /// why it fell back (a string literal, e.g. "exception"). The decision
  /// log row is then marked as a fallback with this reason.
  const char* fallback_reason = nullptr;

  bool empty() const { return pipelines.empty() && parallelism.empty(); }
};

/// Per-thread status exposed to schedulers (for Q-ATH / Q-FTH / Q-LOC).
struct ThreadInfo {
  int id = -1;
  bool busy = false;
  QueryId running_query = kInvalidQuery;  ///< query currently executing
  QueryId last_query = kInvalidQuery;     ///< most recent query executed
};

}  // namespace lsched

#endif  // LSCHED_EXEC_EXEC_TYPES_H_
