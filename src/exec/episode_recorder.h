#ifndef LSCHED_EXEC_EPISODE_RECORDER_H_
#define LSCHED_EXEC_EPISODE_RECORDER_H_

#include <array>
#include <cstdint>
#include <deque>
#include <vector>

#include "exec/episode_result.h"
#include "exec/exec_types.h"
#include "exec/scheduler.h"
#include "exec/scheduling_context.h"
#include "obs/decision_log.h"
#include "obs/metrics.h"
#include "obs/query_trace.h"

namespace lsched {

/// Shared telemetry assembly for SimEngine and RealEngine: owns the
/// per-run EpisodeResult (latency vectors, work-order conservation
/// counters, decision series) and mirrors every event into the
/// observability layer (metrics registry, tracer, scheduler decision log).
/// Engines report raw events; this class is the single place that knows
/// how EpisodeResult and the `exec.*`/`sched.*` metrics are derived from
/// them.
///
/// Not thread-safe: all methods must be called from the engine's
/// coordinator thread (both engines already funnel scheduling state
/// through one thread).
/// Episode-local histogram accumulation: plain increments on the owning
/// (coordinator) thread, merged into the shared registry once per episode.
/// Keeps the per-work-order hot path free of atomics and TLS lookups.
struct LocalHistogram {
  obs::HistogramSnapshot snap;

  void Observe(double value) {
    const size_t b = obs::Histogram::BucketFor(value);
    if (b >= snap.bucket_counts.size()) snap.bucket_counts.resize(b + 1, 0);
    ++snap.bucket_counts[b];
    ++snap.count;
    snap.sum += value;
  }
  void Reset() { snap = obs::HistogramSnapshot{}; }
};

class EpisodeRecorder {
 public:
  EpisodeRecorder();

  /// Starts a fresh episode. `virtual_time` selects the trace timebase:
  /// true = engine `now` is virtual seconds (SimEngine), false = use the
  /// process-wide wall clock (RealEngine). `num_queries` sizes the
  /// per-query final-status vector (0 = lifecycle tracking unused).
  void Begin(const char* engine_name, Scheduler* scheduler, bool virtual_time,
             size_t num_queries = 0);

  /// A query entered the system (QueryState just created, tag applied).
  /// Must precede every other event of the query: its kArrival edge
  /// starts the latency-decomposition clock at `query.arrival_time()`.
  /// Also extends the final-status vector to cover the query, for serving
  /// mode where the query table grows as submissions arrive instead of
  /// being sized at Begin (newly covered ids default to ADMITTED).
  void OnQueryArrival(const QueryState& query);

  /// The ServingHooks admission verdict for `qid` (trace edge only; the
  /// decomposition does not change until work happens). `displaced` is the
  /// victim the verdict evicted, kInvalidQuery when none.
  void OnAdmissionVerdict(QueryId qid, double now, bool admitted,
                          QueryId displaced);

  /// `victim` is about to be terminated kShed to make room for `newcomer`
  /// (priority displacement). Must be called BEFORE the victim's
  /// OnQueryTerminated so the edge lands in its trace.
  void OnQueryDisplaced(QueryId victim, QueryId newcomer, double now);

  /// One scheduler invocation (after Schedule() returned `decision`).
  /// Returns the decision-log id for attributing launched pipelines, or
  /// -1 when observability is off.
  int64_t OnSchedulerInvocation(const SchedulingEvent& event,
                                const SchedulingContext& ctx,
                                const SchedulingDecision& decision,
                                double wall_seconds);

  /// A pipeline accepted from decision `decision_id` (-1 if untracked).
  void OnPipelineLaunched(int64_t decision_id, QueryId query, int root_op,
                          int degree, int64_t planned_work_orders,
                          double now);

  /// A work order of `query` handed to a thread at engine time `now`.
  /// `retry` marks the re-dispatch of a previously failed attempt;
  /// `queue_wait_seconds` is the engine time between the pipeline's launch
  /// and this dispatch; `inflight_now` the number of busy threads
  /// including this one.
  void OnWorkOrderDispatched(QueryId query, bool retry, int inflight_now,
                             double queue_wait_seconds, double now);

  /// A work order of `query` finished at `now`, taking `seconds` of engine
  /// time.
  void OnWorkOrderCompleted(QueryId query, int64_t decision_id,
                            double seconds, double now);

  /// A dispatched work-order attempt of `query` errored or exceeded its
  /// deadline at `now`.
  void OnWorkOrderFailed(QueryId query, double now);

  /// A failed attempt of `query` was queued for re-dispatch at `now`
  /// (bumps exec.retry_total).
  void OnWorkOrderRetried(QueryId query, double now);

  /// A dispatched attempt came back after its query reached a terminal
  /// state; the result was thrown away.
  void OnWorkOrderDiscarded();

  /// An attempt was observed past its per-work-order deadline (counted even
  /// when the result is still accepted, e.g. post-execution overruns in the
  /// real engine).
  void OnWorkOrderExpired();

  /// Query completion bookkeeping; invokes scheduler->OnQueryCompleted and
  /// returns the latency.
  double OnQueryCompleted(QueryState* query, double now);

  /// A query left the system without completing. `query->status()` must
  /// already be terminal (kCancelled, kFailed, or kShed);
  /// `dropped_work_orders` is the number of planned-but-never-completed
  /// work orders it abandoned. Bumps exec.cancel_total / exec.fail_total.
  /// Like OnQueryCompleted, writes the finished LatencyBreakdown onto
  /// `query` (which is why it takes a mutable pointer) *before* the
  /// engines run ServingHooks::OnQueryTerminal.
  void OnQueryTerminated(QueryState* query, double now,
                         int64_t dropped_work_orders);

  /// The engine's deadlock guard scheduled work itself, launching `chosen`.
  /// Returns a decision-log id for the fallback pipelines. Queries in `ctx`
  /// with schedulable work that the guard passed over get kFallback trace
  /// edges, as they do for a GuardedPolicy fallback decision.
  int64_t OnFallback(double now, const SchedulingContext& ctx, QueryId chosen);

  /// Per-worker state buckets from the engine's accountants (DESIGN.md
  /// §8.3). Stores them into the result, recomputes the episode's
  /// scheduler-overhead fraction, and publishes the
  /// exec.worker<i>.*_seconds + exec.sched_overhead_fraction gauges.
  /// Engines call this with exact buckets once the pool has stopped, and
  /// may also call it with live (racy) reads on window flushes so a
  /// serving daemon's /metrics stays fresh.
  void OnWorkerStates(std::vector<prof::WorkerStateBuckets> buckets);

  /// Publishes everything accumulated since the last flush to the shared
  /// observability layer — registry counters (the growth of the matching
  /// EpisodeResult counts), histograms, and per-decision realized costs
  /// into the decision log (which feeds the drift monitor's back-fill
  /// observer) — WITHOUT ending the episode. A long-running serving stream
  /// calls this on a rolling window so /metrics and the drift score stay
  /// fresh with no episode-end flush; Finalize reuses it for the terminal
  /// flush, so episode-mode callers see identical totals. Idempotent when
  /// nothing accumulated.
  void FlushWindow();

  /// A copy of the running result with the derived aggregates (avg/p90,
  /// makespan = `now`) computed — an exact mid-stream snapshot. Does not
  /// mutate recorder state.
  EpisodeResult SnapshotResult(double now) const;

  /// Computes the derived aggregates (avg/p90/makespan) and flushes the
  /// final window.
  void Finalize(double makespan);

  EpisodeResult& result() { return result_; }
  const EpisodeResult& result() const { return result_; }
  EpisodeResult Take() { return std::move(result_); }

 private:
  /// One query's lifecycle: the decomposition state every edge is
  /// applied to (DESIGN.md §8.2), plus the captured edges, published with
  /// the trace at finish. The decomposition is plain integer arithmetic
  /// and always runs, like the conservation counters; only the edge
  /// capture is gated.
  struct QueryTimeline {
    obs::LifecycleState state;
    std::vector<obs::TraceEdge> edges;
    int64_t dropped_edges = 0;
    bool finished() const { return state.breakdown.valid; }
  };

  /// The one record path of a lifecycle event: applies `edge` to `qid`'s
  /// state (every edge, also those past the capture cap), stores it when
  /// capture is on, and emits the Chrome instant of launch and terminal
  /// edges. A terminal edge's value is stamped with the exact latency.
  /// Returns the query's timeline, or nullptr when the query is retired
  /// or already finished (the edge is then ignored).
  QueryTimeline* Record(QueryId qid, obs::TraceEdge edge);
  /// Records the passed-over edge `edge` for every query in
  /// considered_scratch_ except the chosen one (`edge.b`).
  void RecordPassedOver(const obs::TraceEdge& edge);
  /// Records the terminal edge; writes the breakdown onto `query` and into
  /// the EpisodeResult aggregates; publishes the lifetime trace.
  void FinishTimeline(QueryState* query, double now);

  EpisodeResult result_;
  Scheduler* scheduler_ = nullptr;
  const char* engine_name_ = "";
  bool virtual_time_ = false;
  /// Timelines of the queries from id timeline_base_ on, indexed by
  /// id - timeline_base_. Finished timelines at the front are retired (their
  /// breakdown is in result_.query_breakdowns), so a serving stream holds
  /// slots only from its oldest live query on.
  std::deque<QueryTimeline> timelines_;
  QueryId timeline_base_ = 0;
  bool trace_on_ = false;  ///< edge capture active (set at Begin)
  /// Per-decision scratch: queries with a schedulable op (the passed-over
  /// set), reused to avoid per-decision allocation.
  std::vector<QueryId> considered_scratch_;

  // Realized work-order cost per decision, accumulated lock-free on the
  // coordinator thread and handed to the global decision log by
  // FlushRealized. Indexed by decision_id - realized_base_.
  int64_t realized_base_ = -1;
  std::vector<double> realized_seconds_;
  /// The buffer is handed over once it spans this many decision ids, while
  /// its oldest record is still in the log's ring: a session without flush
  /// windows would otherwise hold every cost until the end, when most of
  /// their records are evicted.
  static constexpr size_t kRealizedFlushSpan =
      obs::DecisionLog::kDefaultCapacity / 2;
  /// Back-fills the buffered costs into the decision log (which notifies
  /// its back-fill observer, e.g. the drift monitor) and empties the buffer.
  void FlushRealized();

  /// The registry counters derived from EpisodeResult: Totals() reads
  /// their current values from result_, in the order of counters_. Each
  /// FlushWindow publishes the growth since the previous flush; the
  /// watermark advances on every flush, so a window recorded with obs
  /// disabled publishes nothing.
  static constexpr size_t kNumDerivedCounters = 10;
  using CounterTotals = std::array<int64_t, kNumDerivedCounters>;
  CounterTotals Totals() const;
  std::array<obs::Counter*, kNumDerivedCounters> counters_{};
  CounterTotals flushed_totals_{};
  /// query_latencies[0, flushed_latencies_) are already in the histogram.
  size_t flushed_latencies_ = 0;
  /// High-water already published by an earlier FlushWindow (gauge Set is
  /// monotone within an episode, so re-publishing is harmless but skipped).
  int flushed_inflight_high_water_ = 0;
  // Episode-local histograms of values EpisodeResult does not keep; each
  // flush merges them into the registry in one batch so the per-event
  // paths never touch shared state.
  LocalHistogram lh_decision_seconds_;
  LocalHistogram lh_pipeline_degree_;
  LocalHistogram lh_queue_wait_seconds_;
  LocalHistogram lh_work_order_seconds_;

  // Cached metric handles (registry lookups once per process).
  obs::Gauge* inflight_high_water_;
  obs::Gauge* sched_overhead_fraction_;
  /// Lazily grown per-worker gauge handles, one per accounting state, so
  /// rolling OnWorkerStates calls never rebuild metric-name strings.
  std::vector<std::array<obs::Gauge*, prof::kNumWorkerStates>> worker_gauges_;
  obs::Histogram* decision_seconds_;
  obs::Histogram* pipeline_degree_;
  obs::Histogram* queue_wait_seconds_;
  obs::Histogram* work_order_seconds_;
  obs::Histogram* query_latency_seconds_;
};

}  // namespace lsched

#endif  // LSCHED_EXEC_EPISODE_RECORDER_H_
