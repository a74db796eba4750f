#ifndef LSCHED_EXEC_COORDINATOR_H_
#define LSCHED_EXEC_COORDINATOR_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "exec/episode_recorder.h"
#include "exec/exec_types.h"
#include "exec/query_state.h"
#include "exec/scheduler.h"
#include "exec/scheduling_context.h"
#include "exec/serving_hooks.h"
#include "util/status.h"

namespace lsched {

/// Configuration both engines share. Times are virtual seconds in
/// SimEngine and run-clock seconds in RealEngine.
struct EngineConfig {
  int num_threads = 8;
  /// Scheduled worker-pool elasticity (paper §5.1): a grow adds fresh
  /// worker slots (kThreadAdded); a shrink retires idle slots immediately
  /// and busy slots as their in-flight work order completes
  /// (kThreadRemoved). A grow first cancels shrink retirements still
  /// waiting on busy slots, so the live slots never exceed the pool size.
  std::vector<ThreadPoolEvent> thread_events;
  /// Retry/backoff policy for failed work-order attempts (DESIGN.md §10).
  RetryPolicy retry;
  /// Per-work-order deadline; 0 = none. SimEngine fails an attempt that
  /// would run longer at the deadline. RealEngine fails an attempt still
  /// queued past it and accepts (but counts) one that overruns it while
  /// executing, since a re-execution would double-apply the kernel's side
  /// effects.
  double work_order_deadline_seconds = 0.0;
  /// Scripted cancellations, applied at their times. A cancel at or before
  /// the query's arrival cancels it on admission. RealEngine serving mode
  /// cancels via CancelQuery() instead.
  std::vector<CancelRequest> cancels;
  /// Serving-layer callbacks (admission control, fairness/priority decision
  /// post-processing, tenant accounting; DESIGN.md §11). Not owned; null =
  /// every arrival admitted, decisions applied verbatim.
  ServingHooks* hooks = nullptr;
};

/// How one dispatched attempt ended, reported by the backend.
struct AttemptResult {
  int slot = -1;          ///< worker slot the coordinator reserved
  int64_t pipeline = -1;  ///< Pipeline::id
  int wo_index = -1;
  Status status;          ///< not ok: the attempt failed (retry or fail)
  bool expired = false;   ///< the attempt ran past the work-order deadline
  double seconds = 0.0;   ///< attempt duration (telemetry)
  /// Service charged to the query's progress estimators on success.
  double service_seconds = 0.0;
  /// Fresh work order the slot went on to run under its lease
  /// (Pipeline::ClaimContinuation), or -1: the slot was handed back.
  int continued_wo = -1;
};

/// A launched pipeline: one execution root plus the operators fused behind
/// it, and the dispatch state of its fused work orders. It stays at one
/// address from launch to retirement because a dispatch leases it to a
/// slot (DESIGN.md §14.5): the slot's worker reads `chain` and claims further
/// work orders from `next_wo` itself, on its own thread.
struct Pipeline {
  int64_t id = -1;  ///< launch ordinal within the run (stable handle)
  QueryId query = kInvalidQuery;
  std::vector<int> chain;  ///< member op ids, root first; fixed at launch
  int total_fused = 0;     ///< fixed at launch
  int dispatched = 0;  ///< attempts handed to slots (incl. retries)
  int inflight = 0;
  /// Next fresh work-order index. The coordinator's dispatch and lease
  /// holders both claim with fetch_add, so each index is handed out once;
  /// the cursor may run past total_fused.
  std::atomic<int> next_wo{0};
  /// Whether lease holders may claim more work; kept by the coordinator.
  std::atomic<bool> lease_open{true};
  int succeeded = 0;   ///< work orders that completed successfully
  bool dead = false;   ///< query reached a terminal state; stop dispatching
  std::vector<int> retry_ready;  ///< failed work orders awaiting re-dispatch
  std::unordered_map<int, int> attempts;  ///< failed attempts per work order
  double not_before = 0.0;  ///< retry backoff: no dispatch before this time
  /// Cost-model seconds per fused work order (0 when the backend has none).
  double est_seconds_per_fused = 0.0;
  double created_at = 0.0;   ///< engine time the pipeline was launched
  int64_t decision_id = -1;  ///< obs decision-log id that launched it

  bool HasFreshOrRetryWork() const {
    return !retry_ready.empty() || next_wo.load() < total_fused;
  }

  /// The continuation rule, the one place both engines apply it: after
  /// attempt `r` of a slot leasing this pipeline, returns the fresh work
  /// order the slot runs next, or -1 when it hands the slot back (the
  /// attempt failed or expired, the coordinator closed the lease, or no
  /// fresh work order is left). Callable from any thread while the lease
  /// is held.
  int ClaimContinuation(const AttemptResult& r) {
    if (!r.status.ok() || r.expired || !lease_open.load()) return -1;
    const int wo = next_wo.fetch_add(1);
    return wo < total_fused ? wo : -1;
  }
};

/// What the Coordinator needs from an execution substrate (DESIGN.md §14):
/// SimEngine's virtual-time event queue and cost model, RealEngine's worker
/// pool. Every call comes from the coordinator's thread.
class ExecutorBackend {
 public:
  virtual ~ExecutorBackend() = default;

  /// Capability flag: the backend cannot stream rows across threads into a
  /// standalone root, so a pipeline may launch only at a root whose
  /// producers have all completed.
  virtual bool roots_need_complete_producers() const = 0;

  /// Sizes a pipeline being launched: sets total_fused (>= 1) and, for a
  /// cost-model backend, est_seconds_per_fused.
  virtual void PreparePipeline(const QueryState& q, Pipeline* p) = 0;

  /// Starts one attempt of fused work order `wo_index` of `p` on `slot`
  /// and leases `p` to the slot. Called before the coordinator's dispatch
  /// bookkeeping: `p.dispatched` and `q.assigned_threads()` do not count
  /// this attempt yet. The backend hands each outcome to
  /// Coordinator::Complete; after an attempt the slot may go on with
  /// `p.ClaimContinuation(result)` and report the claimed index in
  /// AttemptResult::continued_wo. `p` stays valid until a result with
  /// continued_wo == -1 has been handed over.
  virtual void Dispatch(Pipeline& p, const QueryState& q, int slot,
                        int wo_index, double now) = 0;

  /// Memory charged to `op` for one successful fused work order of `p`
  /// that advanced it by `amount` work orders.
  virtual double OperatorMemory(const QueryState& q, const Pipeline& p,
                                int op, double amount) = 0;

  /// `q` passed admission and is about to reach the scheduler.
  virtual void OnQueryAdmitted(const QueryState& q) { (void)q; }
  /// Every work order of `op` has succeeded.
  virtual void OnOperatorCompleted(const QueryState& q, int op) {
    (void)q;
    (void)op;
  }
  /// `q` is terminal and no attempt of it is in flight: release its
  /// per-query execution state. Called once per admitted query.
  virtual void ReleaseQuery(const QueryState& q) { (void)q; }

  virtual void OnSlotAdded(int slot, double now) {
    (void)slot;
    (void)now;
  }
  /// `slot` handed back its lease and stays in the pool.
  virtual void OnSlotFreed(int slot, double now) {
    (void)slot;
    (void)now;
  }
  virtual void OnSlotRetired(int slot, double now) {
    (void)slot;
    (void)now;
  }
  /// Pipeline `pipeline` holds a retry that becomes dispatchable at
  /// `ready_at`; the backend must call AssignThreads by then.
  virtual void OnRetryBackoff(int64_t pipeline, double ready_at) {
    (void)pipeline;
    (void)ready_at;
  }
  /// AssignThreads stopped. `work_waiting`: live query work exists that no
  /// free slot can run right now, so waiting slots are stalled, not idle.
  virtual void OnDispatchStopped(bool work_waiting) { (void)work_waiting; }
};

/// The scheduler thread of the paper's §2 engine, written once for both
/// engines (DESIGN.md §14). It owns the query table, the
/// SchedulingContext, the launched pipelines and the episode recorder;
/// applies admission (fault point, ServingHooks shed/displace), scheduler
/// invocation and decision filtering, pipeline launches, dispatch,
/// completion processing (discard, retry/backoff, operator advance, query
/// done), termination, pool elasticity and the deadlock fallback. Engines
/// own time and execution: they feed it arrivals, cancels, pool changes and
/// attempt results through this API, and run attempts through the
/// ExecutorBackend. Not thread-safe; one coordinator thread per engine.
class Coordinator {
 public:
  /// Scheduler re-invocations per event while it keeps launching.
  static constexpr int kMaxRoundsPerEvent = 128;
  /// Retry backoff comparisons tolerate this much clock rounding.
  static constexpr double kBackoffEpsilon = 1e-12;

  /// `config` and `backend` must outlive the coordinator.
  Coordinator(const EngineConfig* config, ExecutorBackend* backend);

  /// Starts a run: clears every table, sizes the query table, resets the
  /// scheduler, and adds `config.num_threads` worker slots.
  void Begin(const char* engine_name, Scheduler* scheduler, bool virtual_time,
             size_t num_queries);

  /// Arrival of query `id`: probes the query_admit fault point, consults
  /// the serving hooks (shed / displace), then fires the arrival event and
  /// backfills free slots.
  void Admit(QueryId id, QueryPlan plan, const QueryTag& tag, double now);

  /// Records query `id` as refused at the door with terminal `status`
  /// (admit-and-cancel, drain-time shed) without consulting admission.
  void Refuse(QueryId id, QueryPlan plan, const QueryTag& tag,
              QueryStatus status, double now);

  /// Cancels a live query, tells the scheduler, and backfills the pool.
  /// Returns false for unknown or terminal queries.
  bool Cancel(QueryId id, double now);

  /// Moves a live query to terminal `status`: kills its pipelines
  /// (in-flight attempts are discarded when they come back), removes it
  /// from the scheduling context, and releases it once nothing is in
  /// flight. Safe from scheduler callbacks. Returns false for unknown or
  /// terminal queries.
  bool Terminate(QueryId id, QueryStatus status, double now);

  /// Grows (delta > 0) or shrinks the pool and notifies the scheduler. A
  /// grow cancels pending busy-slot retirements before adding slots.
  void ChangePool(int delta, double now);

  /// Processes one attempt's outcome and the scheduling it triggers. A
  /// result with a continuation is booked as a dispatch of
  /// `continued_wo` onto its slot, which stays busy.
  void Complete(const AttemptResult& result, double now);

  /// Dispatches pending work onto free slots; returns #dispatches.
  int AssignThreads(double now);

  /// True when live queries exist but nothing runs and nothing is pending:
  /// the policy left them stranded and ForceFallback must launch work.
  bool Stranded() const;

  /// Launches the first launchable operator of the oldest live query.
  void ForceFallback(double now);

  // --- readers ------------------------------------------------------------
  /// True once query `id` arrived, was refused, or was admitted-and-
  /// cancelled — also after its state was freed.
  bool HasQuery(QueryId id) const {
    return id >= 0 && static_cast<size_t>(id) < known_.size() &&
           known_[static_cast<size_t>(id)];
  }
  /// The query's state; nullptr once it is terminal, drained and freed.
  const QueryState* query(QueryId id) const {
    return HasQuery(id) ? queries_[static_cast<size_t>(id)].get() : nullptr;
  }
  size_t num_queries() const { return queries_.size(); }
  int terminal_queries() const { return terminal_queries_; }
  bool AnyPendingWork() const;
  int InflightAttempts() const;
  /// Live pipelines in launch order, hence sorted by id.
  const std::vector<std::unique_ptr<Pipeline>>& pipelines() const {
    return pipelines_;
  }
  const SchedulingContext& context() const { return ctx_; }
  EpisodeRecorder& recorder() { return recorder_; }

 private:
  QueryState* NewQuery(QueryId id, QueryPlan plan, const QueryTag& tag,
                       double now);
  /// Terminal bookkeeping for a query refused before admission.
  void FinishRefused(QueryState* q, QueryStatus status, double now,
                     bool notify_refused);
  void InvokeScheduler(const SchedulingEvent& event, double now);
  void ApplyDecision(const SchedulingDecision& decision, double now);
  bool ProducersComplete(const QueryState& q, int root) const;
  /// The query's parallelism cap: its max_threads, else the pool size.
  int CapFor(const QueryState& q) const;
  /// AssignThreads without the end-of-entry-point bookkeeping.
  int DispatchPending(double now);
  /// Starts the pipeline's next retry or fresh work order on `slot`;
  /// false when a lease holder claimed the last fresh one first.
  bool DispatchTo(int slot, Pipeline& p, double now);
  /// Counts a dispatch of `p` onto a slot already marked busy.
  void BookDispatch(Pipeline& p, bool is_retry, double now);
  void Notify(SchedulingEventType type, QueryId query, double now);
  void ReleaseIfDrained(const QueryState& q);
  Pipeline& PipelineById(int64_t id);
  /// Drops pipelines with no fresh or retry work and nothing in flight,
  /// frees the state of drained terminal queries, then opens or closes
  /// every lease (lease_open): a lease closes while its query is terminal
  /// or over its cap, its pipeline holds a retry, or a pool shrink waits
  /// for busy slots. Runs at the end of each entry point, never while
  /// callers may hold references.
  void RetireFinished();

  const EngineConfig* config_;
  ExecutorBackend* backend_;
  Scheduler* scheduler_ = nullptr;

  std::vector<std::unique_ptr<QueryState>> queries_;  ///< indexed by id
  std::vector<bool> known_;  ///< indexed by id; see HasQuery
  /// Terminal queries with nothing in flight, freed by RetireFinished.
  std::vector<QueryId> drained_;
  SchedulingContext ctx_;
  /// Live pipelines in launch order, hence sorted by id. Boxed: leases
  /// hold their addresses.
  std::vector<std::unique_ptr<Pipeline>> pipelines_;
  std::vector<size_t> candidates_;  ///< AssignThreads scratch
  EpisodeRecorder recorder_;
  /// Decision-log id of the in-flight scheduler/fallback decision; tags
  /// pipelines created by ApplyDecision.
  int64_t current_decision_id_ = -1;
  int64_t launches_ = 0;
  int terminal_queries_ = 0;
  int next_slot_id_ = 0;
  /// Busy slots a pool shrink retires as their attempt completes.
  int pending_slot_removals_ = 0;
};

}  // namespace lsched

#endif  // LSCHED_EXEC_COORDINATOR_H_
