#ifndef LSCHED_EXEC_REAL_ENGINE_H_
#define LSCHED_EXEC_REAL_ENGINE_H_

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "exec/coordinator.h"
#include "exec/episode_result.h"
#include "exec/kernels.h"
#include "exec/scheduler.h"
#include "exec/worklist.h"
#include "storage/catalog.h"
#include "util/clock.h"

namespace lsched {

/// Elasticity (`thread_events`) operates on the LOGICAL worker slots the
/// coordinator reserves work against; physical worker threads are sized
/// once at spawn for the PEAK slot count (workers are interchangeable
/// behind the shared worklist, so a surplus physical worker simply parks
/// when fewer slots exist).
struct RealEngineConfig : EngineConfig {
  size_t chunk_rows = 4096;
  /// Rolling telemetry window: after this many additional terminal queries
  /// the recorder flushes to the shared observability layer and refreshes
  /// the thread-safe Snapshot(). 0 = flush only when the run/drain ends.
  int flush_window_queries = 0;
};

struct RealQuerySubmission {
  QueryPlan plan;
  double arrival_offset_seconds = 0.0;  ///< wall-clock offset from run start
  QueryTag tag{};  ///< tenant/priority (defaulted for single-tenant runs)
};

/// Result of a real execution run: scheduling telemetry plus per-query sink
/// output sizes/checksums for correctness verification.
struct RealRunResult {
  EpisodeResult episode;
  std::vector<int64_t> sink_row_counts;
  std::vector<double> sink_checksums;
};

/// Work-order execution engine with REAL worker threads running REAL
/// relational kernels over catalog blocks (the Quickstep-substitute
/// substrate, paper §2/§5.1): one coordinator ("scheduler thread") plus a
/// pool of workers, each executing fused pipeline work orders. Scheduling
/// policy decisions come from the same Scheduler interface the simulator
/// uses, so any policy (heuristic or learned) drives real execution
/// unchanged.
///
/// Scheduling itself is the shared Coordinator (DESIGN.md §14); RealEngine
/// is its worker-pool backend. Two modes drive it:
///
///  - Episode mode (`Run`): a fixed workload with scripted arrival offsets
///    runs to completion on the calling thread; the pool tears down at the
///    end. This is the historical one-shot path used by training/eval.
///
///  - Serving mode (`StartServing`/`Submit`/`Drain`, DESIGN.md §11): a
///    long-running service. A dedicated coordinator thread owns all
///    scheduling state; the worker pool never tears down between queries;
///    scheduler/policy state and the incremental SchedulingContext (with
///    its encoding caches) persist across the whole stream. Submit() is
///    thread-safe ingress; Drain() stops intake (queued-but-unadmitted
///    submissions are shed), lets running queries finish
///    (drain-don't-preempt), then tears down and returns the telemetry.
///
/// Simplification vs. the simulator: an execution root must have all its
/// producers completed (cross-thread producer/consumer streaming is not
/// supported; in-chain pipelining is). The backend declares this through
/// ExecutorBackend::roots_need_complete_producers.
class RealEngine : private ExecutorBackend {
 public:
  RealEngine(const Catalog* catalog, RealEngineConfig config);
  ~RealEngine();

  RealRunResult Run(const std::vector<RealQuerySubmission>& workload,
                    Scheduler* scheduler);

  /// Requests cancellation of a live query. Thread-safe; may be called from
  /// any thread while Run() or serving is active. The coordinator applies
  /// it promptly: the query is marked CANCELLED, its pending work orders
  /// are dropped, in-flight attempts are discarded when they come back, and
  /// its execution state (blocks, hash tables, intermediate stores) is
  /// freed as soon as the last in-flight attempt drains. Unknown or
  /// already-terminal queries are no-ops.
  void CancelQuery(QueryId query);

  /// --- long-running serving mode (DESIGN.md §11) ------------------------

  /// Starts the serving coordinator thread and the standing worker pool.
  /// `scheduler` must outlive the serving session; its state persists
  /// across every query of the stream (never Reset between queries).
  void StartServing(Scheduler* scheduler);

  /// Thread-safe ingress: enqueues a query for admission and returns its
  /// QueryId, or kInvalidQuery when not serving / draining. Every id ever
  /// returned reaches exactly one terminal status (DONE, CANCELLED,
  /// FAILED, or SHED) by the time Drain() returns — zero-loss accounting.
  QueryId Submit(QueryPlan plan, QueryTag tag = QueryTag{});

  /// Graceful drain: refuses new submissions, sheds queued-but-unadmitted
  /// ones, lets running queries finish, then joins the coordinator and
  /// worker pool and returns the full-stream telemetry.
  RealRunResult Drain();

  /// Latest rolling-window snapshot of the stream telemetry (refreshed
  /// every `flush_window_queries` terminal queries). Once the run or drain
  /// has ended it holds the final counters and aggregates, but not the
  /// per-query and per-decision vectors: those are in the returned
  /// RealRunResult. Thread-safe.
  EpisodeResult Snapshot() const;

  bool serving() const { return serving_.load(std::memory_order_acquire); }

 private:
  /// A slot's lease on a pipeline, starting at work order `wo_index`.
  struct WorkerTask {
    bool shutdown = false;
    /// Logical worker slot reserved by the coordinator; echoed back in
    /// AttemptResult::slot by whichever physical worker claims the task.
    int slot = -1;
    /// The leased pipeline: the worker reads its chain and claims further
    /// work orders from it (Pipeline::ClaimContinuation). It stays alive
    /// until the worker hands back a result without a continuation.
    Pipeline* lease = nullptr;
    /// Stable pointer to the query's execution. Workers must NOT index
    /// executions_: the serving coordinator grows that vector while workers
    /// run, and a reallocation would race the read. The pointee is safe —
    /// the coordinator only releases an execution once no attempt of its
    /// query is in flight (tasks parked in the worklist count as in
    /// flight from the moment they are pushed).
    QueryExecution* execution = nullptr;
    int wo_index = 0;
    double issued_at = 0.0;  ///< run-clock time of dispatch or latest claim
    double deadline_seconds = 0.0;  ///< per-work-order deadline (0 = none)
  };

  /// Physical worker thread. Tasks arrive through the shared worklist_
  /// (DESIGN.md §12), not per-worker mailboxes; occupancy/locality state
  /// lives in the coordinator's SchedulingContext, keyed by the task's
  /// slot.
  struct Worker {
    std::thread thread;
    int id = -1;
    /// Worker-state accountant (DESIGN.md §8.3): written only by the
    /// worker thread itself; the coordinator/sampler read it racily.
    prof::WorkerAccount acct;
    /// Per-worker arena: row buffers reused across every work order this
    /// thread executes (allocation-free steady state).
    WorkOrderScratch scratch;
  };

  /// A Submit() awaiting the coordinator (guarded by completion_mu_).
  struct PendingSubmission {
    QueryId id = kInvalidQuery;
    QueryPlan plan;
    QueryTag tag;
  };

  void WorkerLoop(int worker_id);
  /// Runs one attempt of `task` (fault point, deadline, kernel).
  AttemptResult RunAttempt(const WorkerTask& task, Worker& w);
  /// Queues a result for the coordinator; `wake` notifies it.
  void PushCompletion(AttemptResult c, bool wake);
  /// The wait-state bucket a parked worker should charge right now,
  /// derived from the drain/stall hints (heuristic — only the bucket sums
  /// are exact).
  prof::WorkerState CurrentWaitState() const {
    if (pool_draining_.load(std::memory_order_relaxed) ||
        draining_.load(std::memory_order_relaxed)) {
      return prof::WorkerState::kDraining;
    }
    return stall_hint_.load(std::memory_order_relaxed)
               ? prof::WorkerState::kStalled
               : prof::WorkerState::kIdle;
  }

  // ExecutorBackend (coordinator thread only).
  bool roots_need_complete_producers() const override { return true; }
  void PreparePipeline(const QueryState& q, Pipeline* p) override;
  void Dispatch(Pipeline& p, const QueryState& q, int slot, int wo_index,
                double now) override;
  double OperatorMemory(const QueryState& q, const Pipeline& p, int op,
                        double amount) override;
  void OnQueryAdmitted(const QueryState& q) override;
  void OnOperatorCompleted(const QueryState& q, int op) override;
  /// Captures a DONE query's sink rows/checksum, then frees the execution
  /// (blocks, hash tables, intermediate stores) — a serving stream must
  /// not accumulate per-query state.
  void ReleaseQuery(const QueryState& q) override;
  void OnDispatchStopped(bool work_waiting) override {
    stall_hint_.store(work_waiting, std::memory_order_relaxed);
  }

  // Coordinator-thread helpers shared by episode and serving mode.
  void SetupRun(Scheduler* scheduler, size_t num_queries);
  void SpawnWorkers();
  /// The physical pool size: the peak logical-slot count over the scripted
  /// thread_events (workers are spawned once, slots come and go).
  int PeakPoolSize() const;
  /// Applies every thread_events entry due at `now`. Called from the top
  /// of both coordinator loops.
  void ApplyDueThreadEvents(double now);
  /// Waits up to 2 ms for a wake and processes every queued result; on
  /// timeout re-runs dispatch (a retry backoff may have elapsed). Queued
  /// ingress or cancels end the wait early. Never schedules under
  /// completion_mu_.
  void WaitAndProcessCompletions(const WallClock& clock);
  /// Waits out attempts still in flight for terminal queries (work-order
  /// conservation), then checks no terminal query leaked execution state.
  void DrainOutstanding();
  void ShutdownPool();
  /// Publishes a rolling telemetry window + refreshes Snapshot() when
  /// flush_window_queries terminal queries accumulated since the last one.
  void MaybeFlushWindow(double now);
  /// Per-worker accountant buckets, in worker-id order. Exact once the
  /// pool has shut down; a racy-but-safe live approximation while workers
  /// run (used for rolling /metrics refreshes).
  std::vector<prof::WorkerStateBuckets> CollectWorkerStates() const;
  /// Ends the run: drains, joins the pool, finalizes telemetry.
  RealRunResult FinishRun(const WallClock& clock);
  /// Serving coordinator body: intake → cancels → completions until drained.
  void ServeLoop();

  const Catalog* catalog_;
  RealEngineConfig config_;
  Coordinator coordinator_;

  // Per-run state (owned by the coordinator thread).
  std::vector<std::unique_ptr<QueryExecution>> executions_;  ///< by QueryId
  std::vector<std::unique_ptr<Worker>> workers_;
  /// Shared dispatch queue (coordinator pushes, workers claim). Created by
  /// SpawnWorkers before any worker thread starts; workers only read the
  /// pointer, so no synchronization is needed on the pointer itself.
  std::unique_ptr<Worklist<WorkerTask>> worklist_;
  /// Sink output captured at query completion (indexed by QueryId; grows
  /// with the query table in serving mode).
  std::vector<int64_t> sink_rows_;
  std::vector<double> sink_checksums_;
  /// Scripted pool events sorted by time, and the next one due.
  std::vector<ThreadPoolEvent> sorted_thread_events_;
  size_t next_thread_event_ = 0;
  /// Terminal-query count at the last rolling-window flush.
  int last_flush_terminals_ = 0;
  /// Run clock, published (before workers spawn) for worker-side deadline
  /// checks; read-only while workers are alive.
  const WallClock* run_clock_ = nullptr;

  /// Worker-state classification hints, read by workers when they go back
  /// to waiting (heuristic — only the bucket sums are exact):
  /// stall_hint_ true = live query work exists that a free worker cannot
  /// run right now (dependency/backoff/parallelism-cap blocked), so a
  /// waiting worker is "stalled", not "idle". Maintained by dispatch.
  std::atomic<bool> stall_hint_{false};
  /// Set for the DrainOutstanding/ShutdownPool teardown window so workers
  /// account their final wait as "draining".
  std::atomic<bool> pool_draining_{false};
  /// SamplingProfiler registration for the live pool (0 = none).
  int profiler_handle_ = 0;

  std::mutex completion_mu_;
  std::condition_variable completion_cv_;
  /// Results awaiting the coordinator. Workers wake it only when a lease
  /// ends; results of continued attempts wait for that wake or the 2 ms
  /// poll, and each wake drains them all.
  std::vector<AttemptResult> completions_;
  /// The coordinator's batch, swapped with completions_ (keeps capacity).
  std::vector<AttemptResult> completion_batch_;
  /// CancelQuery() requests awaiting the coordinator (completion_mu_).
  std::vector<CancelRequest> external_cancels_;

  // --- serving mode -------------------------------------------------------
  std::thread coordinator_thread_;
  Scheduler* serving_scheduler_ = nullptr;
  std::atomic<bool> serving_{false};
  std::atomic<bool> draining_{false};
  /// Owns the run clock for the serving session (episode mode uses a
  /// stack-local clock inside Run).
  std::optional<WallClock> serving_clock_;
  /// Next QueryId to hand out from Submit() (completion_mu_).
  QueryId next_query_id_ = 0;
  /// Submissions awaiting coordinator intake (completion_mu_).
  std::vector<PendingSubmission> pending_submissions_;
  /// Filled by the coordinator as it exits; consumed by Drain().
  RealRunResult serving_result_;
  mutable std::mutex snapshot_mu_;
  EpisodeResult snapshot_;
};

}  // namespace lsched

#endif  // LSCHED_EXEC_REAL_ENGINE_H_
