#include "exec/real_engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "obs/trace.h"
#include "testing/faultpoint.h"
#include "util/clock.h"
#include "util/logging.h"
#include "util/math_util.h"

namespace lsched {

namespace {

/// A copy of `r` without its per-query and per-decision vectors, which
/// stay in `r`: what Snapshot() answers once a run has handed its result
/// over, so the end of a run never holds two copies of them.
EpisodeResult WithoutPerQueryVectors(EpisodeResult& r) {
  EpisodeResult held;
  const auto swap_vectors = [&] {
    held.query_latencies.swap(r.query_latencies);
    held.final_statuses.swap(r.final_statuses);
    held.query_arrivals.swap(r.query_arrivals);
    held.query_completions.swap(r.query_completions);
    held.query_breakdowns.swap(r.query_breakdowns);
    held.decisions.swap(r.decisions);
  };
  swap_vectors();
  EpisodeResult copy = r;
  swap_vectors();
  return copy;
}

}  // namespace

RealEngine::RealEngine(const Catalog* catalog, RealEngineConfig config)
    : catalog_(catalog),
      config_(std::move(config)),
      coordinator_(&config_, this) {}

RealEngine::~RealEngine() {
  // A serving session abandoned without Drain() still tears down cleanly.
  if (serving_.load(std::memory_order_acquire)) Drain();
}

void RealEngine::WorkerLoop(int worker_id) {
  // Trace tid: workers are 1..N so the coordinator's auto-assigned id (0
  // on the first run) stays distinct in chrome://tracing.
  obs::SetThreadId(static_cast<uint32_t>(worker_id) + 1);
  Worker& w = *workers_[static_cast<size_t>(worker_id)];
  // Integer-ns run-clock read for the state accountant. The clock is
  // published before workers spawn and cleared only after the pool joins,
  // so it is non-null for the whole loop.
  const auto now_ns = [this] { return LatencyNs(run_clock_->Now()); };
  w.acct.Start(now_ns(), prof::WorkerState::kIdle);
  prof::WorkerState wait_state = prof::WorkerState::kIdle;
  while (true) {
    WorkerTask task;
    if (!worklist_->PopClaimWait(&task, std::chrono::milliseconds(2))) {
      // Timed out empty-handed: re-classify the parked state from the
      // engine hints. Only record a transition when the state actually
      // changed — Transition charges [last, now) to the outgoing state,
      // so the buckets telescope bit-exactly to wall time regardless of
      // how often the worker re-parks.
      const prof::WorkerState ws = CurrentWaitState();
      if (ws != wait_state) {
        w.acct.Transition(ws, now_ns());
        wait_state = ws;
      }
      continue;
    }
    if (task.shutdown) {
      w.acct.Transition(prof::WorkerState::kDraining,
                        LatencyNs(task.issued_at));
      w.acct.Stop(now_ns());
      return;
    }
    // Split the elapsed wait at the dispatch timestamp: [wait-start,
    // issued_at) stays in the wait state the worker was parked in,
    // [issued_at, here) — the coordinator→worker handoff — is
    // dispatch-overhead. Transition clamps, so a slightly stale issued_at
    // cannot break the telescoping sum.
    w.acct.Transition(prof::WorkerState::kDispatch, LatencyNs(task.issued_at));
    // Run the lease: one attempt after another until the worker hands the
    // slot back. Only that last result wakes the coordinator.
    while (true) {
      w.acct.Transition(prof::WorkerState::kExecuting, now_ns());
      AttemptResult c = RunAttempt(task, w);
      c.continued_wo = task.lease->ClaimContinuation(c);
      const int next = c.continued_wo;
      // Completion-queue plumbing is dispatch-overhead.
      w.acct.Transition(prof::WorkerState::kDispatch, now_ns());
      // After a push without a continuation the lease may be gone.
      PushCompletion(std::move(c), /*wake=*/next < 0);
      if (next < 0) break;
      task.wo_index = next;
      task.issued_at = run_clock_->Now();
    }
    // Park in whichever wait state the engine hints at.
    wait_state = CurrentWaitState();
    w.acct.Transition(wait_state, now_ns());
  }
}

AttemptResult RealEngine::RunAttempt(const WorkerTask& task, Worker& w) {
  const Pipeline& p = *task.lease;
  Stopwatch sw;
  Status st;
  // Fault injection + deadline check run BEFORE kernel execution so a
  // failed attempt has no side effects and is safe to retry verbatim.
  const FaultAction fault = LSCHED_FAULT("work_order_exec", p.query,
                                         run_clock_->Now());
  if (fault &&
      (fault.type == FaultType::kDelay || fault.type == FaultType::kStall)) {
    // Injected worker stall: hold the thread (and its pipeline slot).
    std::this_thread::sleep_for(
        std::chrono::duration<double>(std::max(0.0, fault.param)));
  }
  bool expired = false;
  if (fault && fault.type == FaultType::kError) {
    st = Status::Internal("injected fault at work_order_exec");
  } else if (task.deadline_seconds > 0.0 &&
             run_clock_->Now() - task.issued_at > task.deadline_seconds) {
    st = Status::Internal("work-order deadline exceeded before execution");
    expired = true;
  } else {
    obs::ScopedSpan span("exec.work_order", "exec", "query", p.query,
                         "wo", task.wo_index);
    st = task.execution->ExecuteWorkOrder(p.chain, task.wo_index,
                                          &w.scratch);
  }
  AttemptResult c;
  c.slot = task.slot;
  c.pipeline = p.id;
  c.wo_index = task.wo_index;
  c.seconds = sw.ElapsedSeconds();
  c.service_seconds = c.seconds;
  // An attempt that overran its deadline while executing is accepted:
  // its side effects are applied, so a retry would double-apply them.
  c.expired = expired || (st.ok() && task.deadline_seconds > 0.0 &&
                          c.seconds > task.deadline_seconds);
  c.status = std::move(st);
  return c;
}

void RealEngine::PushCompletion(AttemptResult c, bool wake) {
  {
    std::lock_guard<std::mutex> lock(completion_mu_);
    completions_.push_back(std::move(c));
  }
  if (wake) completion_cv_.notify_one();
}

void RealEngine::CancelQuery(QueryId query) {
  {
    std::lock_guard<std::mutex> lock(completion_mu_);
    external_cancels_.push_back(CancelRequest{query, 0.0});
  }
  // Wake the coordinator so the cancel is applied promptly even when no
  // completion is pending.
  completion_cv_.notify_one();
}

void RealEngine::PreparePipeline(const QueryState& q, Pipeline* p) {
  p->total_fused = executions_[static_cast<size_t>(q.id())]->NumWorkOrders(
      p->chain[0]);
}

void RealEngine::Dispatch(Pipeline& p, const QueryState& q, int slot,
                          int wo_index, double now) {
  WorkerTask task;
  task.slot = slot;
  task.lease = &p;
  task.execution = executions_[static_cast<size_t>(q.id())].get();
  task.wo_index = wo_index;
  task.issued_at = now;
  task.deadline_seconds = config_.work_order_deadline_seconds;
  worklist_->Push(std::move(task));
}

double RealEngine::OperatorMemory(const QueryState& q, const Pipeline& p,
                                  int op, double amount) {
  (void)amount;
  return static_cast<double>(
             executions_[static_cast<size_t>(q.id())]->StateBytes(op)) /
         static_cast<double>(p.total_fused);
}

void RealEngine::OnQueryAdmitted(const QueryState& q) {
  const size_t idx = static_cast<size_t>(q.id());
  if (executions_.size() <= idx) executions_.resize(idx + 1);
  executions_[idx] =
      std::make_unique<QueryExecution>(catalog_, &q.plan(), config_.chunk_rows);
}

void RealEngine::OnOperatorCompleted(const QueryState& q, int op) {
  const Status fin =
      executions_[static_cast<size_t>(q.id())]->FinalizeOperator(op);
  LSCHED_CHECK(fin.ok()) << fin.ToString();
}

void RealEngine::ReleaseQuery(const QueryState& q) {
  const size_t idx = static_cast<size_t>(q.id());
  if (idx >= executions_.size() || executions_[idx] == nullptr) return;
  if (q.status() == QueryStatus::kDone) {
    if (sink_rows_.size() <= idx) {
      sink_rows_.resize(coordinator_.num_queries(), 0);
      sink_checksums_.resize(coordinator_.num_queries(), 0.0);
    }
    int64_t rows = 0;
    double checksum = 0.0;
    for (int sink : q.plan().SinkNodes()) {
      const RowStore& store = executions_[idx]->output(sink);
      rows += static_cast<int64_t>(store.num_rows());
      for (double v : store.rows().data) checksum += v;
    }
    sink_rows_[idx] = rows;
    sink_checksums_[idx] = checksum;
  }
  executions_[idx].reset();
}

void RealEngine::SetupRun(Scheduler* scheduler, size_t num_queries) {
  executions_.clear();
  executions_.resize(num_queries);
  sink_rows_.assign(num_queries, 0);
  sink_checksums_.assign(num_queries, 0.0);
  {
    // CancelQuery/Submit may already be racing with run startup.
    std::lock_guard<std::mutex> lock(completion_mu_);
    completions_.clear();
    external_cancels_.clear();
    pending_submissions_.clear();
  }
  last_flush_terminals_ = 0;
  coordinator_.Begin("real", scheduler, /*virtual_time=*/false, num_queries);
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    snapshot_ = EpisodeResult{};
  }
}

int RealEngine::PeakPoolSize() const {
  // Events are applied in time order; the physical pool must cover the
  // high-water mark of the logical slot count they script.
  int running = config_.num_threads;
  int peak = running;
  for (const ThreadPoolEvent& e : sorted_thread_events_) {
    running += e.delta;
    peak = std::max(peak, running);
  }
  return peak;
}

void RealEngine::SpawnWorkers() {
  workers_.clear();
  sorted_thread_events_ = config_.thread_events;
  std::stable_sort(sorted_thread_events_.begin(), sorted_thread_events_.end(),
                   [](const ThreadPoolEvent& a, const ThreadPoolEvent& b) {
                     return a.time < b.time;
                   });
  next_thread_event_ = 0;
  const int physical = PeakPoolSize();
  // The coordinator pushes at most one task per reserved slot plus one
  // shutdown task per worker at teardown, so 4x the peak pool can never
  // fill the ring.
  worklist_ = std::make_unique<Worklist<WorkerTask>>(
      std::max<size_t>(64, 4 * static_cast<size_t>(physical)));
  for (int i = 0; i < physical; ++i) {
    auto w = std::make_unique<Worker>();
    w->id = i;
    workers_.push_back(std::move(w));
  }
  stall_hint_.store(false, std::memory_order_relaxed);
  pool_draining_.store(false, std::memory_order_relaxed);
  for (int i = 0; i < physical; ++i) {
    workers_[static_cast<size_t>(i)]->thread =
        std::thread([this, i] { WorkerLoop(i); });
  }
  std::vector<const prof::WorkerAccount*> accounts;
  accounts.reserve(workers_.size());
  for (const auto& w : workers_) accounts.push_back(&w->acct);
  profiler_handle_ =
      prof::SamplingProfiler::Global().RegisterWorkers("real",
                                                       std::move(accounts));
}

void RealEngine::ApplyDueThreadEvents(double now) {
  while (next_thread_event_ < sorted_thread_events_.size() &&
         sorted_thread_events_[next_thread_event_].time <= now) {
    coordinator_.ChangePool(sorted_thread_events_[next_thread_event_].delta,
                            now);
    ++next_thread_event_;
  }
}

void RealEngine::WaitAndProcessCompletions(const WallClock& clock) {
  bool timed_out = false;
  completion_batch_.clear();
  {
    std::unique_lock<std::mutex> lock(completion_mu_);
    timed_out = !completion_cv_.wait_for(
        lock, std::chrono::milliseconds(2), [&] {
          return !completions_.empty() || !external_cancels_.empty() ||
                 !pending_submissions_.empty();
        });
    completion_batch_.swap(completions_);
  }
  // One window check per result, as terminal queries come one at a time.
  for (const AttemptResult& c : completion_batch_) {
    coordinator_.Complete(c, clock.Now());
    MaybeFlushWindow(clock.Now());
  }
  if (completion_batch_.empty()) {
    if (!timed_out) return;  // woken for ingress or a cancel
    coordinator_.AssignThreads(clock.Now());  // a backoff may have elapsed
    MaybeFlushWindow(clock.Now());
  }
}

void RealEngine::DrainOutstanding() {
  // From here to pool teardown, waiting workers are draining.
  pool_draining_.store(true, std::memory_order_relaxed);
  // Every query is terminal, so every lease is closed: the attempts still
  // in flight are discarded as they come back, work-order conservation
  // closes out and the last straggler of each query releases its
  // execution.
  while (coordinator_.InflightAttempts() > 0) {
    {
      std::unique_lock<std::mutex> lock(completion_mu_);
      completion_cv_.wait_for(lock, std::chrono::milliseconds(2),
                              [&] { return !completions_.empty(); });
      completion_batch_.clear();
      completion_batch_.swap(completions_);
    }
    for (const AttemptResult& c : completion_batch_) {
      coordinator_.Complete(c, run_clock_->Now());
    }
  }

  // Invariant: every query released its execution state (no leaked
  // blocks/hash tables after completion, cancellation, failure, or
  // shedding).
  for (size_t i = 0; i < executions_.size(); ++i) {
    LSCHED_CHECK(executions_[i] == nullptr)
        << "terminal query " << i << " leaked its execution state";
  }
}

void RealEngine::ShutdownPool() {
  pool_draining_.store(true, std::memory_order_relaxed);
  // The worklist is empty by now (DrainOutstanding waited out every pushed
  // task), so one shutdown task per worker stops the whole pool: each
  // worker claims exactly one and exits.
  for (size_t i = 0; i < workers_.size(); ++i) {
    WorkerTask t;
    t.shutdown = true;
    // Stamp the shutdown like a dispatch so the worker's accountant can
    // split its final wait from the teardown window.
    t.issued_at = run_clock_ != nullptr ? run_clock_->Now() : 0.0;
    worklist_->Push(std::move(t));
  }
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
  if (profiler_handle_ != 0) {
    prof::SamplingProfiler::Global().UnregisterWorkers(profiler_handle_);
    profiler_handle_ = 0;
  }
}

std::vector<prof::WorkerStateBuckets> RealEngine::CollectWorkerStates() const {
  std::vector<prof::WorkerStateBuckets> out;
  out.reserve(workers_.size());
  for (const auto& w : workers_) out.push_back(w->acct.Read());
  return out;
}

void RealEngine::MaybeFlushWindow(double now) {
  if (config_.flush_window_queries <= 0) return;
  const int terminals = coordinator_.terminal_queries();
  if (terminals - last_flush_terminals_ < config_.flush_window_queries) return;
  last_flush_terminals_ = terminals;
  EpisodeRecorder& recorder = coordinator_.recorder();
  recorder.OnWorkerStates(CollectWorkerStates());
  recorder.FlushWindow();
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  snapshot_ = recorder.SnapshotResult(now);
}

RealRunResult RealEngine::FinishRun(const WallClock& clock) {
  DrainOutstanding();
  ShutdownPool();
  run_clock_ = nullptr;
  // Pool joined: the accountants are final — hand the exact buckets over
  // before the episode closes.
  EpisodeRecorder& recorder = coordinator_.recorder();
  recorder.OnWorkerStates(CollectWorkerStates());
  const double now = clock.Now();
  recorder.Finalize(now);
  RealRunResult out;
  out.episode = recorder.Take();
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    snapshot_ = WithoutPerQueryVectors(out.episode);
  }
  sink_rows_.resize(coordinator_.num_queries(), 0);
  sink_checksums_.resize(coordinator_.num_queries(), 0.0);
  out.sink_row_counts = std::move(sink_rows_);
  out.sink_checksums = std::move(sink_checksums_);
  sink_rows_.clear();
  sink_checksums_.clear();
  return out;
}

RealRunResult RealEngine::Run(const std::vector<RealQuerySubmission>& workload,
                              Scheduler* scheduler) {
  LSCHED_CHECK(!serving_.load(std::memory_order_acquire))
      << "Run() is unavailable while a serving session is active";
  SetupRun(scheduler, workload.size());

  // The run clock must exist before workers spawn: they read it (read-only)
  // for work-order deadline checks.
  WallClock clock;
  run_clock_ = &clock;
  SpawnWorkers();

  // Scripted cancels, applied in time order ahead of arrivals so a cancel
  // at t <= arrival deterministically cancels the query on admission.
  std::vector<CancelRequest> scripted_cancels = config_.cancels;
  std::stable_sort(scripted_cancels.begin(), scripted_cancels.end(),
                   [](const CancelRequest& a, const CancelRequest& b) {
                     return a.time < b.time;
                   });
  size_t next_cancel = 0;

  // Un-arrived queries are admitted-and-cancelled so their terminal status
  // is deterministic regardless of arrival/cancel interleaving.
  const auto handle_cancel = [&](QueryId qid, double t) {
    if (qid < 0 || static_cast<size_t>(qid) >= workload.size()) return;
    if (coordinator_.HasQuery(qid)) {
      coordinator_.Cancel(qid, t);
    } else {
      const RealQuerySubmission& sub = workload[static_cast<size_t>(qid)];
      coordinator_.Refuse(qid, sub.plan, sub.tag, QueryStatus::kCancelled, t);
    }
  };

  size_t next_arrival = 0;
  std::vector<size_t> arrival_order(workload.size());
  for (size_t i = 0; i < workload.size(); ++i) arrival_order[i] = i;
  std::sort(arrival_order.begin(), arrival_order.end(),
            [&](size_t a, size_t b) {
              return workload[a].arrival_offset_seconds <
                     workload[b].arrival_offset_seconds;
            });

  while (coordinator_.terminal_queries() < static_cast<int>(workload.size())) {
    const double now = clock.Now();
    ApplyDueThreadEvents(now);

    // Apply due cancels BEFORE releasing arrivals: a cancel scripted at or
    // before a query's arrival wins deterministically.
    while (next_cancel < scripted_cancels.size() &&
           scripted_cancels[next_cancel].time <= now) {
      handle_cancel(scripted_cancels[next_cancel].query, now);
      ++next_cancel;
    }
    std::vector<CancelRequest> external;
    {
      std::lock_guard<std::mutex> lock(completion_mu_);
      external.swap(external_cancels_);
    }
    for (const CancelRequest& cr : external) handle_cancel(cr.query, now);

    // Release due arrivals.
    while (next_arrival < arrival_order.size() &&
           workload[arrival_order[next_arrival]].arrival_offset_seconds <=
               now) {
      const size_t idx = arrival_order[next_arrival];
      ++next_arrival;
      // Already admitted-and-cancelled by an earlier cancel request.
      if (coordinator_.HasQuery(static_cast<QueryId>(idx))) continue;
      coordinator_.Admit(static_cast<QueryId>(idx), workload[idx].plan,
                         workload[idx].tag, now);
    }

    // Deadlock guard: nothing running, nothing pending, queries remain.
    if (next_arrival >= arrival_order.size() && coordinator_.Stranded()) {
      coordinator_.ForceFallback(now);
    }
    WaitAndProcessCompletions(clock);
  }
  return FinishRun(clock);
}

void RealEngine::StartServing(Scheduler* scheduler) {
  LSCHED_CHECK(!serving_.load(std::memory_order_acquire))
      << "StartServing while a serving session is already active";
  SetupRun(scheduler, 0);
  serving_scheduler_ = scheduler;
  {
    std::lock_guard<std::mutex> lock(completion_mu_);
    next_query_id_ = 0;
  }
  serving_clock_.emplace();
  run_clock_ = &*serving_clock_;
  SpawnWorkers();
  draining_.store(false, std::memory_order_release);
  serving_.store(true, std::memory_order_release);
  coordinator_thread_ = std::thread([this] { ServeLoop(); });
}

QueryId RealEngine::Submit(QueryPlan plan, QueryTag tag) {
  QueryId id = kInvalidQuery;
  {
    std::lock_guard<std::mutex> lock(completion_mu_);
    if (!serving_.load(std::memory_order_acquire) ||
        draining_.load(std::memory_order_acquire)) {
      return kInvalidQuery;
    }
    id = next_query_id_++;
    pending_submissions_.push_back(
        PendingSubmission{id, std::move(plan), tag});
  }
  completion_cv_.notify_one();
  return id;
}

EpisodeResult RealEngine::Snapshot() const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return snapshot_;
}

RealRunResult RealEngine::Drain() {
  LSCHED_CHECK(serving_.load(std::memory_order_acquire))
      << "Drain without an active serving session";
  {
    // Under completion_mu_ so the drain flag orders against Submit(): once
    // the coordinator observes it, no further submissions can exist.
    std::lock_guard<std::mutex> lock(completion_mu_);
    draining_.store(true, std::memory_order_release);
  }
  completion_cv_.notify_one();
  if (coordinator_thread_.joinable()) coordinator_thread_.join();
  serving_.store(false, std::memory_order_release);
  draining_.store(false, std::memory_order_release);
  serving_clock_.reset();
  serving_scheduler_ = nullptr;
  return std::move(serving_result_);
}

void RealEngine::ServeLoop() {
  const WallClock& clock = *serving_clock_;
  while (true) {
    const double now = clock.Now();
    ApplyDueThreadEvents(now);
    // Read the drain flag BEFORE swapping the ingress queues: Submit()
    // refuses once draining_ is set (under completion_mu_), so a true read
    // here guarantees this iteration's swap sees every submission ever
    // accepted — none can be lost or double-counted.
    const bool drain_now = draining_.load(std::memory_order_acquire);
    std::vector<PendingSubmission> subs;
    std::vector<CancelRequest> cancels;
    {
      std::lock_guard<std::mutex> lock(completion_mu_);
      subs.swap(pending_submissions_);
      cancels.swap(external_cancels_);
    }
    // Intake before cancels: a cancel's id was returned by an earlier
    // Submit, so its submission is either in this batch or already
    // admitted — processing submissions first makes every cancel
    // resolvable against an existing query.
    for (PendingSubmission& s : subs) {
      if (drain_now) {
        // Queued-but-unadmitted at drain time: shed, never silently
        // dropped — every Submit-returned id reaches a terminal status.
        coordinator_.Refuse(s.id, std::move(s.plan), s.tag,
                            QueryStatus::kShed, now);
      } else {
        coordinator_.Admit(s.id, std::move(s.plan), s.tag, now);
      }
    }
    for (const CancelRequest& cr : cancels) {
      if (coordinator_.HasQuery(cr.query)) coordinator_.Cancel(cr.query, now);
    }

    // Drain completes once every submitted query is terminal
    // (drain-don't-preempt: running queries were allowed to finish).
    if (drain_now && coordinator_.terminal_queries() ==
                         static_cast<int>(coordinator_.num_queries())) {
      break;
    }
    // Deadlock guard: live queries but nothing running or pending.
    if (coordinator_.Stranded()) coordinator_.ForceFallback(now);
    WaitAndProcessCompletions(clock);
  }
  serving_result_ = FinishRun(clock);
}

}  // namespace lsched
