#include "exec/coordinator.h"

#include <algorithm>

#include "testing/faultpoint.h"
#include "util/clock.h"
#include "util/logging.h"

namespace lsched {

Coordinator::Coordinator(const EngineConfig* config, ExecutorBackend* backend)
    : config_(config), backend_(backend) {}

void Coordinator::Begin(const char* engine_name, Scheduler* scheduler,
                        bool virtual_time, size_t num_queries) {
  scheduler_ = scheduler;
  queries_.clear();
  queries_.resize(num_queries);
  known_.assign(num_queries, false);
  drained_.clear();
  ctx_.Reset();
  pipelines_.clear();
  current_decision_id_ = -1;
  launches_ = 0;
  terminal_queries_ = 0;
  next_slot_id_ = 0;
  pending_slot_removals_ = 0;
  recorder_.Begin(engine_name, scheduler, virtual_time, num_queries);
  scheduler->Reset();
  for (int i = 0; i < config_->num_threads; ++i) {
    ThreadInfo info;
    info.id = next_slot_id_++;
    ctx_.AddThread(info);
    backend_->OnSlotAdded(info.id, 0.0);
  }
}

QueryState* Coordinator::NewQuery(QueryId id, QueryPlan plan,
                                  const QueryTag& tag, double now) {
  const size_t idx = static_cast<size_t>(id);
  if (queries_.size() <= idx) {
    queries_.resize(idx + 1);
    known_.resize(idx + 1, false);
  }
  known_[idx] = true;
  queries_[idx] = std::make_unique<QueryState>(id, std::move(plan), now);
  QueryState* q = queries_[idx].get();
  q->set_tag(tag);
  recorder_.OnQueryArrival(*q);
  return q;
}

void Coordinator::FinishRefused(QueryState* q, QueryStatus status, double now,
                                bool notify_refused) {
  LSCHED_CHECK(q->TransitionTo(status));
  recorder_.OnQueryTerminated(q, now, 0);
  ++terminal_queries_;
  if (config_->hooks != nullptr) {
    if (notify_refused) config_->hooks->OnEngineRefused(*q, now);
    config_->hooks->OnQueryTerminal(*q, now);
  }
  drained_.push_back(q->id());
}

void Coordinator::Refuse(QueryId id, QueryPlan plan, const QueryTag& tag,
                         QueryStatus status, double now) {
  FinishRefused(NewQuery(id, std::move(plan), tag, now), status, now,
                /*notify_refused=*/true);
  RetireFinished();
}

void Coordinator::Admit(QueryId id, QueryPlan plan, const QueryTag& tag,
                        double now) {
  ctx_.set_now(now);
  QueryState* q = NewQuery(id, std::move(plan), tag, now);
  // Admission fault point: a kError here rejects the query (terminal
  // FAILED) before it ever reaches the scheduler.
  const FaultAction admit = LSCHED_FAULT("query_admit", id, now);
  if (admit && admit.type == FaultType::kError) {
    FinishRefused(q, QueryStatus::kFailed, now, /*notify_refused=*/true);
    RetireFinished();
    return;
  }
  const AdmissionVerdict verdict =
      config_->hooks != nullptr ? config_->hooks->OnAdmission(*q, ctx_, now)
                                : AdmissionVerdict{};
  if (!verdict.admit) {
    // Load shed: terminal before the scheduler ever sees the query.
    recorder_.OnAdmissionVerdict(id, now, /*admitted=*/false, kInvalidQuery);
    FinishRefused(q, QueryStatus::kShed, now, /*notify_refused=*/false);
    RetireFinished();
    return;
  }
  // A higher-priority arrival may displace a pending lower-priority query.
  // Only ADMITTED (never-launched) queries are eligible — a stale/illegal
  // victim id is ignored rather than fatal.
  QueryId displaced = kInvalidQuery;
  if (const QueryState* victim = query(verdict.displace);
      victim != nullptr && victim->status() == QueryStatus::kAdmitted) {
    displaced = verdict.displace;
  }
  recorder_.OnAdmissionVerdict(id, now, /*admitted=*/true, displaced);
  if (displaced != kInvalidQuery) {
    recorder_.OnQueryDisplaced(displaced, id, now);
    if (Terminate(displaced, QueryStatus::kShed, now)) {
      Notify(SchedulingEventType::kQueryCancelled, displaced, now);
    }
  }
  backend_->OnQueryAdmitted(*q);
  ctx_.AddQuery(q);
  Notify(SchedulingEventType::kQueryArrival, id, now);
  DispatchPending(now);
  RetireFinished();
}

bool Coordinator::Terminate(QueryId id, QueryStatus status, double now) {
  if (!HasQuery(id)) return false;
  QueryState* q = queries_[static_cast<size_t>(id)].get();
  // A freed query was terminal.
  if (q == nullptr || IsTerminalStatus(q->status())) return false;
  LSCHED_CHECK(q->TransitionTo(status));
  // Kill the query's pipelines: pending fused work is dropped, in-flight
  // attempts are discarded when they come back, retries are abandoned.
  // Pipelines and the query state stay in place (callers may hold
  // references); the next RetireFinished drops them.
  int64_t dropped = 0;
  for (const auto& p : pipelines_) {
    if (p->query != id || p->dead) continue;
    p->dead = true;
    p->retry_ready.clear();
    dropped += static_cast<int64_t>(p->total_fused - p->succeeded);
  }
  recorder_.OnQueryTerminated(q, now, dropped);
  if (ctx_.FindQuery(id) != nullptr) ctx_.RemoveQuery(id);
  ++terminal_queries_;
  if (config_->hooks != nullptr) config_->hooks->OnQueryTerminal(*q, now);
  ReleaseIfDrained(*q);
  return true;
}

bool Coordinator::Cancel(QueryId id, double now) {
  ctx_.set_now(now);
  if (!Terminate(id, QueryStatus::kCancelled, now)) return false;
  // The cancel freed this query's claim on threads/memory: tell the
  // scheduler so it can re-plan, then backfill the pool.
  Notify(SchedulingEventType::kQueryCancelled, id, now);
  DispatchPending(now);
  RetireFinished();
  return true;
}

void Coordinator::ReleaseIfDrained(const QueryState& q) {
  if (q.assigned_threads() != 0) return;  // a straggler releases it later
  backend_->ReleaseQuery(q);
  drained_.push_back(q.id());
}

void Coordinator::ChangePool(int delta, double now) {
  if (delta == 0) return;
  ctx_.set_now(now);
  SchedulingEvent se;
  se.time = now;
  if (delta > 0) {
    // A grow first cancels removals still waiting on busy slots: those
    // slots stay, and only the remainder are fresh. Adding fresh slots
    // instead would leave more logical slots than the pool's size.
    const int kept = std::min(delta, pending_slot_removals_);
    pending_slot_removals_ -= kept;
    for (int k = kept; k < delta; ++k) {
      ThreadInfo info;
      info.id = next_slot_id_++;
      ctx_.AddThread(info);
      backend_->OnSlotAdded(info.id, now);
    }
    se.type = SchedulingEventType::kThreadAdded;
  } else {
    // Idle slots retire now; busy ones as their attempt completes.
    int to_remove = -delta;
    std::vector<int> idle;
    for (const ThreadInfo& t : ctx_.threads()) {
      if (!t.busy) idle.push_back(t.id);
    }
    for (int slot : idle) {
      if (to_remove == 0) break;
      ctx_.RetireThread(slot);
      backend_->OnSlotRetired(slot, now);
      --to_remove;
    }
    pending_slot_removals_ += to_remove;
    se.type = SchedulingEventType::kThreadRemoved;
  }
  InvokeScheduler(se, now);
  DispatchPending(now);
  RetireFinished();
}

bool Coordinator::ProducersComplete(const QueryState& q, int root) const {
  for (int e : q.plan().node(root).in_edges) {
    if (!q.op_completed(q.plan().edge(e).producer)) return false;
  }
  return true;
}

void Coordinator::ApplyDecision(const SchedulingDecision& decision,
                                double now) {
  for (const ParallelismChoice& pc : decision.parallelism) {
    if (QueryState* q = ctx_.FindQuery(pc.query)) {
      q->set_max_threads(std::max(0, pc.max_threads));
    }
  }
  for (const PipelineChoice& choice : decision.pipelines) {
    QueryState* q = ctx_.FindQuery(choice.query);
    if (q == nullptr) continue;
    if (choice.root_op < 0 ||
        choice.root_op >= static_cast<int>(q->plan().num_nodes())) {
      continue;
    }
    if (!q->IsOpSchedulable(choice.root_op)) continue;
    if (backend_->roots_need_complete_producers() &&
        !ProducersComplete(*q, choice.root_op)) {
      continue;
    }

    std::vector<int> valid = q->ValidPipelineFrom(choice.root_op);
    const int degree =
        std::clamp(choice.degree, 1, static_cast<int>(valid.size()));
    valid.resize(static_cast<size_t>(degree));

    auto p = std::make_unique<Pipeline>();
    p->id = launches_++;
    p->query = q->id();
    p->chain = std::move(valid);
    p->created_at = now;
    p->decision_id = current_decision_id_;
    backend_->PreparePipeline(*q, p.get());
    for (int op : p->chain) q->set_op_scheduled(op, true);
    // Scheduling flags entered the query's feature inputs: invalidate
    // cached encodings.
    ctx_.MarkQueryDirty(q->id());
    recorder_.OnPipelineLaunched(current_decision_id_, q->id(), p->chain[0],
                                 degree, p->total_fused, now);
    pipelines_.push_back(std::move(p));
  }
}

int Coordinator::CapFor(const QueryState& q) const {
  return q.max_threads() > 0 ? q.max_threads() : config_->num_threads;
}

bool Coordinator::DispatchTo(int slot, Pipeline& p, double now) {
  QueryState* q = ctx_.FindQuery(p.query);
  LSCHED_CHECK(q != nullptr);
  // Retries first (FIFO), then the next fresh work-order index.
  const bool is_retry = !p.retry_ready.empty();
  int wo_index;
  if (is_retry) {
    wo_index = p.retry_ready.front();
    p.retry_ready.erase(p.retry_ready.begin());
  } else {
    wo_index = p.next_wo.fetch_add(1);
    if (wo_index >= p.total_fused) return false;
  }
  backend_->Dispatch(p, *q, slot, wo_index, now);
  ctx_.SetThreadBusy(slot, p.query);
  q->set_assigned_threads(q->assigned_threads() + 1);
  BookDispatch(p, is_retry, now);
  return true;
}

void Coordinator::BookDispatch(Pipeline& p, bool is_retry, double now) {
  ++p.dispatched;
  ++p.inflight;
  const int inflight = ctx_.total_threads() - ctx_.num_free_threads();
  recorder_.OnWorkOrderDispatched(p.query, is_retry, inflight,
                                  now - p.created_at, now);
}

int Coordinator::AssignThreads(double now) {
  const int dispatched = DispatchPending(now);
  RetireFinished();
  return dispatched;
}

int Coordinator::DispatchPending(double now) {
  int dispatched = 0;
  while (true) {
    // Pipelines with dispatchable work whose query is below its cap.
    candidates_.clear();
    for (size_t i = 0; i < pipelines_.size(); ++i) {
      const Pipeline& p = *pipelines_[i];
      if (p.dead || !p.HasFreshOrRetryWork()) continue;
      if (p.not_before > now + kBackoffEpsilon) continue;  // backoff pending
      const QueryState* q = ctx_.FindQuery(p.query);
      if (q == nullptr) continue;
      if (q->assigned_threads() >= CapFor(*q)) continue;
      candidates_.push_back(i);
    }
    if (candidates_.empty()) {
      backend_->OnDispatchStopped(!ctx_.queries().empty());
      return dispatched;
    }

    // A free slot with locality to some candidate's query first.
    int slot = -1;
    size_t chosen = pipelines_.size();
    for (const ThreadInfo& t : ctx_.threads()) {
      if (t.busy) continue;
      for (size_t ci : candidates_) {
        if (pipelines_[ci]->query == t.last_query) {
          slot = t.id;
          chosen = ci;
          break;
        }
      }
      if (slot >= 0) break;
    }
    if (slot < 0) {
      for (const ThreadInfo& t : ctx_.threads()) {
        if (!t.busy) {
          slot = t.id;
          break;
        }
      }
      if (slot < 0) {
        backend_->OnDispatchStopped(true);  // work waits for a slot
        return dispatched;
      }
      // Otherwise the least-loaded query (fair progress among pipelines).
      int best_load = 0;
      for (size_t ci : candidates_) {
        const int load =
            ctx_.FindQuery(pipelines_[ci]->query)->assigned_threads();
        if (chosen == pipelines_.size() || load < best_load) {
          best_load = load;
          chosen = ci;
        }
      }
    }
    // A lost race for the last fresh index leaves the slot free; rescan.
    if (DispatchTo(slot, *pipelines_[chosen], now)) ++dispatched;
  }
}

void Coordinator::InvokeScheduler(const SchedulingEvent& event, double now) {
  // Per §5.2: no decisions if all threads are busy or nothing to schedule.
  // Exception: a query-cancelled event is a lifecycle notification the
  // policy must always see (it may be tracking the query), even when no
  // decision is currently possible.
  ctx_.set_now(now);
  const bool lifecycle = event.type == SchedulingEventType::kQueryCancelled;
  for (int round = 0; round < kMaxRoundsPerEvent; ++round) {
    const bool can_schedule =
        ctx_.num_free_threads() > 0 && ctx_.AnySchedulableOp();
    if (!can_schedule && !(lifecycle && round == 0)) return;
    Stopwatch sw;
    SchedulingDecision decision = scheduler_->Schedule(event, ctx_);
    // Serving layer post-processing (priority classes, weighted fairness)
    // sits between the policy and the engine; ApplyDecision re-validates
    // every choice, so injected launches can never corrupt run state.
    if (config_->hooks != nullptr) {
      config_->hooks->FilterDecision(&decision, ctx_);
    }
    current_decision_id_ = recorder_.OnSchedulerInvocation(
        event, ctx_, decision, sw.ElapsedSeconds());
    if (decision.empty()) return;
    const int64_t launched_before = launches_;
    ApplyDecision(decision, now);
    DispatchPending(now);
    if (launches_ == launched_before) return;  // no new pipelines
  }
}

void Coordinator::Notify(SchedulingEventType type, QueryId query, double now) {
  SchedulingEvent se;
  se.type = type;
  se.time = now;
  se.query = query;
  InvokeScheduler(se, now);
}

bool Coordinator::Stranded() const {
  return ctx_.num_free_threads() == ctx_.total_threads() &&
         !ctx_.queries().empty() && !AnyPendingWork();
}

void Coordinator::ForceFallback(double now) {
  // Deadlock guard: the policy scheduled nothing although work exists.
  // Launch the first launchable operator of the oldest query, degree 1.
  ctx_.set_now(now);
  const bool need_producers = backend_->roots_need_complete_producers();
  for (QueryState* q : ctx_.queries()) {
    for (int op : q->SchedulableOps()) {
      if (need_producers && !ProducersComplete(*q, op)) continue;
      SchedulingDecision d;
      d.pipelines.push_back(PipelineChoice{q->id(), op, 1});
      current_decision_id_ = recorder_.OnFallback(now, ctx_, q->id());
      ApplyDecision(d, now);
      DispatchPending(now);
      RetireFinished();
      return;
    }
  }
}

Pipeline& Coordinator::PipelineById(int64_t id) {
  auto it = std::lower_bound(
      pipelines_.begin(), pipelines_.end(), id,
      [](const std::unique_ptr<Pipeline>& p, int64_t v) { return p->id < v; });
  LSCHED_CHECK(it != pipelines_.end() && (*it)->id == id)
      << "unknown pipeline " << id;
  return **it;
}

void Coordinator::RetireFinished() {
  std::erase_if(pipelines_, [](const std::unique_ptr<Pipeline>& p) {
    return p->inflight == 0 && (p->dead || !p->HasFreshOrRetryWork());
  });
  for (QueryId id : drained_) queries_[static_cast<size_t>(id)].reset();
  drained_.clear();
  for (const auto& p : pipelines_) {
    const QueryState* q = ctx_.FindQuery(p->query);
    const bool open = !p->dead && p->retry_ready.empty() &&
                      pending_slot_removals_ == 0 && q != nullptr &&
                      q->assigned_threads() <= CapFor(*q);
    // Lease holders read the flag on every claim; store only changes.
    if (p->lease_open.load() != open) p->lease_open = open;
  }
}

bool Coordinator::AnyPendingWork() const {
  for (const auto& p : pipelines_) {
    if (!p->dead && p->HasFreshOrRetryWork()) return true;
  }
  return false;
}

int Coordinator::InflightAttempts() const {
  int n = 0;
  for (const auto& p : pipelines_) n += p->inflight;
  return n;
}

void Coordinator::Complete(const AttemptResult& r, double now) {
  ctx_.set_now(now);
  Pipeline& p = PipelineById(r.pipeline);
  // The owning query may already be terminal (cancelled/failed while this
  // attempt was in flight) and gone from the scheduling context.
  QueryState* q = queries_[static_cast<size_t>(p.query)].get();
  const QueryId query = p.query;
  const bool continued = r.continued_wo >= 0;
  LSCHED_CHECK(!continued || (r.status.ok() && !r.expired))
      << "a failed attempt cannot continue its lease";

  // Free the slot first — identical bookkeeping for every outcome. The
  // slot records the query it ran (locality) even when its lease goes on.
  --p.inflight;
  ctx_.SetThreadIdle(r.slot, query);
  if (continued) {
    ctx_.SetThreadBusy(r.slot, query);
  } else {
    q->set_assigned_threads(q->assigned_threads() - 1);
    if (pending_slot_removals_ > 0) {
      // A pool shrink found this slot busy; it retires now.
      ctx_.RetireThread(r.slot);
      --pending_slot_removals_;
      backend_->OnSlotRetired(r.slot, now);
    } else {
      backend_->OnSlotFreed(r.slot, now);
    }
  }
  if (r.expired) recorder_.OnWorkOrderExpired();

  int completed_op = -1;
  bool query_failed = false;
  if (p.dead) {
    // The query reached a terminal state while this attempt was in
    // flight: throw the result away.
    recorder_.OnWorkOrderDiscarded();
    ReleaseIfDrained(*q);
  } else if (!r.status.ok()) {
    recorder_.OnWorkOrderFailed(query, now);
    const int attempt = ++p.attempts[r.wo_index];
    if (attempt > config_->retry.max_retries) {
      // Retry budget exhausted: the whole query fails; the pool stays
      // healthy.
      LSCHED_LOG(Warning) << "query " << query << " work order " << r.wo_index
                          << " failed after " << attempt
                          << " attempts: " << r.status.ToString();
      Terminate(query, QueryStatus::kFailed, now);
      query_failed = true;
    } else {
      recorder_.OnWorkOrderRetried(query, now);
      p.retry_ready.push_back(r.wo_index);
      const double backoff = config_->retry.BackoffFor(attempt);
      if (backoff > 0.0) {
        p.not_before = std::max(p.not_before, now + backoff);
        backend_->OnRetryBackoff(p.id, now + backoff);
      }
    }
  } else {
    // Success: advance every pipeline member proportionally and detect
    // operator completions.
    const double fused_total = static_cast<double>(p.total_fused);
    const double op_share =
        r.service_seconds / static_cast<double>(p.chain.size());
    for (const int op : p.chain) {
      const double amount =
          static_cast<double>(q->plan().node(op).num_work_orders) /
          fused_total;
      if (q->AdvanceOperator(op, amount, op_share,
                             backend_->OperatorMemory(*q, p, op, amount))) {
        backend_->OnOperatorCompleted(*q, op);
        if (completed_op < 0) completed_op = op;
      }
    }
    // Operator progress changed (O-WO/O-DUR/O-MEM, possibly completion
    // flags): invalidate cached encodings for this query.
    ctx_.MarkQueryDirty(query);
    q->AddAttainedService(r.service_seconds);
    recorder_.OnWorkOrderCompleted(query, p.decision_id, r.seconds, now);
    ++p.succeeded;
    if (q->completed() && q->completion_time() < 0.0) {
      recorder_.OnQueryCompleted(q, now);
      ++terminal_queries_;
      ctx_.RemoveQuery(query);
      if (config_->hooks != nullptr) config_->hooks->OnQueryTerminal(*q, now);
      ReleaseIfDrained(*q);
    }
  }

  // The lease's continuation is a dispatch onto the slot, which stayed
  // busy. A dead pipeline's continuation runs and is discarded on return.
  if (continued) BookDispatch(p, /*is_retry=*/false, now);

  // Re-dispatch pending work first; the scheduler is only consulted on
  // the major events of §5.2 — an operator completing, a slot left with
  // nothing to do, or a query leaving the system — not on every work-order
  // completion.
  DispatchPending(now);
  if (query_failed) {
    Notify(SchedulingEventType::kQueryCancelled, query, now);
    DispatchPending(now);
  } else if (completed_op >= 0) {
    SchedulingEvent se;
    se.type = SchedulingEventType::kOperatorCompleted;
    se.time = now;
    se.query = query;
    se.op = completed_op;
    InvokeScheduler(se, now);
    DispatchPending(now);
  } else if (const ThreadInfo* info = ctx_.thread(r.slot);
             info != nullptr && !info->busy) {
    // A slot retired above raises no idle event: a retirement is pending
    // only while every live slot is busy (ChangePool), so no slot is free.
    SchedulingEvent se;
    se.type = SchedulingEventType::kThreadIdle;
    se.time = now;
    se.thread = r.slot;
    InvokeScheduler(se, now);
    DispatchPending(now);
  }
  RetireFinished();
}

}  // namespace lsched
