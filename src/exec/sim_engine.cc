#include "exec/sim_engine.h"

#include <algorithm>

#include "obs/trace.h"
#include "testing/faultpoint.h"
#include "util/logging.h"

namespace lsched {

SimEngine::SimEngine(SimEngineConfig config)
    : config_(std::move(config)),
      cost_model_(config_.cost_params),
      coordinator_(&config_, this) {}

void SimEngine::Push(double time, SimEvent::Kind kind, int64_t payload) {
  events_.push(SimEvent{time, event_seq_++, kind, payload});
}

bool SimEngine::CancelQuery(QueryId query) {
  return coordinator_.Terminate(query, QueryStatus::kCancelled,
                                coordinator_.context().now());
}

void SimEngine::PreparePipeline(const QueryState& q, Pipeline* p) {
  p->total_fused = std::max(q.plan().node(p->chain[0]).num_work_orders, 1);
  p->est_seconds_per_fused =
      cost_model_.PipelineWorkOrderSeconds(q.plan(), p->chain);
}

double SimEngine::OperatorMemory(const QueryState& q, const Pipeline& p,
                                 int op, double amount) {
  (void)p;
  return q.plan().node(op).est_mem_per_wo * amount;
}

void SimEngine::Dispatch(Pipeline& p, const QueryState& q, int slot,
                         int wo_index, double now) {
  StartAttempt(p, slot, wo_index, q.assigned_threads(),
               coordinator_.context().thread(slot)->last_query == p.query,
               now);
}

void SimEngine::StartAttempt(Pipeline& p, int slot, int wo_index,
                             int others, bool local, double now) {
  double duration = p.est_seconds_per_fused;
  const double noise =
      std::max(0.05, rng_.Normal(1.0, config_.cost_params.noise_cv));
  duration *= noise;
  if (local) duration *= (1.0 - config_.cost_params.locality_gain);
  // Intra-query contention from the other threads on the same query.
  duration *= 1.0 + config_.cost_params.intra_query_contention *
                        static_cast<double>(others);
  duration = std::max(duration, 1e-9);

  // Fault injection at the canonical execution point. Probed AFTER the
  // noise draw so the RNG sequence — and therefore every duration — of a
  // disarmed run is bit-identical to a no-fault run.
  SimSlot& s = slots_[static_cast<size_t>(slot)];
  s.attempt_failed = false;
  s.expired = false;
  if (const FaultAction fault = LSCHED_FAULT("work_order_exec", p.query, now)) {
    if (fault.type == FaultType::kError) {
      s.attempt_failed = true;  // the attempt consumes its full duration
    } else {
      duration += std::max(0.0, fault.param);  // kDelay / kStall
    }
  }
  // Per-work-order deadline: the attempt is aborted at the deadline.
  if (config_.work_order_deadline_seconds > 0.0 &&
      duration > config_.work_order_deadline_seconds) {
    s.attempt_failed = true;
    s.expired = true;
    duration = config_.work_order_deadline_seconds;
  }
  s.lease = &p;
  s.wo_index = wo_index;
  s.busy_since = now;
  s.service_seconds = p.est_seconds_per_fused;

  if (obs::Enabled()) {
    // Virtual-time spans: the work order's full extent is known at
    // dispatch, so record it immediately against the simulated thread.
    obs::TraceEvent e;
    e.name = "exec.work_order";
    e.category = "exec";
    e.ts_us = now * 1e6;
    e.dur_us = duration * 1e6;
    e.tid = static_cast<uint32_t>(slot);
    e.arg1_name = "query";
    e.arg1 = p.query;
    e.arg2_name = "pipeline";
    e.arg2 = p.id;
    obs::Tracer::Global().RecordSpan(e);
    if (p.dispatched == 0 && now > p.created_at) {
      e.name = "sched.queue_wait";
      e.category = "sched";
      e.ts_us = p.created_at * 1e6;
      e.dur_us = (now - p.created_at) * 1e6;
      e.arg2_name = nullptr;
      e.arg2 = 0;
      obs::Tracer::Global().RecordSpan(e);
    }
  }
  s.account.Transition(prof::WorkerState::kExecuting, LatencyNs(now));
  Push(now + duration, SimEvent::kWorkOrderDone, slot);
}

void SimEngine::OnSlotAdded(int slot, double now) {
  LSCHED_CHECK(static_cast<size_t>(slot) == slots_.size());
  slots_.emplace_back();
  slots_.back().account.Start(LatencyNs(now), prof::WorkerState::kIdle);
}

void SimEngine::OnSlotFreed(int slot, double now) {
  // Work outstanding anywhere in the system means this free slot is
  // stalled on a dependency, not idle.
  const bool work_exists = coordinator_.AnyPendingWork() ||
                           !coordinator_.context().queries().empty();
  slots_[static_cast<size_t>(slot)].account.Transition(
      work_exists ? prof::WorkerState::kStalled : prof::WorkerState::kIdle,
      LatencyNs(now));
}

void SimEngine::OnSlotRetired(int slot, double now) {
  SimSlot& s = slots_[static_cast<size_t>(slot)];
  s.retired = true;
  s.account.Stop(LatencyNs(now));
}

void SimEngine::OnRetryBackoff(int64_t pipeline, double ready_at) {
  Push(ready_at, SimEvent::kRetryReady, pipeline);
}

void SimEngine::OnWorkOrderDone(int slot, double now) {
  const SimSlot& s = slots_[static_cast<size_t>(slot)];
  Pipeline& p = *s.lease;
  AttemptResult r;
  r.slot = slot;
  r.pipeline = p.id;
  r.wo_index = s.wo_index;
  if (s.attempt_failed) {
    r.status = Status::Internal(s.expired ? "work-order deadline exceeded"
                                          : "injected fault at work_order_exec");
  }
  r.expired = s.expired;
  r.seconds = now - s.busy_since;
  r.service_seconds = s.service_seconds;
  // The slot claims its lease's next work order the moment it finishes,
  // as a RealEngine worker does. The query's assigned threads still count
  // this slot, so the contention is the same a fresh dispatch would see.
  r.continued_wo = p.ClaimContinuation(r);
  if (r.continued_wo >= 0) {
    StartAttempt(p, slot, r.continued_wo,
                 coordinator_.query(p.query)->assigned_threads() - 1,
                 /*local=*/true, now);
  }
  coordinator_.Complete(r, now);
}

EpisodeResult SimEngine::Run(const std::vector<QuerySubmission>& workload,
                             Scheduler* scheduler) {
  rng_ = Rng(config_.seed);
  slots_.clear();
  while (!events_.empty()) events_.pop();
  event_seq_ = 0;
  coordinator_.Begin("sim", scheduler, /*virtual_time=*/true, workload.size());
  // Scripted cancels are queued before arrivals so that at equal times the
  // lower sequence number wins the tie and a cancel at t <= arrival
  // deterministically cancels the query on admission.
  for (size_t i = 0; i < config_.cancels.size(); ++i) {
    Push(config_.cancels[i].time, SimEvent::kCancel, static_cast<int64_t>(i));
  }
  for (size_t i = 0; i < config_.thread_events.size(); ++i) {
    Push(config_.thread_events[i].time, SimEvent::kPoolChange,
         static_cast<int64_t>(i));
  }
  for (size_t i = 0; i < workload.size(); ++i) {
    Push(workload[i].arrival_time, SimEvent::kArrival, static_cast<int64_t>(i));
  }

  double now = 0.0;
  while (!events_.empty()) {
    const SimEvent ev = events_.top();
    events_.pop();
    now = ev.time;
    if (now > config_.max_virtual_seconds) {
      LSCHED_LOG(Warning) << "simulation exceeded max virtual time";
      break;
    }

    switch (ev.kind) {
      case SimEvent::kArrival: {
        // An already-known query was cancelled before it arrived
        // (admit-and-cancel): nothing to admit.
        const QueryId id = ev.payload;
        if (!coordinator_.HasQuery(id)) {
          const QuerySubmission& sub = workload[static_cast<size_t>(id)];
          coordinator_.Admit(id, sub.plan, sub.tag, now);
        }
        break;
      }
      case SimEvent::kCancel: {
        const QueryId id =
            config_.cancels[static_cast<size_t>(ev.payload)].query;
        if (id < 0 || static_cast<size_t>(id) >= workload.size()) break;
        if (coordinator_.HasQuery(id)) {
          coordinator_.Cancel(id, now);
        } else {
          // Not yet arrived: admit-and-cancel so the terminal status is
          // deterministic regardless of arrival/cancel ordering.
          const QuerySubmission& sub = workload[static_cast<size_t>(id)];
          coordinator_.Refuse(id, sub.plan, sub.tag, QueryStatus::kCancelled,
                              now);
        }
        break;
      }
      case SimEvent::kRetryReady:
        coordinator_.AssignThreads(now);  // a retry backoff elapsed
        break;
      case SimEvent::kPoolChange:
        coordinator_.ChangePool(
            config_.thread_events[static_cast<size_t>(ev.payload)].delta, now);
        break;
      case SimEvent::kWorkOrderDone:
        OnWorkOrderDone(static_cast<int>(ev.payload), now);
        break;
    }

    // Deadlock guard: live queries but no running or pending work.
    if (events_.empty() && coordinator_.Stranded()) {
      coordinator_.ForceFallback(now);
    }
  }

  // Close every still-live account at the final virtual time and hand the
  // exact buckets to the recorder.
  std::vector<prof::WorkerStateBuckets> worker_states;
  worker_states.reserve(slots_.size());
  for (SimSlot& s : slots_) {
    if (!s.retired) s.account.Stop(LatencyNs(now));
    worker_states.push_back(s.account.Read());
  }
  EpisodeRecorder& recorder = coordinator_.recorder();
  recorder.OnWorkerStates(std::move(worker_states));
  recorder.Finalize(now);
  return recorder.Take();
}

}  // namespace lsched
