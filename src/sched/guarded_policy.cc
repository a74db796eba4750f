#include "sched/guarded_policy.h"

#include <exception>
#include <utility>

#include "testing/faultpoint.h"
#include "util/clock.h"
#include "util/logging.h"

namespace lsched {

GuardedPolicy::GuardedPolicy(Scheduler* inner, Config config)
    : inner_(inner), config_(std::move(config)) {
  fallback_total_ =
      obs::MetricsRegistry::Global().GetCounter("sched.fallback_total");
}

std::string GuardedPolicy::name() const {
  return "Guarded(" + inner_->name() + ")";
}

void GuardedPolicy::Reset() {
  inner_->Reset();
  fifo_.Reset();
  consecutive_failures_ = 0;
  sticky_ = false;
  events_while_sticky_ = 0;
  // fallback_count_ is cumulative across episodes by design (mirrors the
  // process-wide sched.fallback_total counter).
}

void GuardedPolicy::OnQueryCompleted(QueryId query, double latency) {
  inner_->OnQueryCompleted(query, latency);
  fifo_.OnQueryCompleted(query, latency);
}

bool GuardedPolicy::ValidDecision(const SchedulingDecision& decision,
                                  const SchedulingContext& ctx) {
  for (const PipelineChoice& pc : decision.pipelines) {
    const QueryState* q = ctx.FindQuery(pc.query);
    if (q == nullptr || !ctx.IsQueryLive(pc.query)) return false;
    if (pc.root_op < 0 ||
        pc.root_op >= static_cast<int>(q->plan().num_nodes())) {
      return false;
    }
    if (!q->IsOpSchedulable(pc.root_op)) return false;
    if (pc.degree < 1) return false;
  }
  for (const ParallelismChoice& pc : decision.parallelism) {
    if (!ctx.IsQueryLive(pc.query)) return false;
    if (pc.max_threads < 0) return false;
  }
  return true;
}

SchedulingDecision GuardedPolicy::Fallback(const char* reason,
                                           const SchedulingEvent& event,
                                           const SchedulingContext& ctx) {
  ++fallback_count_;
  // Warn once per failure streak, not per event (a sticky guard would spam).
  if (consecutive_failures_ == 1) {
    LSCHED_LOG(Warning) << "GuardedPolicy: " << inner_->name()
                        << " failed (" << reason << "); degrading to FIFO";
  }
  if (obs::Enabled()) fallback_total_->Add(1);
  SchedulingDecision decision = fifo_.Schedule(event, ctx);
  decision.fallback_reason = reason;
  return decision;
}

SchedulingDecision GuardedPolicy::Schedule(const SchedulingEvent& event,
                                           const SchedulingContext& ctx) {
  if (sticky_) {
    // Degraded mode: FIFO answers directly; probe the inner policy only
    // every probe_interval-th event.
    const bool probe =
        config_.probe_interval > 0 &&
        events_while_sticky_++ % config_.probe_interval == 0;
    if (!probe) return Fallback("sticky", event, ctx);
  }

  // Deterministic failure injection for the decision path: kError forces a
  // failure outright; kDelay/kStall add *simulated* seconds charged against
  // the decision budget (real sleeps would make sim runs nondeterministic).
  double simulated_delay = 0.0;
  bool forced_failure = false;
  if (const FaultAction fault =
          LSCHED_FAULT("policy_decide", event.query, ctx.now())) {
    if (fault.type == FaultType::kError) {
      forced_failure = true;
    } else {
      simulated_delay = fault.param;
    }
  }

  const char* reason = nullptr;
  SchedulingDecision decision;
  if (forced_failure) {
    reason = "injected_failure";
  } else {
    Stopwatch sw;
    try {
      decision = inner_->Schedule(event, ctx);
    } catch (const std::exception& e) {
      reason = "exception";
    } catch (...) {
      reason = "exception";
    }
    if (reason == nullptr && config_.decision_budget_seconds > 0.0 &&
        sw.ElapsedSeconds() + simulated_delay >
            config_.decision_budget_seconds) {
      reason = "decision_budget_exceeded";
    }
    if (reason == nullptr && !ValidDecision(decision, ctx)) {
      reason = "invalid_decision";
    }
  }

  if (reason != nullptr) {
    ++consecutive_failures_;
    if (!sticky_ && consecutive_failures_ >= config_.sticky_after) {
      sticky_ = true;
      events_while_sticky_ = 1;  // this event already probed
      LSCHED_LOG(Warning) << "GuardedPolicy: " << inner_->name() << " failed "
                          << consecutive_failures_
                          << " consecutive events; guard is now sticky";
    }
    return Fallback(reason, event, ctx);
  }

  // Success: a valid decision in budget. A probing sticky guard recovers.
  consecutive_failures_ = 0;
  if (sticky_) {
    sticky_ = false;
    events_while_sticky_ = 0;
    LSCHED_LOG(Info) << "GuardedPolicy: " << inner_->name()
                     << " recovered; leaving degraded mode";
  }
  return decision;
}

}  // namespace lsched
