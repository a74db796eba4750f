#include "testing/invariants.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>
#include <sstream>
#include <utility>

#include "exec/scheduling_context.h"
#include "util/logging.h"
#include "util/math_util.h"

namespace lsched {

namespace {

constexpr double kTimeTol = 1e-9;

std::string Fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

/// Local re-implementation of QueryState::IsOpSchedulable that additionally
/// treats ops in `pending` (scheduled earlier in the same decision) as
/// scheduled, so a decision launching a producer and its pipelined consumer
/// together validates cleanly.
bool SchedulableWithPending(const QueryState& q, int op,
                            const std::set<int>& pending) {
  if (q.op_completed(op) || q.op_scheduled(op) || pending.count(op) > 0) {
    return false;
  }
  const QueryPlan& plan = q.plan();
  for (int e : plan.node(op).in_edges) {
    const PlanEdge& edge = plan.edge(e);
    if (q.op_completed(edge.producer)) continue;
    if (edge.pipeline_breaking) return false;
    if (!q.op_scheduled(edge.producer) && pending.count(edge.producer) == 0) {
      return false;
    }
  }
  return true;
}

}  // namespace

void ValidatingScheduler::Reset() {
  inner_->Reset();
  terminated_.clear();
  last_event_time_ = 0.0;
  seen_event_ = false;
}

void ValidatingScheduler::AddViolation(std::string message) {
  LSCHED_LOG(Error) << "scheduling invariant violated: " << message;
  violations_.push_back(std::move(message));
}

void ValidatingScheduler::CheckState(const SchedulingEvent& event,
                                     const SchedulingContext& ctx) {
  if (seen_event_ && event.time + kTimeTol < last_event_time_) {
    AddViolation("event time went backwards: " + Fmt(event.time) + " after " +
                 Fmt(last_event_time_));
  }
  seen_event_ = true;
  last_event_time_ = std::max(last_event_time_, event.time);
  if (event.type == SchedulingEventType::kQueryCancelled) {
    terminated_.insert(event.query);
  }

  std::set<QueryId> live;
  for (const QueryState* q : ctx.queries()) {
    if (q == nullptr) {
      AddViolation("null QueryState in context");
      continue;
    }
    if (!live.insert(q->id()).second) {
      AddViolation("duplicate query " + std::to_string(q->id()) +
                   " in context");
    }
    if (q->arrival_time() > ctx.now() + kTimeTol) {
      AddViolation("query " + std::to_string(q->id()) +
                   " exposed before its arrival (arrival " +
                   Fmt(q->arrival_time()) + " > now " + Fmt(ctx.now()) + ")");
    }
    if (q->completed()) {
      AddViolation("completed query " + std::to_string(q->id()) +
                   " still in context");
    }
    if (IsTerminalStatus(q->status())) {
      AddViolation("terminal query " + std::to_string(q->id()) + " (" +
                   QueryStatusName(q->status()) + ") still in context");
    }
  }

  std::set<int> thread_ids;
  for (const ThreadInfo& t : ctx.threads()) {
    if (!thread_ids.insert(t.id).second) {
      AddViolation("duplicate thread id " + std::to_string(t.id));
    }
    if (t.busy && t.running_query == kInvalidQuery) {
      AddViolation("busy thread " + std::to_string(t.id) +
                   " with no running query");
    }
    if (!t.busy && t.running_query != kInvalidQuery) {
      AddViolation("idle thread " + std::to_string(t.id) +
                   " still claims query " + std::to_string(t.running_query));
    }
    if (t.busy && live.count(t.running_query) == 0 &&
        terminated_.count(t.running_query) == 0) {
      AddViolation("thread " + std::to_string(t.id) + " runs query " +
                   std::to_string(t.running_query) +
                   " that is not in the context");
    }
  }

  // assigned_threads bookkeeping vs actual thread occupancy (no double
  // assignment: each busy thread counts toward exactly one query).
  for (const QueryState* q : ctx.queries()) {
    if (q == nullptr) continue;
    int running = 0;
    for (const ThreadInfo& t : ctx.threads()) {
      if (t.busy && t.running_query == q->id()) ++running;
    }
    if (running != q->assigned_threads()) {
      AddViolation("query " + std::to_string(q->id()) + " assigned_threads=" +
                   std::to_string(q->assigned_threads()) + " but " +
                   std::to_string(running) + " threads run it");
    }
  }

  if (event.type == SchedulingEventType::kQueryArrival &&
      live.count(event.query) == 0) {
    AddViolation("arrival event for query " + std::to_string(event.query) +
                 " absent from context");
  }
}

void ValidatingScheduler::CheckDecision(const SchedulingDecision& decision,
                                        const SchedulingContext& ctx) {
  std::map<QueryId, std::set<int>> pending;  // ops launched by this decision
  for (const PipelineChoice& choice : decision.pipelines) {
    const QueryState* q = ctx.FindQuery(choice.query);
    if (q == nullptr) {
      AddViolation("pipeline choice for unknown/unarrived query " +
                   std::to_string(choice.query));
      continue;
    }
    if (IsTerminalStatus(q->status())) {
      AddViolation("pipeline choice for dead query " +
                   std::to_string(choice.query) + " (" +
                   QueryStatusName(q->status()) + ")");
      continue;
    }
    if (choice.root_op < 0 ||
        choice.root_op >= static_cast<int>(q->plan().num_nodes())) {
      AddViolation("pipeline root " + std::to_string(choice.root_op) +
                   " out of range for query " + std::to_string(choice.query));
      continue;
    }
    if (choice.degree < 1) {
      AddViolation("pipeline degree " + std::to_string(choice.degree) +
                   " < 1 for query " + std::to_string(choice.query));
    }
    std::set<int>& mine = pending[choice.query];
    if (!SchedulableWithPending(*q, choice.root_op, mine)) {
      AddViolation("unschedulable pipeline root " +
                   std::to_string(choice.root_op) + " for query " +
                   std::to_string(choice.query) + " (completed=" +
                   std::to_string(q->op_completed(choice.root_op)) +
                   " scheduled=" +
                   std::to_string(q->op_scheduled(choice.root_op)) + ")");
      continue;
    }
    // Mark the whole requested pipeline as pending, mirroring how engines
    // mark every fused member scheduled when launching.
    std::vector<int> chain = q->ValidPipelineFrom(choice.root_op);
    const size_t fused = std::min(chain.size(),
                                  static_cast<size_t>(
                                      std::max(choice.degree, 1)));
    for (size_t i = 0; i < fused; ++i) mine.insert(chain[i]);
  }
  for (const ParallelismChoice& choice : decision.parallelism) {
    const QueryState* q = ctx.FindQuery(choice.query);
    if (q == nullptr) {
      AddViolation("parallelism choice for unknown/unarrived query " +
                   std::to_string(choice.query));
    } else if (IsTerminalStatus(q->status())) {
      AddViolation("parallelism choice for dead query " +
                   std::to_string(choice.query) + " (" +
                   QueryStatusName(q->status()) + ")");
    }
    if (choice.max_threads < 0) {
      AddViolation("negative thread cap for query " +
                   std::to_string(choice.query));
    }
  }
}

void ValidatingScheduler::CheckContext(const SchedulingContext& ctx) {
  int free_recount = 0;
  for (const ThreadInfo& t : ctx.threads()) {
    if (!t.busy) ++free_recount;
  }
  if (free_recount != ctx.num_free_threads()) {
    AddViolation("context free-thread counter " +
                 std::to_string(ctx.num_free_threads()) + " != recount " +
                 std::to_string(free_recount));
  }
  for (const QueryState* q : ctx.queries()) {
    if (q == nullptr) continue;
    if (ctx.FindQuery(q->id()) != q) {
      AddViolation("context query index stale for query " +
                   std::to_string(q->id()));
    }
    if (ctx.query_version(q->id()) == 0) {
      AddViolation("live query " + std::to_string(q->id()) +
                   " has version 0 (reserved for unknown queries)");
    }
  }
}

SchedulingDecision ValidatingScheduler::Schedule(const SchedulingEvent& event,
                                                 const SchedulingContext& ctx) {
  CheckContext(ctx);
  CheckState(event, ctx);
  SchedulingDecision decision = inner_->Schedule(event, ctx);
  CheckDecision(decision, ctx);
  return decision;
}

Status ValidateEpisodeResult(const EpisodeResult& result, size_t num_queries,
                             int max_pool_size) {
  auto fail = [](const std::string& msg) {
    return Status(StatusCode::kInternal, "episode invariant violated: " + msg);
  };
  // With lifecycle tracking, latencies exist only for DONE queries; the
  // status vector must cover every query and hold only terminal states.
  size_t expected_done = num_queries;
  if (!result.final_statuses.empty()) {
    if (result.final_statuses.size() != num_queries) {
      return fail("final_statuses has " +
                  std::to_string(result.final_statuses.size()) +
                  " entries for " + std::to_string(num_queries) + " queries");
    }
    int done = 0, cancelled = 0, failed = 0, shed = 0;
    for (size_t i = 0; i < result.final_statuses.size(); ++i) {
      const QueryStatus s = result.final_statuses[i];
      if (!IsTerminalStatus(s)) {
        return fail("query " + std::to_string(i) +
                    " ended the episode non-terminal (" + QueryStatusName(s) +
                    ")");
      }
      if (s == QueryStatus::kDone) ++done;
      if (s == QueryStatus::kCancelled) ++cancelled;
      if (s == QueryStatus::kFailed) ++failed;
      if (s == QueryStatus::kShed) ++shed;
    }
    if (cancelled != result.num_queries_cancelled ||
        failed != result.num_queries_failed ||
        shed != result.num_queries_shed) {
      return fail("terminal-status counts disagree: statuses say " +
                  std::to_string(cancelled) + " cancelled / " +
                  std::to_string(failed) + " failed / " +
                  std::to_string(shed) + " shed, counters say " +
                  std::to_string(result.num_queries_cancelled) + " / " +
                  std::to_string(result.num_queries_failed) + " / " +
                  std::to_string(result.num_queries_shed));
    }
    // Serving conservation (DESIGN.md §11): every query that arrived is
    // accounted for by exactly one terminal state.
    if (done + cancelled + failed + shed !=
        static_cast<int>(num_queries)) {
      return fail("admission conservation broken: done + cancelled + failed "
                  "+ shed != admitted");
    }
    expected_done = static_cast<size_t>(done);
  } else if (result.num_queries_cancelled != 0 ||
             result.num_queries_failed != 0 ||
             result.num_queries_shed != 0) {
    return fail("cancelled/failed/shed queries reported without "
                "final_statuses");
  }
  if (result.query_latencies.size() != expected_done) {
    return fail("expected " + std::to_string(expected_done) +
                " latencies, got " +
                std::to_string(result.query_latencies.size()));
  }
  if (result.query_arrivals.size() != expected_done ||
      result.query_completions.size() != expected_done) {
    return fail("arrival/completion telemetry size mismatch");
  }
  for (size_t i = 0; i < expected_done; ++i) {
    const double arrival = result.query_arrivals[i];
    const double completion = result.query_completions[i];
    const double latency = result.query_latencies[i];
    if (completion + kTimeTol < arrival) {
      return fail("query completed at " + Fmt(completion) +
                  " before its arrival " + Fmt(arrival));
    }
    if (std::abs(latency - (completion - arrival)) >
        kTimeTol * std::max(1.0, std::abs(completion))) {
      return fail("latency[" + std::to_string(i) + "]=" + Fmt(latency) +
                  " != completion - arrival = " + Fmt(completion - arrival));
    }
    if (i > 0 &&
        completion + kTimeTol < result.query_completions[i - 1]) {
      return fail("completions not in completion order at index " +
                  std::to_string(i));
    }
  }
  // Work-order conservation under the fault model (DESIGN.md §10). With no
  // faults/cancellations every chaos counter is zero and these degenerate
  // to the legacy planned == dispatched == completed.
  if (result.num_work_orders_failed < 0 || result.num_work_orders_discarded < 0 ||
      result.num_work_orders_dropped < 0 || result.num_work_orders_expired < 0 ||
      result.num_retries < 0) {
    return fail("negative chaos work-order counter");
  }
  if (result.num_work_orders_planned !=
      result.num_work_orders_completed + result.num_work_orders_dropped) {
    return fail("work-order conservation broken: planned=" +
                std::to_string(result.num_work_orders_planned) +
                " != completed=" +
                std::to_string(result.num_work_orders_completed) +
                " + dropped=" +
                std::to_string(result.num_work_orders_dropped));
  }
  if (result.num_work_orders_dispatched !=
      result.num_work_orders_completed + result.num_work_orders_failed +
          result.num_work_orders_discarded) {
    return fail("work-order conservation broken: dispatched=" +
                std::to_string(result.num_work_orders_dispatched) +
                " != completed=" +
                std::to_string(result.num_work_orders_completed) +
                " + failed=" + std::to_string(result.num_work_orders_failed) +
                " + discarded=" +
                std::to_string(result.num_work_orders_discarded));
  }
  if (result.num_retries > result.num_work_orders_failed) {
    return fail("more retries (" + std::to_string(result.num_retries) +
                ") than failed attempts (" +
                std::to_string(result.num_work_orders_failed) + ")");
  }
  if (result.max_inflight_work_orders > max_pool_size) {
    return fail("max inflight work orders " +
                std::to_string(result.max_inflight_work_orders) +
                " exceeds pool size " + std::to_string(max_pool_size));
  }
  if (static_cast<int>(result.decisions.size()) !=
      result.num_scheduler_invocations) {
    return fail("decision records (" + std::to_string(result.decisions.size()) +
                ") != scheduler invocations (" +
                std::to_string(result.num_scheduler_invocations) + ")");
  }
  double prev_time = 0.0;
  for (size_t i = 0; i < result.decisions.size(); ++i) {
    const auto& d = result.decisions[i];
    if (i > 0 && d.time + kTimeTol < prev_time) {
      return fail("decision times not nondecreasing at record " +
                  std::to_string(i));
    }
    prev_time = std::max(prev_time, d.time);
    if (d.running_queries < 0 ||
        d.running_queries > static_cast<int>(num_queries)) {
      return fail("decision record " + std::to_string(i) + " reports " +
                  std::to_string(d.running_queries) + " running queries");
    }
  }
  const double avg = Mean(result.query_latencies);
  const double p90 = Percentile(result.query_latencies, 90.0);
  if (std::abs(avg - result.avg_latency) > 1e-9 * std::max(1.0, avg)) {
    return fail("avg_latency " + Fmt(result.avg_latency) +
                " != recomputed " + Fmt(avg));
  }
  if (std::abs(p90 - result.p90_latency) > 1e-9 * std::max(1.0, p90)) {
    return fail("p90_latency " + Fmt(result.p90_latency) +
                " != recomputed " + Fmt(p90));
  }
  if (!result.query_completions.empty() &&
      result.makespan + kTimeTol < result.query_completions.back()) {
    return fail("makespan " + Fmt(result.makespan) +
                " precedes last completion " +
                Fmt(result.query_completions.back()));
  }
  return Status::OK();
}

std::string DiffEpisodeResults(const EpisodeResult& a, const EpisodeResult& b) {
  std::ostringstream out;
  auto diff_scalar = [&out](const char* name, double x, double y) {
    if (x != y) {
      out << name << ": " << Fmt(x) << " vs " << Fmt(y) << "; ";
    }
  };
  auto diff_int = [&out](const char* name, int64_t x, int64_t y) {
    if (x != y) out << name << ": " << x << " vs " << y << "; ";
  };
  auto diff_vec = [&out](const char* name, const std::vector<double>& x,
                         const std::vector<double>& y) {
    if (x.size() != y.size()) {
      out << name << ".size: " << x.size() << " vs " << y.size() << "; ";
      return;
    }
    for (size_t i = 0; i < x.size(); ++i) {
      if (x[i] != y[i]) {
        out << name << "[" << i << "]: " << Fmt(x[i]) << " vs " << Fmt(y[i])
            << "; ";
        return;
      }
    }
  };
  diff_vec("query_latencies", a.query_latencies, b.query_latencies);
  diff_vec("query_arrivals", a.query_arrivals, b.query_arrivals);
  diff_vec("query_completions", a.query_completions, b.query_completions);
  diff_scalar("avg_latency", a.avg_latency, b.avg_latency);
  diff_scalar("p90_latency", a.p90_latency, b.p90_latency);
  diff_scalar("makespan", a.makespan, b.makespan);
  diff_int("num_scheduler_invocations", a.num_scheduler_invocations,
           b.num_scheduler_invocations);
  diff_int("num_actions", a.num_actions, b.num_actions);
  diff_int("num_fallback_decisions", a.num_fallback_decisions,
           b.num_fallback_decisions);
  diff_int("num_work_orders_planned", a.num_work_orders_planned,
           b.num_work_orders_planned);
  diff_int("num_work_orders_dispatched", a.num_work_orders_dispatched,
           b.num_work_orders_dispatched);
  diff_int("num_work_orders_completed", a.num_work_orders_completed,
           b.num_work_orders_completed);
  diff_int("num_work_orders_failed", a.num_work_orders_failed,
           b.num_work_orders_failed);
  diff_int("num_work_orders_discarded", a.num_work_orders_discarded,
           b.num_work_orders_discarded);
  diff_int("num_work_orders_dropped", a.num_work_orders_dropped,
           b.num_work_orders_dropped);
  diff_int("num_work_orders_expired", a.num_work_orders_expired,
           b.num_work_orders_expired);
  diff_int("num_retries", a.num_retries, b.num_retries);
  diff_int("num_queries_cancelled", a.num_queries_cancelled,
           b.num_queries_cancelled);
  diff_int("num_queries_failed", a.num_queries_failed, b.num_queries_failed);
  diff_int("num_queries_shed", a.num_queries_shed, b.num_queries_shed);
  diff_int("max_inflight_work_orders", a.max_inflight_work_orders,
           b.max_inflight_work_orders);
  if (a.final_statuses.size() != b.final_statuses.size()) {
    out << "final_statuses.size: " << a.final_statuses.size() << " vs "
        << b.final_statuses.size() << "; ";
  } else {
    for (size_t i = 0; i < a.final_statuses.size(); ++i) {
      if (a.final_statuses[i] != b.final_statuses[i]) {
        out << "final_statuses[" << i
            << "]: " << QueryStatusName(a.final_statuses[i]) << " vs "
            << QueryStatusName(b.final_statuses[i]) << "; ";
        break;
      }
    }
  }
  if (a.decisions.size() != b.decisions.size()) {
    out << "decisions.size: " << a.decisions.size() << " vs "
        << b.decisions.size() << "; ";
  } else {
    for (size_t i = 0; i < a.decisions.size(); ++i) {
      if (a.decisions[i].time != b.decisions[i].time ||
          a.decisions[i].running_queries != b.decisions[i].running_queries) {
        out << "decisions[" << i << "]: (" << Fmt(a.decisions[i].time) << ", "
            << a.decisions[i].running_queries << ") vs ("
            << Fmt(b.decisions[i].time) << ", "
            << b.decisions[i].running_queries << "); ";
        break;
      }
    }
  }
  return out.str();
}

}  // namespace lsched
