#include "exec/query_state.h"

#include <algorithm>
#include <cmath>

#include "exec/kernels.h"

namespace lsched {

const char* SchedulingEventTypeName(SchedulingEventType t) {
  switch (t) {
    case SchedulingEventType::kQueryArrival:
      return "QueryArrival";
    case SchedulingEventType::kOperatorCompleted:
      return "OperatorCompleted";
    case SchedulingEventType::kThreadIdle:
      return "ThreadIdle";
    case SchedulingEventType::kThreadAdded:
      return "ThreadAdded";
    case SchedulingEventType::kThreadRemoved:
      return "ThreadRemoved";
    case SchedulingEventType::kQueryCancelled:
      return "QueryCancelled";
  }
  return "?";
}

const char* QueryStatusName(QueryStatus s) {
  switch (s) {
    case QueryStatus::kAdmitted:
      return "ADMITTED";
    case QueryStatus::kRunning:
      return "RUNNING";
    case QueryStatus::kDone:
      return "DONE";
    case QueryStatus::kCancelled:
      return "CANCELLED";
    case QueryStatus::kFailed:
      return "FAILED";
    case QueryStatus::kShed:
      return "SHED";
  }
  return "?";
}

const char* QueryPriorityName(QueryPriority p) {
  switch (p) {
    case QueryPriority::kLow:
      return "low";
    case QueryPriority::kNormal:
      return "normal";
    case QueryPriority::kHigh:
      return "high";
  }
  return "?";
}

bool QueryState::TransitionTo(QueryStatus to) {
  if (to == status_) return true;  // idempotent
  bool legal = false;
  switch (status_) {
    case QueryStatus::kAdmitted:
      // RUNNING on first pipeline launch, or straight to any terminal state
      // (cancel-before-start, admission failure, zero-work completion).
      legal = true;
      break;
    case QueryStatus::kRunning:
      // SHED is an admission-time decision only: once work has run the
      // query can complete, be cancelled, or fail, but never be shed.
      legal = IsTerminalStatus(to) && to != QueryStatus::kShed;
      break;
    case QueryStatus::kDone:
    case QueryStatus::kCancelled:
    case QueryStatus::kFailed:
    case QueryStatus::kShed:
      legal = false;  // terminal states absorb
      break;
  }
  if (legal) status_ = to;
  return legal;
}

QueryState::QueryState(QueryId id, QueryPlan plan, double arrival_time)
    : id_(id), plan_(std::move(plan)), arrival_time_(arrival_time) {
  ops_.reserve(plan_.num_nodes());
  for (size_t i = 0; i < plan_.num_nodes(); ++i) {
    OpRuntime rt;
    rt.remaining = static_cast<double>(plan_.node(static_cast<int>(i)).num_work_orders);
    ops_.push_back(std::move(rt));
  }
}

bool QueryState::AdvanceOperator(int op, double amount,
                                 double observed_seconds,
                                 double observed_memory) {
  OpRuntime& rt = ops_[op];
  if (rt.completed || amount <= 0.0) return false;
  const double before = rt.remaining;
  rt.remaining = std::max(0.0, rt.remaining - amount);
  const double progressed = before - rt.remaining;
  if (progressed > 0.0) {
    rt.completed_wos += static_cast<int>(std::floor(
        static_cast<double>(plan_.node(op).num_work_orders) - rt.remaining -
        static_cast<double>(rt.completed_wos) + 1e-9));
    // Normalize the observation to a per-work-order sample.
    const double x = static_cast<double>(rt.completed_wos);
    rt.dur_reg.Add(x, observed_seconds / progressed);
    rt.mem_reg.Add(x, observed_memory / std::max(progressed, 1e-9));
  }
  if (rt.remaining <= 1e-9 && !rt.completed) {
    rt.remaining = 0.0;
    rt.completed = true;
    rt.scheduled = false;
    ++completed_ops_;
    return true;
  }
  return false;
}

bool QueryState::IsOpSchedulable(int op) const {
  const OpRuntime& rt = ops_[op];
  if (rt.completed || rt.scheduled) return false;
  for (int e : plan_.node(op).in_edges) {
    const PlanEdge& edge = plan_.edge(e);
    const OpRuntime& prod = ops_[edge.producer];
    if (edge.pipeline_breaking) {
      if (!prod.completed) return false;
    } else {
      if (!prod.completed && !prod.scheduled) return false;
    }
  }
  return true;
}

std::vector<int> QueryState::SchedulableOps() const {
  std::vector<int> out;
  for (size_t i = 0; i < ops_.size(); ++i) {
    if (IsOpSchedulable(static_cast<int>(i))) out.push_back(static_cast<int>(i));
  }
  return out;
}

std::vector<int> QueryState::ValidPipelineFrom(int root) const {
  std::vector<int> chain = {root};
  int current = root;
  while (true) {
    int next = -1;
    double best_cost = -1.0;
    for (int e : plan_.node(current).out_edges) {
      const PlanEdge& edge = plan_.edge(e);
      if (edge.pipeline_breaking) continue;
      const int cand = edge.consumer;
      const OpRuntime& rt = ops_[cand];
      if (rt.completed || rt.scheduled) continue;
      // All *other* producers of the candidate must be completed (its input
      // from `current` streams through the pipeline).
      bool ok = true;
      for (int e2 : plan_.node(cand).in_edges) {
        const PlanEdge& other = plan_.edge(e2);
        if (other.producer == current) continue;
        if (!ops_[other.producer].completed) {
          ok = false;
          break;
        }
      }
      if (!ok) continue;
      // A fused work order pushes only `current`'s chunks through the
      // candidate, so `current` must be its ONE stream input. Fusing from a
      // side input (hash-build, merge/NLJ inner, intersect side) or from
      // one branch of a multi-input union would silently drop the rows of
      // the other stream producers when the pipeline completes.
      const std::vector<int> stream = StreamProducers(plan_, cand);
      if (stream.size() != 1 || stream[0] != current) continue;
      const double cost =
          static_cast<double>(plan_.node(cand).num_work_orders) *
          plan_.node(cand).est_cost_per_wo;
      if (cost > best_cost) {
        best_cost = cost;
        next = cand;
      }
    }
    if (next < 0) break;
    chain.push_back(next);
    current = next;
  }
  return chain;
}

double QueryState::EstimateNextWorkOrderSeconds(int op) const {
  const OpRuntime& rt = ops_[op];
  if (rt.dur_reg.empty()) return plan_.node(op).est_cost_per_wo;
  const double pred =
      rt.dur_reg.Predict(static_cast<double>(rt.completed_wos + 1));
  return pred > 0.0 ? pred : plan_.node(op).est_cost_per_wo;
}

double QueryState::EstimateNextWorkOrderMemory(int op) const {
  const OpRuntime& rt = ops_[op];
  if (rt.mem_reg.empty()) return plan_.node(op).est_mem_per_wo;
  const double pred =
      rt.mem_reg.Predict(static_cast<double>(rt.completed_wos + 1));
  return pred > 0.0 ? pred : plan_.node(op).est_mem_per_wo;
}

double QueryState::EstimateRemainingSeconds(int op) const {
  return EstimateNextWorkOrderSeconds(op) * ops_[op].remaining;
}

double QueryState::EstimateRemainingMemory(int op) const {
  return EstimateNextWorkOrderMemory(op) * ops_[op].remaining;
}

double QueryState::EstimateQueryRemainingSeconds() const {
  double total = 0.0;
  for (size_t i = 0; i < ops_.size(); ++i) {
    if (!ops_[i].completed) {
      total += EstimateRemainingSeconds(static_cast<int>(i));
    }
  }
  return total;
}

}  // namespace lsched
