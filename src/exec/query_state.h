#ifndef LSCHED_EXEC_QUERY_STATE_H_
#define LSCHED_EXEC_QUERY_STATE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "exec/exec_types.h"
#include "plan/query_plan.h"
#include "util/math_util.h"

namespace lsched {

/// Runtime progress of one query: per-operator work-order counters and the
/// execution-statistics estimators the dynamic features are computed from
/// (paper §4.1: O-WO, O-DUR, O-MEM are recalculated from the execution
/// monitor at every scheduling event).
class QueryState {
 public:
  QueryState(QueryId id, QueryPlan plan, double arrival_time);

  QueryId id() const { return id_; }
  /// Process-unique number of this query (a copy shares it). Query ids
  /// restart with every episode; the serial tells a cache that state
  /// derived from the plan belongs to this query and not to an earlier one
  /// with the same id.
  uint64_t serial() const { return serial_; }
  const QueryPlan& plan() const { return plan_; }
  double arrival_time() const { return arrival_time_; }

  /// Serving metadata (tenant + priority class); defaulted for episode-mode
  /// workloads that predate multi-tenancy.
  const QueryTag& tag() const { return tag_; }
  void set_tag(const QueryTag& tag) { tag_ = tag; }

  bool completed() const { return completed_ops_ == plan_.num_nodes(); }
  double completion_time() const { return completion_time_; }
  void set_completion_time(double t) { completion_time_ = t; }

  /// --- lifecycle state machine (DESIGN.md §10) --------------------------

  QueryStatus status() const { return status_; }

  /// Attempts the lifecycle transition to `to`. Returns true when the query
  /// is in state `to` after the call (including the idempotent same-state
  /// case); returns false — leaving the state unchanged — for illegal
  /// transitions, so terminal states absorb all later requests
  /// (double-cancel, cancel-after-done, fail-after-cancel are no-ops).
  bool TransitionTo(QueryStatus to);

  /// --- per-operator progress -------------------------------------------

  bool op_completed(int op) const { return ops_[op].completed; }
  bool op_scheduled(int op) const { return ops_[op].scheduled; }
  void set_op_scheduled(int op, bool v) { ops_[op].scheduled = v; }

  /// Remaining work orders (dynamic O-WO). Fractional progress from fused
  /// pipeline work orders is rounded up.
  double RemainingWorkOrders(int op) const { return ops_[op].remaining; }

  int CompletedWorkOrders(int op) const { return ops_[op].completed_wos; }

  /// Advances `op` by `amount` work orders (can be fractional for pipelined
  /// stages) and records the observed duration/memory of that slice in the
  /// estimators. Returns true when the operator just completed.
  bool AdvanceOperator(int op, double amount, double observed_seconds,
                       double observed_memory);

  /// True when every blocking producer has completed and every non-blocking
  /// producer has completed or is currently scheduled (paper §5.3.1:
  /// "an operator is schedulable if all its blocking parents are completely
  /// executed"), and the operator itself is neither scheduled nor done.
  bool IsOpSchedulable(int op) const;

  /// All currently schedulable operator ids.
  std::vector<int> SchedulableOps() const;

  /// Longest valid pipeline starting at `root` *right now*: follows
  /// non-breaking edges while each next consumer's other producers are
  /// completed. Index 0 is `root`.
  std::vector<int> ValidPipelineFrom(int root) const;

  /// --- dynamic estimates (execution monitor) ----------------------------

  /// Estimated seconds for the next work order of `op`: windowed linear
  /// regression over previously completed work orders (paper footnote 1),
  /// falling back to the optimizer estimate before any completions.
  double EstimateNextWorkOrderSeconds(int op) const;

  /// Estimated memory for the next work order of `op`.
  double EstimateNextWorkOrderMemory(int op) const;

  /// O-DUR: estimated total remaining seconds of `op`.
  double EstimateRemainingSeconds(int op) const;

  /// O-MEM: estimated total remaining memory of `op`.
  double EstimateRemainingMemory(int op) const;

  /// Sum of O-DUR over all unfinished operators (used by SJF et al.).
  double EstimateQueryRemainingSeconds() const;

  /// --- thread accounting -------------------------------------------------

  /// Total thread-seconds of work orders completed for this query so far
  /// ("attained service" — the signal priority-decay schedulers like
  /// SelfTune's stride scheduling use in place of cost estimates).
  double attained_service() const { return attained_service_; }
  void AddAttainedService(double seconds) { attained_service_ += seconds; }

  int assigned_threads() const { return assigned_threads_; }
  void set_assigned_threads(int n) { assigned_threads_ = n; }
  int max_threads() const { return max_threads_; }
  void set_max_threads(int n) { max_threads_ = n; }

  /// --- latency decomposition (DESIGN.md §8.2) ---------------------------

  /// Where this query's lifetime went (admission/queue/service/stall).
  /// Filled by EpisodeRecorder at the terminal transition, *before*
  /// ServingHooks::OnQueryTerminal fires, so serving-layer ledgers
  /// (TenantTable) can read it. `breakdown().valid` is false until then.
  const LatencyBreakdown& breakdown() const { return breakdown_; }
  void set_breakdown(const LatencyBreakdown& b) { breakdown_ = b; }

 private:
  struct OpRuntime {
    double remaining = 0.0;  ///< remaining work orders (fractional)
    int completed_wos = 0;
    bool scheduled = false;
    bool completed = false;
    WindowedLinearRegression dur_reg;
    WindowedLinearRegression mem_reg;
  };

  QueryId id_;
  uint64_t serial_;
  QueryPlan plan_;
  double arrival_time_;
  QueryTag tag_;
  double completion_time_ = -1.0;
  QueryStatus status_ = QueryStatus::kAdmitted;
  std::vector<OpRuntime> ops_;
  size_t completed_ops_ = 0;
  double attained_service_ = 0.0;
  int assigned_threads_ = 0;
  int max_threads_ = 0;  ///< 0 = unlimited
  LatencyBreakdown breakdown_;
};

}  // namespace lsched

#endif  // LSCHED_EXEC_QUERY_STATE_H_
