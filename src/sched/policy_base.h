#ifndef LSCHED_SCHED_POLICY_BASE_H_
#define LSCHED_SCHED_POLICY_BASE_H_

#include <limits>
#include <vector>

#include "exec/scheduler.h"
#include "exec/scheduling_context.h"

namespace lsched {

/// Shared base for the heuristic baselines: the free-thread / runnable-work
/// bookkeeping that used to be copy-pasted across the six heuristics lives
/// here, expressed against the incremental SchedulingContext. Subclasses
/// implement `Schedule(event, const SchedulingContext&)`.
class HeuristicPolicy : public Scheduler {
 protected:
  /// Launches every currently-schedulable operator of `q` as a full
  /// pipeline.
  static void ScheduleAllOps(const QueryState* q, SchedulingDecision* d);

  /// Grants `query` the entire thread pool.
  static void GrantFullPool(const SchedulingContext& ctx, QueryId query,
                            SchedulingDecision* d);

  enum class ShareRounding {
    kCeil,     ///< work-conserving fair shares (spare capacity handed out)
    kNearest,  ///< largest-remainder-style proportional shares
  };

  /// Splits the thread pool across all live queries proportionally to
  /// `weights` (aligned with ctx.queries()); every cap is at least 1.
  /// A non-positive weight sum grants every query the full pool. When
  /// `schedule_all_ops` is set, every query's schedulable operators are
  /// also launched as full pipelines.
  static void AllocateProportionalShares(const SchedulingContext& ctx,
                                         const std::vector<double>& weights,
                                         ShareRounding rounding,
                                         bool schedule_all_ops,
                                         SchedulingDecision* d);

  /// The query with the highest `score` among those with schedulable work,
  /// or nullptr if none (ties keep the earliest query in context order).
  template <typename ScoreFn>
  static QueryState* BestSchedulableQuery(const SchedulingContext& ctx,
                                          double* best_score,
                                          ScoreFn&& score) {
    QueryState* best = nullptr;
    double bs = -std::numeric_limits<double>::infinity();
    for (QueryState* q : ctx.queries()) {
      if (q->SchedulableOps().empty()) continue;
      const double s = score(*q);
      if (s > bs) {
        bs = s;
        best = q;
      }
    }
    if (best_score != nullptr) *best_score = bs;
    return best;
  }
};

}  // namespace lsched

#endif  // LSCHED_SCHED_POLICY_BASE_H_
