#ifndef LSCHED_EXEC_SCHEDULER_H_
#define LSCHED_EXEC_SCHEDULER_H_

#include <string>

#include "exec/exec_types.h"
#include "exec/query_state.h"

namespace lsched {

class SchedulingContext;

/// Scheduling-policy interface. Implementations include the heuristic
/// baselines (FIFO, Fair, SJF, HPF, critical path), the learned baselines
/// (Decima), and LSched itself. Engines invoke Schedule() at every
/// scheduling event (paper §5.2) and apply the returned decision.
///
/// Engines hand the policy their incremental SchedulingContext (DESIGN.md
/// §9); Schedule() is the one entry point every policy implements.
class Scheduler {
 public:
  virtual ~Scheduler() = default;

  virtual std::string name() const = 0;

  /// Called at the start of each workload/episode.
  virtual void Reset() {}

  /// Produces scheduling decisions for `event` given the engine's
  /// incremental context. An empty decision means "keep running what is
  /// already scheduled".
  virtual SchedulingDecision Schedule(const SchedulingEvent& event,
                                      const SchedulingContext& ctx) = 0;

  /// Feedback when a query finishes (latency = completion - arrival).
  virtual void OnQueryCompleted(QueryId query, double latency) {
    (void)query;
    (void)latency;
  }
};

}  // namespace lsched

#endif  // LSCHED_EXEC_SCHEDULER_H_
