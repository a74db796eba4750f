#ifndef LSCHED_TESTING_INVARIANTS_H_
#define LSCHED_TESTING_INVARIANTS_H_

#include <set>
#include <string>
#include <vector>

#include "exec/scheduler.h"
#include "exec/sim_engine.h"
#include "util/status.h"

namespace lsched {

/// Scheduler decorator that validates, at every Schedule() call, both the
/// SchedulingContext the engine hands out and the SchedulingDecision the
/// wrapped policy returns. Violations are collected (not thrown) so tests
/// can run a whole episode and then assert `violations().empty()`.
///
/// State invariants checked:
///  - thread ids are unique; a busy thread names a live query and an idle
///    thread names none (no thread double-assignment). Exception: after a
///    kQueryCancelled event for a query, busy threads may keep naming it —
///    in-flight attempts drain (and are discarded) rather than being
///    preempted mid-kernel;
///  - each query's assigned_threads equals the number of threads currently
///    running it;
///  - queries in the context are unique, arrived (arrival <= now), not
///    completed, and not in a terminal lifecycle state (a cancelled/failed
///    query must leave the context immediately);
///  - event times are nondecreasing across invocations and an arrival event
///    references a query present in the context (no scheduling of
///    unarrived queries);
///  - the context's own incremental bookkeeping: the free-thread counter
///    matches a recount, the query index finds every query, and every
///    query has a nonzero version.
///
/// Decision invariants checked (against the pre-decision state, tracking
/// ops scheduled earlier in the same decision so producer+consumer launched
/// together is not a false positive):
///  - every pipeline choice names a live (present AND non-terminal) query,
///    an in-range root operator, a schedulable root, and a degree >= 1;
///  - every parallelism choice names a live query and a cap >= 0.
class ValidatingScheduler : public Scheduler {
 public:
  /// Does not take ownership of `inner`.
  explicit ValidatingScheduler(Scheduler* inner) : inner_(inner) {}

  std::string name() const override { return "validating:" + inner_->name(); }
  void Reset() override;
  SchedulingDecision Schedule(const SchedulingEvent& event,
                              const SchedulingContext& ctx) override;
  void OnQueryCompleted(QueryId query, double latency) override {
    inner_->OnQueryCompleted(query, latency);
  }

  const std::vector<std::string>& violations() const { return violations_; }

 private:
  void CheckContext(const SchedulingContext& ctx);
  void CheckState(const SchedulingEvent& event, const SchedulingContext& ctx);
  void CheckDecision(const SchedulingDecision& decision,
                     const SchedulingContext& ctx);
  void AddViolation(std::string message);

  Scheduler* inner_;
  std::vector<std::string> violations_;
  /// Queries announced dead via kQueryCancelled events: their in-flight
  /// attempts may still hold threads while they drain.
  std::set<QueryId> terminated_;
  double last_event_time_ = 0.0;
  bool seen_event_ = false;
};

/// Post-hoc validation of one episode's telemetry:
///  - when final_statuses is populated it covers every query, every entry
///    is terminal, and the cancelled/failed counters match it;
///  - arrivals/completions/latencies have one entry per DONE query (all
///    `num_queries` of them absent lifecycle tracking) and
///    latency[i] == completion[i] - arrival[i];
///  - completions are nondecreasing (they are recorded in completion order)
///    and no query completes before it arrives;
///  - work-order conservation (DESIGN.md §10):
///    planned == completed + dropped,
///    dispatched == completed + failed + discarded, retries <= failed
///    (degenerating to planned == dispatched == completed without chaos);
///  - max in-flight work orders never exceeded `max_pool_size`;
///  - decision records are time-ordered with running-query counts in range,
///    one record per scheduler invocation;
///  - avg/p90 latency match a recomputation from query_latencies and the
///    makespan is not before the last completion.
Status ValidateEpisodeResult(const EpisodeResult& result, size_t num_queries,
                             int max_pool_size);

/// Compares every field of two EpisodeResults EXCEPT scheduler_wall_seconds
/// (real time inside Schedule(), inherently nondeterministic). Returns an
/// empty string when identical, else a description of the first difference.
/// Used by the determinism tests: same seed => byte-identical episode.
std::string DiffEpisodeResults(const EpisodeResult& a, const EpisodeResult& b);

}  // namespace lsched

#endif  // LSCHED_TESTING_INVARIANTS_H_
