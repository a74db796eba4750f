#ifndef LSCHED_SCHED_GUARDED_POLICY_H_
#define LSCHED_SCHED_GUARDED_POLICY_H_

#include <string>

#include "exec/scheduler.h"
#include "exec/scheduling_context.h"
#include "obs/metrics.h"
#include "sched/heuristics.h"

namespace lsched {

/// Failure-isolation wrapper around an arbitrary (typically learned)
/// scheduling policy (DESIGN.md §10).
///
/// A learned policy is untrusted code on the hot path of every scheduling
/// event: it can throw (a model file went missing mid-run), stall (an
/// oversized inference batch), or emit garbage (a pipeline choice for a
/// query that already left the system). GuardedPolicy makes every such
/// failure non-fatal:
///
///  * the inner Schedule() runs inside try/catch,
///  * its wall time (plus any fault-injected simulated delay) is checked
///    against a decision-latency budget,
///  * the returned decision is validated against the context — every
///    pipeline/parallelism choice must reference a LIVE query and (for
///    pipelines) an in-range, currently-schedulable root operator.
///
/// On any failure the event is answered by FIFO instead: the returned
/// decision carries the reason in `fallback_reason`, so the recorder logs
/// the invocation's one decision row as a fallback, and the fallback is
/// counted in `sched.fallback_total`. After `sticky_after` consecutive failures the
/// guard goes *sticky* — FIFO answers directly and the inner policy is only
/// probed every `probe_interval` events; one successful, valid probe
/// un-sticks it (probe-based recovery).
class GuardedPolicy : public Scheduler {
 public:
  struct Config {
    /// Max wall seconds for one inner Schedule() call. 0 disables the
    /// budget (the default: a wall-clock budget would make simulator runs
    /// timing-dependent; chaos tests inject deterministic `policy_decide`
    /// kDelay faults instead, whose param counts against this budget as
    /// simulated delay).
    double decision_budget_seconds = 0.0;
    /// Consecutive failures before the guard goes sticky.
    int sticky_after = 3;
    /// While sticky, probe the inner policy every this many events.
    int probe_interval = 16;
  };

  /// `inner` is non-owning and must outlive the wrapper.
  explicit GuardedPolicy(Scheduler* inner) : GuardedPolicy(inner, Config()) {}
  GuardedPolicy(Scheduler* inner, Config config);

  std::string name() const override;
  void Reset() override;
  SchedulingDecision Schedule(const SchedulingEvent& event,
                              const SchedulingContext& ctx) override;
  void OnQueryCompleted(QueryId query, double latency) override;

  /// --- introspection (tests, chaos harness) ------------------------------
  int64_t fallback_count() const { return fallback_count_; }
  int consecutive_failures() const { return consecutive_failures_; }
  bool sticky() const { return sticky_; }

 private:
  /// True when `decision` only references live queries with valid,
  /// schedulable roots and sane parallelism caps.
  static bool ValidDecision(const SchedulingDecision& decision,
                            const SchedulingContext& ctx);

  SchedulingDecision Fallback(const char* reason, const SchedulingEvent& event,
                              const SchedulingContext& ctx);

  Scheduler* inner_;
  Config config_;
  FifoScheduler fifo_;

  int64_t fallback_count_ = 0;
  int consecutive_failures_ = 0;
  bool sticky_ = false;
  int64_t events_while_sticky_ = 0;
  obs::Counter* fallback_total_;  ///< sched.fallback_total
};

}  // namespace lsched

#endif  // LSCHED_SCHED_GUARDED_POLICY_H_
