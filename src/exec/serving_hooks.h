#ifndef LSCHED_EXEC_SERVING_HOOKS_H_
#define LSCHED_EXEC_SERVING_HOOKS_H_

#include "exec/exec_types.h"

namespace lsched {

class QueryState;
class SchedulingContext;

/// Outcome of an admission-control consultation (DESIGN.md §11).
///
/// `admit == false` sheds the arriving query itself: it becomes terminal
/// kShed before any execution state is allocated or the scheduler sees it.
/// `displace` (optional, only meaningful with `admit == true`) names a live
/// query the engine must shed FIRST to make room — the mechanism by which a
/// higher-priority arrival displaces a lower-priority pending query instead
/// of being refused (no priority inversion at the admission door).
struct AdmissionVerdict {
  bool admit = true;
  QueryId displace = kInvalidQuery;
};

/// Serving-layer callbacks threaded through both engines (DESIGN.md §11).
///
/// The serving daemon implements these once (admission control, per-tenant
/// weighted fairness, priority enforcement, tenant accounting) and installs
/// the same object into a SimEngine and a RealEngine, so the deterministic
/// virtual-clock mode and the real-thread mode make identical serving
/// decisions given identical event sequences.
///
/// Threading contract: every hook is invoked from the engine's coordinator
/// (SimEngine: the single simulation thread; RealEngine: the coordinator
/// thread), never concurrently. Implementations need no internal locking
/// for state touched only by hooks.
class ServingHooks {
 public:
  virtual ~ServingHooks() = default;

  /// Consulted when `q` arrives, after the query_admit fault point and
  /// before the query enters the scheduling context. `ctx` holds the
  /// currently live queries (the pending/running set the admission bound
  /// applies to). The verdict is recorded into the per-query lifetime
  /// trace (kAdmit/kShed/kDisplace edges, obs/query_trace.h) so `lsched_cli
  /// explain` can attribute admission waits to the decision that caused
  /// them.
  virtual AdmissionVerdict OnAdmission(const QueryState& q,
                                       const SchedulingContext& ctx,
                                       double now) = 0;

  /// Post-processes a policy decision in place, immediately after
  /// Schedule() returns and before the decision is recorded or applied:
  /// reorder/prune pipeline launches (priority classes, weighted fairness)
  /// and amend parallelism caps (per-tenant thread shares). May inject
  /// launches for starved high-priority queries; engines re-validate every
  /// choice in ApplyDecision, so an invalid injection is skipped, not
  /// fatal. Implementations append each redirection/injection they apply
  /// to `decision->serving_actions`; the EpisodeRecorder reads them from
  /// the decision it is handed next and turns them into causal trace edges
  /// (kRedirected/kInjected).
  virtual void FilterDecision(SchedulingDecision* decision,
                              const SchedulingContext& ctx) = 0;

  /// A query reached a terminal state (`q.status()` is terminal). Called
  /// for every terminal transition — DONE, CANCELLED, FAILED, and SHED —
  /// exactly once per query; the hook is the serving layer's accounting
  /// point for per-tenant metrics and fairness shares.
  virtual void OnQueryTerminal(const QueryState& q, double now) = 0;

  /// The engine refused `q` at the door WITHOUT consulting OnAdmission:
  /// an injected admission fault (terminal FAILED), a drain-time shed of
  /// queued-but-unadmitted work, or a cancel that raced ahead of the
  /// arrival. Lets the serving layer keep its arrival ledger complete —
  /// every query that reaches OnQueryTerminal was first seen either here
  /// or in OnAdmission. Called before the matching OnQueryTerminal.
  virtual void OnEngineRefused(const QueryState& q, double now) {
    (void)q;
    (void)now;
  }
};

}  // namespace lsched

#endif  // LSCHED_EXEC_SERVING_HOOKS_H_
