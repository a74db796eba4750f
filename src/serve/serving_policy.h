#ifndef LSCHED_SERVE_SERVING_POLICY_H_
#define LSCHED_SERVE_SERVING_POLICY_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "exec/serving_hooks.h"
#include "serve/tenant_table.h"

namespace lsched {

/// Configuration of the serving layer's admission/fairness behaviour
/// (DESIGN.md §11).
struct ServingPolicyConfig {
  /// Admission bound: maximum live (admitted + running) queries in the
  /// system. Arrivals beyond it are shed (or displace, below). <= 0 means
  /// unbounded — every arrival is admitted.
  int max_live_queries = 64;

  /// When at the bound, let a higher-priority arrival displace a
  /// still-ADMITTED (never launched) lower-priority query instead of being
  /// refused: the victim is shed, the arrival admitted. Prevents priority
  /// inversion at the admission door.
  bool displace_on_priority = true;

  /// Reorder every scheduling decision's pipeline launches by (priority
  /// class desc, weighted-service deficit asc) and inject a launch for a
  /// starved top-priority query when the policy only served lower classes.
  bool priority_injection = true;

  /// Append per-query thread caps so each tenant's running threads stay
  /// proportional to its weight share (work-conserving: every live query
  /// keeps a cap of at least 1, so capacity is never left idle while work
  /// exists). Only applies when more than one tenant is live.
  bool weighted_thread_caps = true;

  /// Fair-share weights per tenant; tenants not listed get weight 1.
  std::vector<std::pair<TenantId, double>> tenant_weights;

  /// Latency SLOs per tenant; tenants not listed have no SLO. Applied to
  /// the TenantTable at construction and on every Reset, and published as
  /// `serve.tenant<id>.slo_burn_rate` gauges.
  std::vector<std::pair<TenantId, TenantSlo>> tenant_slos;
};

/// The serving layer's decision post-processor: one ServingHooks
/// implementation installed into both engines (SimEngine for deterministic
/// replay, RealEngine for the live daemon), so simulated and real serving
/// make identical admission/fairness/priority decisions given identical
/// event sequences (DESIGN.md §11).
///
/// Three responsibilities, one per hook:
///
///  * OnAdmission — bounded admission with load shedding and
///    priority-displacement (the pending queue is the set of ADMITTED
///    queries inside the engine; the bound caps its size).
///  * FilterDecision — strict priority classes and per-tenant weighted
///    fairness, enforced by reordering/augmenting the underlying
///    scheduler's decision rather than inside each policy.
///  * OnQueryTerminal — per-tenant accounting (TenantTable) and the
///    attained-service totals the fairness deficit is computed from.
///
/// Threading: hooks run on the engine coordinator thread only (see
/// exec/serving_hooks.h); no internal locking.
class ServingPolicy : public ServingHooks {
 public:
  explicit ServingPolicy(ServingPolicyConfig config = {});

  /// Clears tenant statistics and decision counters for a fresh stream
  /// (weights from the config are re-applied).
  void Reset();

  AdmissionVerdict OnAdmission(const QueryState& q,
                               const SchedulingContext& ctx,
                               double now) override;
  void FilterDecision(SchedulingDecision* decision,
                      const SchedulingContext& ctx) override;
  void OnQueryTerminal(const QueryState& q, double now) override;
  void OnEngineRefused(const QueryState& q, double now) override;

  const TenantTable& tenants() const { return table_; }
  TenantTable& tenants() { return table_; }
  const ServingPolicyConfig& config() const { return config_; }

  /// Arrivals refused outright (shed at the door).
  int64_t num_shed() const { return num_shed_; }
  /// Admissions that displaced a lower-priority pending query.
  int64_t num_displacements() const { return num_displacements_; }
  /// Pipeline launches injected: for starved top-priority queries, and
  /// for under-share tenants when free threads would otherwise idle.
  int64_t num_injections() const { return num_injections_; }
  /// Launches rewritten from an over-share tenant to an under-share one.
  int64_t num_redirects() const { return num_redirects_; }

 private:
  ServingPolicyConfig config_;
  TenantTable table_;
  int64_t num_shed_ = 0;
  int64_t num_displacements_ = 0;
  int64_t num_injections_ = 0;
  int64_t num_redirects_ = 0;
};

}  // namespace lsched

#endif  // LSCHED_SERVE_SERVING_POLICY_H_
