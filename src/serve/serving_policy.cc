#include "serve/serving_policy.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <utility>

#include "exec/query_state.h"
#include "exec/scheduling_context.h"
#include "obs/metrics.h"

namespace lsched {

ServingPolicy::ServingPolicy(ServingPolicyConfig config)
    : config_(std::move(config)) {
  for (const auto& [tenant, weight] : config_.tenant_weights) {
    table_.SetWeight(tenant, weight);
  }
  for (const auto& [tenant, slo] : config_.tenant_slos) {
    table_.SetSlo(tenant, slo);
  }
}

void ServingPolicy::Reset() {
  table_.Reset();
  for (const auto& [tenant, weight] : config_.tenant_weights) {
    table_.SetWeight(tenant, weight);
  }
  for (const auto& [tenant, slo] : config_.tenant_slos) {
    table_.SetSlo(tenant, slo);
  }
  num_shed_ = 0;
  num_displacements_ = 0;
  num_injections_ = 0;
  num_redirects_ = 0;
}

AdmissionVerdict ServingPolicy::OnAdmission(const QueryState& q,
                                            const SchedulingContext& ctx,
                                            double /*now*/) {
  // Process-wide admission-verdict counters for the "serve" counter table
  // (obs/profiler.h) — the per-instance num_* members reset per session.
  static obs::Counter* admitted_counter =
      obs::MetricsRegistry::Global().GetCounter("serve.admitted_total");
  static obs::Counter* shed_counter =
      obs::MetricsRegistry::Global().GetCounter("serve.shed_total");
  static obs::Counter* displaced_counter =
      obs::MetricsRegistry::Global().GetCounter("serve.displaced_total");
  AdmissionVerdict verdict;
  const int live = static_cast<int>(ctx.queries().size());
  if (config_.max_live_queries > 0 && live >= config_.max_live_queries) {
    // At the bound. A strictly lower-priority query that has not launched
    // yet may be displaced to make room; otherwise the arrival is shed.
    const QueryState* victim = nullptr;
    if (config_.displace_on_priority) {
      for (const QueryState* cand : ctx.queries()) {
        if (cand->status() != QueryStatus::kAdmitted) continue;
        if (cand->tag().priority >= q.tag().priority) continue;
        // Lowest priority class first; newest (highest id) within a class,
        // so older pending work of the same class survives longer.
        if (victim == nullptr ||
            cand->tag().priority < victim->tag().priority ||
            (cand->tag().priority == victim->tag().priority &&
             cand->id() > victim->id())) {
          victim = cand;
        }
      }
    }
    if (victim != nullptr) {
      ++num_displacements_;
      displaced_counter->Add(1);
      verdict.displace = victim->id();
    } else {
      ++num_shed_;
      shed_counter->Add(1);
      verdict.admit = false;
    }
  }
  if (verdict.admit) admitted_counter->Add(1);
  table_.OnArrival(q.tag(), verdict.admit);
  return verdict;
}

void ServingPolicy::FilterDecision(SchedulingDecision* decision,
                                   const SchedulingContext& ctx) {
  // Per-tenant accounting snapshot, exact and deterministic: live queries'
  // attained service from the context plus terminal totals from the table.
  std::map<TenantId, double> service;
  std::map<TenantId, int> live_count;
  std::map<TenantId, int> busy_threads;
  for (const QueryState* q : ctx.queries()) {
    const TenantId tenant = q->tag().tenant;
    service[tenant] += q->attained_service();
    live_count[tenant] += 1;
    busy_threads[tenant] += q->assigned_threads();
  }
  for (auto& [tenant, seconds] : service) {
    if (const TenantStats* s = table_.stats(tenant)) {
      seconds += s->service_seconds;
    }
  }
  table_.PublishInflight(live_count);

  // --- strict priority classes -------------------------------------------
  if (config_.priority_injection && !decision->pipelines.empty()) {
    // The highest priority class with schedulable work right now, and its
    // lowest-id representative (the query an injection would launch).
    const QueryState* starved = nullptr;
    for (const QueryState* q : ctx.queries()) {
      if (IsTerminalStatus(q->status())) continue;
      if (starved != nullptr && q->tag().priority <= starved->tag().priority) {
        continue;  // ids ascend, so the first hit per class is the lowest id
      }
      if (!q->SchedulableOps().empty()) starved = q;
    }
    if (starved != nullptr) {
      bool top_served = false;
      for (const PipelineChoice& c : decision->pipelines) {
        const QueryState* q = ctx.FindQuery(c.query);
        if (q != nullptr && q->tag().priority >= starved->tag().priority) {
          top_served = true;
          break;
        }
      }
      if (!top_served) {
        // The decision only launches lower classes while the top class has
        // schedulable work: inject a minimal (degree-1) launch for it. The
        // engine re-validates the choice in ApplyDecision, so if the
        // operator became unschedulable meanwhile it is skipped, not fatal.
        ++num_injections_;
        decision->serving_actions.push_back(
            {ServingAction::kInjectPriority, starved->id(), kInvalidQuery});
        decision->pipelines.insert(
            decision->pipelines.begin(),
            PipelineChoice{starved->id(), starved->SchedulableOps().front(),
                           1});
      }
    }
  }

  // --- launch ordering: priority desc, weighted-service deficit asc ------
  auto sort_key = [&](const PipelineChoice& c) {
    const QueryState* q = ctx.FindQuery(c.query);
    if (q == nullptr) {
      // Unknown/dead queries sort last; the engine skips them anyway.
      return std::make_tuple(-1, std::numeric_limits<double>::infinity(),
                             c.query);
    }
    const TenantId tenant = q->tag().tenant;
    const double weighted =
        service[tenant] / std::max(table_.weight(tenant), 1e-9);
    return std::make_tuple(static_cast<int>(q->tag().priority), -weighted,
                           -c.query);
  };
  std::stable_sort(decision->pipelines.begin(), decision->pipelines.end(),
                   [&](const PipelineChoice& a, const PipelineChoice& b) {
                     return sort_key(a) > sort_key(b);
                   });

  // --- per-tenant weighted thread caps -----------------------------------
  if (config_.weighted_thread_caps && live_count.size() > 1) {
    const int total = ctx.total_threads();
    double weight_sum = 0.0;
    for (const auto& [tenant, count] : live_count) {
      weight_sum += table_.weight(tenant);
    }
    std::map<TenantId, int> cap;
    for (const auto& [tenant, count] : live_count) {
      cap[tenant] = std::max(
          1, static_cast<int>(std::floor(
                 total * table_.weight(tenant) / weight_sum + 1e-9)));
    }

    // Launch redirection: the per-query caps below are work-conserving
    // (never under 1), so a tenant with many live queries could exceed its
    // aggregate share one thread at a time. Rewrite launches that would
    // push a tenant past its cap into launches for the neediest under-cap
    // tenant with unclaimed schedulable work instead — capacity is
    // redirected, never idled, and never down a priority class.
    std::map<TenantId, int> planned = busy_threads;
    std::set<std::pair<QueryId, int>> claimed;
    for (const PipelineChoice& c : decision->pipelines) {
      claimed.insert({c.query, c.root_op});
    }
    for (PipelineChoice& choice : decision->pipelines) {
      const QueryState* q = ctx.FindQuery(choice.query);
      if (q == nullptr) continue;
      const TenantId tenant = q->tag().tenant;
      if (planned[tenant] < cap[tenant]) {
        ++planned[tenant];
        continue;
      }
      const QueryState* best = nullptr;
      int best_op = -1;
      double best_weighted = std::numeric_limits<double>::infinity();
      for (const QueryState* cand : ctx.queries()) {
        const TenantId other = cand->tag().tenant;
        if (other == tenant || planned[other] >= cap[other]) continue;
        if (cand->tag().priority < q->tag().priority) continue;
        const double weighted =
            service[other] / std::max(table_.weight(other), 1e-9);
        // Strictly-better keeps the lowest id per tenant (ids ascend).
        if (best != nullptr && weighted >= best_weighted) continue;
        for (int op : cand->SchedulableOps()) {
          if (claimed.count({cand->id(), op}) == 0) {
            best = cand;
            best_op = op;
            best_weighted = weighted;
            break;
          }
        }
      }
      if (best != nullptr) {
        ++num_redirects_;
        // Causal annotation for the query trace: `choice.query` lost this
        // launch to `best` (fairness redirection).
        decision->serving_actions.push_back(
            {ServingAction::kRedirect, choice.query, best->id()});
        claimed.insert({best->id(), best_op});
        ++planned[best->tag().tenant];
        choice = PipelineChoice{best->id(), best_op, 1};
      } else {
        ++planned[tenant];  // keep: work-conserving beats the cap
      }
    }

    // Fairness injection: post-processing can only reshape what the policy
    // proposed, and a head-of-line policy (e.g. FIFO) proposes nothing for
    // queries behind its head — an under-share tenant would never catch up.
    // While planned capacity remains and an under-cap tenant of the highest
    // schedulable class has unclaimed work, append minimal (degree-1)
    // launches for its neediest query. Restricting candidates to the top
    // schedulable class keeps strict priority intact.
    int planned_total = 0;
    for (const auto& [tenant, n] : planned) planned_total += n;
    int top_class = std::numeric_limits<int>::min();
    for (const QueryState* q : ctx.queries()) {
      if (!q->SchedulableOps().empty()) {
        top_class = std::max(top_class, static_cast<int>(q->tag().priority));
      }
    }
    while (planned_total < total) {
      const QueryState* best = nullptr;
      int best_op = -1;
      double best_weighted = std::numeric_limits<double>::infinity();
      for (const QueryState* cand : ctx.queries()) {
        const TenantId other = cand->tag().tenant;
        if (planned[other] >= cap[other]) continue;
        if (static_cast<int>(cand->tag().priority) != top_class) continue;
        const double weighted =
            service[other] / std::max(table_.weight(other), 1e-9);
        if (best != nullptr && weighted >= best_weighted) continue;
        for (int op : cand->SchedulableOps()) {
          if (claimed.count({cand->id(), op}) == 0) {
            best = cand;
            best_op = op;
            best_weighted = weighted;
            break;
          }
        }
      }
      if (best == nullptr) break;
      ++num_injections_;
      decision->serving_actions.push_back(
          {ServingAction::kInjectShare, best->id(), kInvalidQuery});
      claimed.insert({best->id(), best_op});
      ++planned[best->tag().tenant];
      ++planned_total;
      decision->pipelines.push_back(PipelineChoice{best->id(), best_op, 1});
    }

    for (const QueryState* q : ctx.queries()) {
      const TenantId tenant = q->tag().tenant;
      const int tenant_cap = cap[tenant];
      const int others = busy_threads[tenant] - q->assigned_threads();
      // Work-conserving: never cap below 1 — a tenant already at its share
      // can still make minimal progress rather than idling capacity.
      const int cap = std::max(1, tenant_cap - others);
      decision->parallelism.push_back(ParallelismChoice{q->id(), cap});
    }
  }
}

void ServingPolicy::OnQueryTerminal(const QueryState& q, double now) {
  table_.OnTerminal(q, now);
}

void ServingPolicy::OnEngineRefused(const QueryState& q, double /*now*/) {
  // Engine-decided door refusal (admission fault, drain-shed, pre-arrival
  // cancel): the arrival still belongs in the tenant ledger so that
  // arrived == admitted + every refusal and the per-stream conservation
  // audit (arrived == submissions) holds without an episode-end flush.
  table_.OnArrival(q.tag(), /*admitted=*/false);
}

}  // namespace lsched
