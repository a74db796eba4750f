#include "sched/heuristics.h"

#include <algorithm>
#include <cmath>

namespace lsched {

SchedulingDecision FifoScheduler::Schedule(const SchedulingEvent& event,
                                           const SchedulingContext& ctx) {
  (void)event;
  SchedulingDecision d;
  // Strict arrival order: find the oldest query that still has schedulable
  // work; grant it everything. Later queries wait.
  std::vector<QueryState*> order = ctx.queries();
  std::sort(order.begin(), order.end(),
            [](const QueryState* a, const QueryState* b) {
              return a->arrival_time() < b->arrival_time();
            });
  for (QueryState* q : order) {
    if (!q->SchedulableOps().empty()) {
      ScheduleAllOps(q, &d);
      GrantFullPool(ctx, q->id(), &d);
      return d;
    }
    if (!q->completed()) {
      // Head-of-line query still running: FIFO does not look past it.
      return d;
    }
  }
  return d;
}

SchedulingDecision FairScheduler::Schedule(const SchedulingEvent& event,
                                           const SchedulingContext& ctx) {
  (void)event;
  SchedulingDecision d;
  if (ctx.queries().empty()) return d;

  std::vector<double> weights(ctx.queries().size(), 1.0);
  if (weight_by_cost_ > 0.0) {
    for (size_t i = 0; i < weights.size(); ++i) {
      weights[i] = 1.0 + weight_by_cost_ *
                             ctx.queries()[i]->EstimateQueryRemainingSeconds();
    }
  }
  // Ceil keeps fair sharing work-conserving: with more threads than
  // queries the spare capacity is still handed out.
  AllocateProportionalShares(ctx, weights, ShareRounding::kCeil,
                             /*schedule_all_ops=*/true, &d);
  return d;
}

SchedulingDecision SjfScheduler::Schedule(const SchedulingEvent& event,
                                          const SchedulingContext& ctx) {
  (void)event;
  SchedulingDecision d;
  double best_score = 0.0;
  QueryState* best =
      BestSchedulableQuery(ctx, &best_score, [](const QueryState& q) {
        return -q.EstimateQueryRemainingSeconds();
      });
  if (best != nullptr) {
    // Decision-log score: negated remaining-time estimate (higher = better).
    d.score = best_score;
    ScheduleAllOps(best, &d);
    GrantFullPool(ctx, best->id(), &d);
  }
  return d;
}

SchedulingDecision HpfScheduler::Schedule(const SchedulingEvent& event,
                                          const SchedulingContext& ctx) {
  (void)event;
  SchedulingDecision d;
  double best_score = 0.0;
  QueryState* best =
      BestSchedulableQuery(ctx, &best_score, [](const QueryState& q) {
        // Static priority fixed by the optimizer's plan cost at arrival.
        return 1.0 / (1.0 + q.plan().TotalEstimatedCost());
      });
  if (best != nullptr) {
    d.score = best_score;
    ScheduleAllOps(best, &d);
    GrantFullPool(ctx, best->id(), &d);
  }
  return d;
}

SchedulingDecision CriticalPathScheduler::Schedule(
    const SchedulingEvent& event, const SchedulingContext& ctx) {
  (void)event;
  SchedulingDecision d;
  // Pick the schedulable pipeline with the most aggregate remaining work,
  // pipeline it aggressively (full chain).
  QueryState* best_q = nullptr;
  int best_root = -1;
  int best_degree = 1;
  double best_work = -1.0;
  for (QueryState* q : ctx.queries()) {
    for (int root : q->SchedulableOps()) {
      const std::vector<int> chain = q->ValidPipelineFrom(root);
      double work = 0.0;
      for (int op : chain) {
        work += q->EstimateRemainingSeconds(op);
      }
      if (work > best_work) {
        best_work = work;
        best_q = q;
        best_root = root;
        best_degree = static_cast<int>(chain.size());
      }
    }
  }
  if (best_q != nullptr) {
    d.score = best_work;
    d.pipelines.push_back(PipelineChoice{best_q->id(), best_root, best_degree});
    GrantFullPool(ctx, best_q->id(), &d);
  }
  return d;
}

SchedulingDecision QuickstepScheduler::Schedule(const SchedulingEvent& event,
                                                const SchedulingContext& ctx) {
  (void)event;
  SchedulingDecision d;
  if (ctx.queries().empty()) return d;

  // Proportional-priority allocation by remaining work orders (largest
  // remainder method), then keep all active nodes scheduled.
  std::vector<double> remaining(ctx.queries().size(), 0.0);
  for (size_t i = 0; i < ctx.queries().size(); ++i) {
    const QueryState* q = ctx.queries()[i];
    double r = 0.0;
    for (size_t op = 0; op < q->plan().num_nodes(); ++op) {
      r += q->RemainingWorkOrders(static_cast<int>(op));
    }
    remaining[i] = r;
  }
  AllocateProportionalShares(ctx, remaining, ShareRounding::kNearest,
                             /*schedule_all_ops=*/true, &d);
  return d;
}

}  // namespace lsched
