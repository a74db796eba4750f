#ifndef LSCHED_SCHED_HEURISTICS_H_
#define LSCHED_SCHED_HEURISTICS_H_

#include <string>

#include "sched/policy_base.h"

namespace lsched {

/// FIFO: runs queries strictly in arrival order and grants each as many
/// threads as are available, stalling later arrivals (paper §7.2 calls this
/// the worst baseline). Pipelining enabled (full chains).
class FifoScheduler : public HeuristicPolicy {
 public:
  std::string name() const override { return "FIFO"; }
  SchedulingDecision Schedule(const SchedulingEvent& event,
                              const SchedulingContext& ctx) override;
};

/// Carefully-tuned weighted fair scheduling (paper baseline 4): splits the
/// thread pool evenly across running queries (cap = max(1, T/Q)) and keeps
/// every query's schedulable operators running with full pipelines.
class FairScheduler : public HeuristicPolicy {
 public:
  explicit FairScheduler(double weight_by_cost = 0.0)
      : weight_by_cost_(weight_by_cost) {}
  std::string name() const override { return "Fair"; }
  SchedulingDecision Schedule(const SchedulingEvent& event,
                              const SchedulingContext& ctx) override;

 private:
  /// 0 = equal weights; 1 = weights proportional to remaining work.
  double weight_by_cost_;
};

/// Shortest Job First over *dynamic* remaining-work estimates from the
/// execution monitor: the query with the least estimated remaining seconds
/// gets all free resources.
class SjfScheduler : public HeuristicPolicy {
 public:
  std::string name() const override { return "SJF"; }
  SchedulingDecision Schedule(const SchedulingEvent& event,
                              const SchedulingContext& ctx) override;
};

/// Highest Priority First with static priorities fixed at arrival
/// (priority = inverse of the optimizer's total plan cost).
class HpfScheduler : public HeuristicPolicy {
 public:
  std::string name() const override { return "HPF"; }
  SchedulingDecision Schedule(const SchedulingEvent& event,
                              const SchedulingContext& ctx) override;
};

/// Critical-path pipelining heuristic (paper Fig. 1, [19]): at each event,
/// launch the schedulable pipeline carrying the most aggregate work, with
/// aggressive (maximal) pipelining.
class CriticalPathScheduler : public HeuristicPolicy {
 public:
  std::string name() const override { return "CriticalPath"; }
  SchedulingDecision Schedule(const SchedulingEvent& event,
                              const SchedulingContext& ctx) override;
};

/// Quickstep's built-in policy (paper baseline 3): probabilistic
/// proportional-priority sharing — thread caps allocated proportionally to
/// each query's estimated remaining work orders, all active nodes kept
/// scheduled with pipelining.
class QuickstepScheduler : public HeuristicPolicy {
 public:
  std::string name() const override { return "Quickstep"; }
  SchedulingDecision Schedule(const SchedulingEvent& event,
                              const SchedulingContext& ctx) override;
};

}  // namespace lsched

#endif  // LSCHED_SCHED_HEURISTICS_H_
