#ifndef LSCHED_SCHED_SELFTUNE_H_
#define LSCHED_SCHED_SELFTUNE_H_

#include <string>
#include <vector>

#include "exec/sim_engine.h"
#include "sched/policy_base.h"
#include "util/rng.h"

namespace lsched {

/// Hyper-parameters of the fixed priority-based scheduling policy that
/// SelfTune (Wagner et al., SIGMOD'21 — paper baseline 2) tunes per
/// workload. The *policy shape* is fixed; only these weights adapt.
/// Note: per the SelfTune paper, the policy is priority-decay (stride)
/// scheduling — a query's priority decays with the service it has already
/// attained, approximating shortest-job-first WITHOUT cost estimates. The
/// tunables weigh age (no-starvation), attained service (decay strength),
/// pipeline heaviness, pipelining depth, and thread-share skew.
struct SelfTuneParams {
  double w_age = 1.0;       ///< reward query wait time (fairness / no-starve)
  double w_decay = 1.0;     ///< penalize attained service (priority decay)
  double w_chain = 0.5;     ///< reward heavy pipelines (throughput)
  double pipeline_frac = 1.0;  ///< fraction of the max chain to pipeline
  double share_exponent = 1.0; ///< skew of thread shares toward young queries
};

/// Priority-based scheduler with tunable hyper-parameters.
class SelfTuneScheduler : public HeuristicPolicy {
 public:
  explicit SelfTuneScheduler(SelfTuneParams params = {}) : params_(params) {}

  std::string name() const override { return "SelfTune"; }
  SchedulingDecision Schedule(const SchedulingEvent& event,
                              const SchedulingContext& ctx) override;

  const SelfTuneParams& params() const { return params_; }
  void set_params(SelfTuneParams p) { params_ = p; }

 private:
  SelfTuneParams params_;
};

/// Result of a tuning run.
struct SelfTuneResult {
  SelfTuneParams best_params;
  double best_avg_latency = 0.0;
  std::vector<double> latency_per_iteration;
};

/// Tunes SelfTuneParams for the given training workloads by iterated random
/// search (the constrained-optimization hyper-parameter tuning of the
/// SelfTune paper, reduced to its observable behaviour: pick the
/// configuration minimizing average latency on the input workload).
SelfTuneResult TuneSelfTune(SimEngine* engine,
                            const std::vector<std::vector<QuerySubmission>>&
                                training_workloads,
                            int iterations, Rng* rng);

}  // namespace lsched

#endif  // LSCHED_SCHED_SELFTUNE_H_
