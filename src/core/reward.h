#ifndef LSCHED_CORE_REWARD_H_
#define LSCHED_CORE_REWARD_H_

#include <vector>

namespace lsched {

/// Weights of the average-vs-tail latency reward (paper §6). The final
/// per-decision reward is r_d = (w_avg * r1 + w_tail * r2) / (w_avg +
/// w_tail) with r1 = -H_d and r2 = -(H_d - P), where H_d = (t_d - t_{d-1})
/// * Q_d approximates the latency accumulated by the Q_d queries running in
/// the interval and P is the `tail_percentile`-th percentile of all H
/// values in the episode. Decima's average-latency-only reward is
/// {w_avg = 1, w_tail = 0}.
struct RewardConfig {
  double w_avg = 0.5;
  double w_tail = 0.5;
  double tail_percentile = 90.0;
};

/// What the reward reads of one recorded decision (LSched's Experience and
/// Decima's DecimaExperience both carry it): when it was taken and how many
/// queries were in the system.
struct DecisionStamp {
  double time = 0.0;
  int num_running_queries = 0;
};

/// Per-decision rewards for one window of time-ordered decisions.
/// `start_time` opens the first interval: 0 for an episode, the previous
/// update's end for an online window. `end_time`, when past the last
/// decision time, charges the final execution interval to the last
/// decision — without it the tail after the last scheduling decision would
/// be unpenalized and the policy would optimize time-to-last-decision
/// instead of completion.
std::vector<double> ComputeRewards(const std::vector<DecisionStamp>& stamps,
                                   const RewardConfig& config,
                                   double start_time = 0.0,
                                   double end_time = -1.0);

/// Undiscounted returns G_d = sum_{k >= d} r_k.
std::vector<double> ComputeReturns(const std::vector<double>& rewards);

}  // namespace lsched

#endif  // LSCHED_CORE_REWARD_H_
