#include "core/reward.h"
#include <algorithm>

#include "util/math_util.h"

namespace lsched {

std::vector<double> ComputeRewards(const std::vector<DecisionStamp>& stamps,
                                   const RewardConfig& config,
                                   double start_time, double end_time) {
  std::vector<double> h(stamps.size(), 0.0);
  double prev_time = start_time;
  for (size_t d = 0; d < stamps.size(); ++d) {
    const double dt = stamps[d].time - prev_time;
    h[d] = dt * static_cast<double>(stamps[d].num_running_queries);
    prev_time = stamps[d].time;
  }
  // Terminal interval: queries kept running after the last decision.
  double h_terminal = 0.0;
  if (!stamps.empty() && end_time > prev_time) {
    h_terminal = (end_time - prev_time) *
                 static_cast<double>(stamps.back().num_running_queries);
  }
  std::vector<double> h_all = h;
  if (h_terminal > 0.0) h_all.push_back(h_terminal);
  const double p = Percentile(h_all, config.tail_percentile);
  std::vector<double> rewards(stamps.size(), 0.0);
  const double wsum = config.w_avg + config.w_tail;
  auto reward_of = [&](double hd) {
    const double r_avg = -hd;
    // One-sided tail penalty: -(H_d - P) applied only when H_d exceeds the
    // percentile. The two-sided form of the paper's Eq. would hand out a
    // +P bonus to every below-percentile decision, which rewards policies
    // that concentrate latency into fewer, larger intervals (i.e. slower
    // schedules with more below-P decisions score higher).
    const double r_tail = -std::max(hd - p, 0.0);
    return wsum > 0.0
               ? (config.w_avg * r_avg + config.w_tail * r_tail) / wsum
               : 0.0;
  };
  for (size_t d = 0; d < h.size(); ++d) rewards[d] = reward_of(h[d]);
  if (!rewards.empty() && h_terminal > 0.0) {
    rewards.back() += reward_of(h_terminal);
  }
  return rewards;
}

std::vector<double> ComputeReturns(const std::vector<double>& rewards) {
  std::vector<double> g(rewards.size(), 0.0);
  double acc = 0.0;
  for (size_t i = rewards.size(); i-- > 0;) {
    acc += rewards[i];
    g[i] = acc;
  }
  return g;
}

}  // namespace lsched
