#ifndef LSCHED_CORE_EXPERIENCE_H_
#define LSCHED_CORE_EXPERIENCE_H_

#include <optional>
#include <utility>
#include <vector>

#include "core/agent.h"
#include "util/math_util.h"

namespace lsched {

/// The Experience Manager (paper Fig. 2): holds the latest training/online
/// episode's experiences for the update and maintains the per-decision-index
/// reward baselines used to reduce REINFORCE's gradient variance (paper §6,
/// [61]). The baselines summarize every episode seen; only the latest
/// episode is kept, since nothing reads older ones. `Exp` is the agent's
/// recorded decision: LSched's Experience or Decima's DecimaExperience.
template <typename Exp>
class BasicExperienceManager {
 public:
  explicit BasicExperienceManager(double baseline_alpha = 0.1)
      : baseline_alpha_(baseline_alpha) {}

  /// Records an episode's returns, replacing the stored episode, and
  /// updates the baselines.
  void AddEpisode(std::vector<Exp> experiences, std::vector<double> returns) {
    if (baseline_.size() < returns.size()) {
      baseline_.resize(returns.size(), 0.0);
      baseline_init_.resize(returns.size(), false);
    }
    StoredEpisode ep;
    // Advantages use the baselines learned from *previous* episodes only;
    // an index seen for the first time has baseline 0.
    ep.advantages.resize(returns.size());
    for (size_t d = 0; d < returns.size(); ++d) {
      ep.advantages[d] = returns[d] - Baseline(d);
    }
    ep.experiences = std::move(experiences);
    ep.returns = std::move(returns);
    // EWMA baseline update per decision index.
    for (size_t d = 0; d < ep.returns.size(); ++d) {
      if (!baseline_init_[d]) {
        baseline_[d] = ep.returns[d];
        baseline_init_[d] = true;
      } else {
        baseline_[d] = (1.0 - baseline_alpha_) * baseline_[d] +
                       baseline_alpha_ * ep.returns[d];
      }
    }
    latest_ = std::move(ep);
  }

  /// Baseline value b(d) for decision index d (0 before any data).
  double Baseline(size_t decision_index) const {
    return decision_index < baseline_.size() && baseline_init_[decision_index]
               ? baseline_[decision_index]
               : 0.0;
  }

  /// Advantages G_d - b(d) for the most recent episode, normalized to unit
  /// variance when `normalize` (stabilizes updates across workload scales).
  std::vector<double> LatestAdvantages(bool normalize = true) const {
    if (!latest_) return {};
    std::vector<double> adv = latest_->advantages;
    if (normalize && adv.size() > 1) {
      const double sd = StdDev(adv);
      const double m = Mean(adv);
      if (sd > 1e-9) {
        for (double& a : adv) a = (a - m) / sd;
      }
    }
    return adv;
  }

  struct StoredEpisode {
    std::vector<Exp> experiences;
    std::vector<double> returns;
    std::vector<double> advantages;  ///< returns minus pre-episode baselines
  };

  const StoredEpisode& latest() const { return *latest_; }

 private:
  double baseline_alpha_;
  std::optional<StoredEpisode> latest_;
  std::vector<double> baseline_;  ///< EWMA of G_d per decision index
  std::vector<bool> baseline_init_;
};

using ExperienceManager = BasicExperienceManager<Experience>;

}  // namespace lsched

#endif  // LSCHED_CORE_EXPERIENCE_H_
