#include "core/experience.h"

#include <cmath>

#include "util/math_util.h"

namespace lsched {

void ExperienceManager::AddEpisode(std::vector<Experience> experiences,
                                   std::vector<double> returns) {
  if (baseline_.size() < returns.size()) {
    baseline_.resize(returns.size(), 0.0);
    baseline_init_.resize(returns.size(), false);
  }

  StoredEpisode ep;
  // Advantages use the baselines learned from *previous* episodes only.
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

double ExperienceManager::Baseline(size_t decision_index) const {
  if (decision_index < baseline_.size() && baseline_init_[decision_index]) {
    return baseline_[decision_index];
  }
  return 0.0;
}

std::vector<double> ExperienceManager::LatestAdvantages(bool normalize) const {
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

void ExperienceManager::Clear() {
  latest_.reset();
  baseline_.clear();
  baseline_init_.clear();
}

}  // namespace lsched
