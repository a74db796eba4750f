#ifndef LSCHED_CORE_EXPERIENCE_H_
#define LSCHED_CORE_EXPERIENCE_H_

#include <optional>
#include <vector>

#include "core/agent.h"

namespace lsched {

/// The Experience Manager (paper Fig. 2): holds the latest training/online
/// episode's experiences for the update and maintains the per-decision-index
/// reward baselines used to reduce REINFORCE's gradient variance (paper §6,
/// [61]). The baselines summarize every episode seen; only the latest
/// episode is kept, since nothing reads older ones.
class ExperienceManager {
 public:
  explicit ExperienceManager(double baseline_alpha = 0.1)
      : baseline_alpha_(baseline_alpha) {}

  /// Records an episode's returns, replacing the stored episode, and
  /// updates the baselines.
  void AddEpisode(std::vector<Experience> experiences,
                  std::vector<double> returns);

  /// Baseline value b(d) for decision index d (0 before any data).
  double Baseline(size_t decision_index) const;

  /// Advantages G_d - b(d) for the most recent episode, normalized to unit
  /// variance when `normalize` (stabilizes updates across workload scales).
  std::vector<double> LatestAdvantages(bool normalize = true) const;

  struct StoredEpisode {
    std::vector<Experience> experiences;
    std::vector<double> returns;
    std::vector<double> advantages;  ///< returns minus pre-episode baselines
  };

  const StoredEpisode& latest() const { return *latest_; }
  bool empty() const { return !latest_.has_value(); }
  void Clear();

 private:
  double baseline_alpha_;
  std::optional<StoredEpisode> latest_;
  std::vector<double> baseline_;       ///< EWMA of G_d per decision index
  std::vector<bool> baseline_init_;
};

}  // namespace lsched

#endif  // LSCHED_CORE_EXPERIENCE_H_
