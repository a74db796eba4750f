#ifndef LSCHED_CORE_ONLINE_H_
#define LSCHED_CORE_ONLINE_H_

#include <atomic>
#include <memory>
#include <string>

#include "core/agent.h"
#include "core/reward.h"
#include "core/trainer.h"
#include "obs/drift.h"
#include "obs/metrics.h"

namespace lsched {

/// Online self-correction (paper §3): in serving mode, completely executed
/// scheduling decisions are rewarded and used to keep improving the
/// predictor, either query-by-query or at user-controlled checkpoints.
struct OnlineConfig {
  /// Apply a policy-gradient update after this many completed queries
  /// (1 = query-by-query; larger = checkpointing).
  int update_every_queries = 4;
  double learning_rate = 5e-4;
  double grad_clip = 5.0;
  RewardConfig reward;
  /// Sampling temperature: online mode keeps sampling (with a small
  /// exploration floor) so corrections have signal; set false to serve
  /// greedily between checkpoints.
  bool sample_actions = true;
  double exploration_epsilon = 0.02;
  /// Update cadence after a prediction-drift alarm fires (see
  /// AttachDriftMonitor): checkpoint-mode serving escalates to this many
  /// queries per update (1 = query-by-query self-correction).
  int drift_update_every_queries = 1;
};

/// A serving scheduler that self-corrects: wraps an LSchedAgent, records
/// its decisions, and applies REINFORCE updates from the observed rewards
/// every `update_every_queries` completions.
class OnlineLSched : public Scheduler {
 public:
  OnlineLSched(LSchedModel* model, OnlineConfig config, uint64_t seed = 303);

  std::string name() const override { return "LSched-online"; }
  void Reset() override;
  /// Serves through the agent's tape-free path (updates still build tapes
  /// inside ApplyUpdate, never on this path).
  SchedulingDecision Schedule(const SchedulingEvent& event,
                              const SchedulingContext& ctx) override;
  void OnQueryCompleted(QueryId query, double latency) override;

  /// Registers the drift monitor's alarm as a retrain trigger: when the
  /// prediction-error distribution shifts (obs::DriftMonitor fires), the
  /// update cadence escalates from `update_every_queries` to
  /// `drift_update_every_queries` at the next query completion, so stale
  /// checkpoint-mode policies start correcting query-by-query. Safe to
  /// call with a monitor that outlives or is outlived by this scheduler
  /// (the callback holds only a shared flag).
  void AttachDriftMonitor(obs::DriftMonitor* monitor);

  /// Drops back to the configured checkpoint cadence (e.g. after a
  /// retrain/redeploy cleared the drift).
  void ResetDriftEscalation();
  bool drift_escalated() const { return drift_escalated_; }
  /// Current effective cadence (configured, or escalated after an alarm).
  int update_every_queries() const { return effective_update_every_; }

  int num_updates() const { return num_updates_; }
  ExperienceManager* experience_manager() {
    return learner_.experience_manager();
  }

 private:
  void ApplyUpdate(double now);
  void PublishProgressGauges();

  LSchedModel* model_;
  OnlineConfig config_;
  LSchedAgent agent_;
  PolicyGradientLearner<Experience> learner_;
  int completions_since_update_ = 0;
  int num_updates_ = 0;
  double last_event_time_ = 0.0;
  /// Where the next update's reward window starts: the previous update's
  /// end, or 0 after Reset.
  double window_start_ = 0.0;
  int effective_update_every_ = 0;
  bool drift_escalated_ = false;
  /// Set by the drift-alarm callback (possibly from another thread),
  /// consumed on the scheduling thread at the next completion. Shared so
  /// the callback stays valid even if this scheduler is destroyed first.
  std::shared_ptr<std::atomic<bool>> drift_fired_;

  // Cached registry handles for online-mode progress visibility.
  obs::Gauge* num_updates_gauge_;
  obs::Gauge* completions_gauge_;
  obs::Gauge* update_every_gauge_;
  obs::Counter* drift_escalations_;
};

}  // namespace lsched

#endif  // LSCHED_CORE_ONLINE_H_
