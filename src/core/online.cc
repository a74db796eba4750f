#include "core/online.h"

#include "obs/scalar_events.h"

namespace lsched {

OnlineLSched::OnlineLSched(LSchedModel* model, OnlineConfig config,
                           uint64_t seed)
    : model_(model),
      config_(config),
      agent_(model, seed),
      learner_(model->params(), config.learning_rate, config.grad_clip,
               config.reward),
      effective_update_every_(config.update_every_queries),
      drift_fired_(std::make_shared<std::atomic<bool>>(false)) {
  agent_.set_sample_actions(config_.sample_actions);
  agent_.set_record_experiences(true);
  agent_.set_exploration_epsilon(config_.exploration_epsilon);
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  num_updates_gauge_ = reg.GetGauge("online.num_updates");
  completions_gauge_ = reg.GetGauge("online.completions_since_update");
  update_every_gauge_ = reg.GetGauge("online.update_every_queries");
  drift_escalations_ = reg.GetCounter("online.drift_escalations");
}

void OnlineLSched::Reset() {
  agent_.Reset();
  completions_since_update_ = 0;
  last_event_time_ = 0.0;
  window_start_ = 0.0;
  PublishProgressGauges();
}

SchedulingDecision OnlineLSched::Schedule(const SchedulingEvent& event,
                                          const SchedulingContext& ctx) {
  last_event_time_ = ctx.now();
  return agent_.Schedule(event, ctx);
}

void OnlineLSched::AttachDriftMonitor(obs::DriftMonitor* monitor) {
  // The callback captures only the shared flag, never `this`: monitor and
  // scheduler lifetimes stay independent.
  std::shared_ptr<std::atomic<bool>> flag = drift_fired_;
  monitor->AddAlarmCallback(
      [flag](const obs::DriftAlarm&) {
        flag->store(true, std::memory_order_release);
      });
}

void OnlineLSched::ResetDriftEscalation() {
  drift_escalated_ = false;
  effective_update_every_ = config_.update_every_queries;
  drift_fired_->store(false, std::memory_order_release);
  PublishProgressGauges();
}

void OnlineLSched::OnQueryCompleted(QueryId query, double latency) {
  (void)query;
  (void)latency;
  if (!drift_escalated_ &&
      drift_fired_->exchange(false, std::memory_order_acq_rel)) {
    // Drift alarm: the predictor's error distribution shifted under the
    // serving workload — escalate from checkpoint-mode to (near)
    // query-by-query self-correction (paper §3).
    drift_escalated_ = true;
    effective_update_every_ =
        std::max(1, config_.drift_update_every_queries);
    drift_escalations_->Add(1);
    obs::ScalarEventWriter::Global().Append(
        "online.drift_escalation", num_updates_,
        static_cast<double>(effective_update_every_));
  }
  if (++completions_since_update_ >= effective_update_every_) {
    completions_since_update_ = 0;
    ApplyUpdate(last_event_time_);
  }
  PublishProgressGauges();
}

void OnlineLSched::ApplyUpdate(double now) {
  if (agent_.experiences().size() < 2) return;
  // The window runs from the previous update to `now`. Online corrections
  // carry no entropy bonus. Versions are never reused, so memo keys stay
  // unique even if the experiences span several runs.
  const PolicyGradientUpdate update = learner_.Update(
      std::move(agent_.experiences()), window_start_, now,
      [this](const std::vector<Experience>& decisions,
             const std::vector<double>& advantages, double scale) {
        return AccumulatePolicyGradient(model_, decisions, advantages, scale,
                                        /*entropy_coef=*/0.0,
                                        /*track_entropy=*/false);
      });
  agent_.experiences().clear();
  window_start_ = now;
  ++num_updates_;
  if (obs::Enabled()) {
    obs::ScalarEventWriter::Global().Append("online.update_reward",
                                            num_updates_, update.total_reward);
  }
}

void OnlineLSched::PublishProgressGauges() {
  if (!obs::Enabled()) return;
  num_updates_gauge_->Set(static_cast<double>(num_updates_));
  completions_gauge_->Set(static_cast<double>(completions_since_update_));
  update_every_gauge_->Set(static_cast<double>(effective_update_every_));
}

}  // namespace lsched
