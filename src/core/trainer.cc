#include "core/trainer.h"

#include <algorithm>

#include "core/encoder.h"
#include "nn/replay.h"
#include "obs/metrics.h"
#include "obs/scalar_events.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/math_util.h"

namespace lsched {

namespace {

double Variance(const std::vector<double>& v) {
  if (v.size() < 2) return 0.0;
  const double mean = Mean(v);
  double sum = 0.0;
  for (double x : v) sum += (x - mean) * (x - mean);
  return sum / static_cast<double>(v.size() - 1);
}

}  // namespace

PredictorOutput DecisionReplay::Forward(const Experience& exp) {
  const StateFeatures& state = exp.state;
  LSCHED_CHECK(exp.versions.size() == state.queries.size())
      << "experience records " << exp.versions.size() << " versions for "
      << state.queries.size() << " queries";
  std::vector<EncodedQuery> queries;
  queries.reserve(state.queries.size());
  for (size_t qi = 0; qi < state.queries.size(); ++qi) {
    const QueryFeatures* q = state.queries[qi].get();
    const uint64_t version = exp.versions[qi];
    auto [it, inserted] =
        memo_.try_emplace({q->qid, version}, Memo{q, EncodedQuery{}});
    if (inserted) {
      it->second.enc = EncodeQuery(model_, *q, tape_);
    } else {
      LSCHED_DCHECK(it->second.features == q)
          << "query " << q->qid << " version " << version
          << " recorded with a second feature object";
      ++memo_hits_;
    }
    queries.push_back(it->second.enc);
  }
  const EncodedState encoded =
      AssembleState(model_, state, std::move(queries), tape_);
  return RunPredictor(model_, state, encoded, tape_);
}

PolicyGradientStats AccumulatePolicyGradient(
    LSchedModel* model, const std::vector<Experience>& experiences,
    const std::vector<double>& advantages, double scale, double entropy_coef,
    bool track_entropy, int workers) {
  const size_t n = experiences.size();
  const size_t chunks = (n + kDecisionsPerTape - 1) / kDecisionsPerTape;
  // Written per decision by whichever thread replays its chunk, summed in
  // decision order below.
  std::vector<char> replayed(n, 0);
  std::vector<double> entropies(n, 0.0);
  ReplayUnits(static_cast<int>(chunks), workers, [&](int chunk, Tape* tape) {
    const size_t begin = static_cast<size_t>(chunk) * kDecisionsPerTape;
    const size_t end = std::min(n, begin + kDecisionsPerTape);
    DecisionReplay replay(model, tape);
    Var total;
    for (size_t d = begin; d < end; ++d) {
      const Experience& exp = experiences[d];
      if (exp.state.candidates.empty()) continue;
      // loss_d = -adv_d * log pi(a_d | s_d) - beta * H(pi).
      const PredictorOutput out = replay.Forward(exp);
      Var loss =
          tape->Scale(ActionLogProb(tape, out, exp.action), -advantages[d]);
      if (track_entropy || entropy_coef > 0.0) {
        const Var entropy = ActionEntropy(tape, out, exp.action);
        entropies[d] = entropy.value().at(0, 0);
        if (entropy_coef > 0.0) {
          loss = tape->Add(loss, tape->Scale(entropy, -entropy_coef));
        }
      }
      total = total.valid() ? tape->Add(total, loss) : loss;
      replayed[d] = 1;
    }
    if (total.valid()) tape->Sweep(total, scale);
  });
  PolicyGradientStats stats;
  for (size_t d = 0; d < n; ++d) {
    if (!replayed[d]) continue;
    ++stats.decisions;
    stats.entropy_sum += entropies[d];
  }
  return stats;
}

ReinforceTrainer::ReinforceTrainer(LSchedModel* model, SimEngine* engine,
                                   TrainConfig config)
    : model_(model),
      engine_(engine),
      config_(config),
      agent_(model, config.seed ^ 0x5bd1e995),
      learner_(model->params(), config.learning_rate, config.grad_clip,
               config.reward),
      rng_(config.seed) {
  agent_.set_sample_actions(true);
  agent_.set_record_experiences(true);
  agent_.set_exploration_epsilon(config.exploration_epsilon);
}

double ReinforceTrainer::TrainOneEpisode(
    const std::vector<QuerySubmission>& workload) {
  obs::ScopedSpan episode_span("train.episode", "train", "queries",
                               static_cast<int64_t>(workload.size()));
  agent_.set_sample_actions(true);
  agent_.set_record_experiences(true);
  const EpisodeResult result = engine_->Run(workload, &agent_);

  PolicyGradientUpdate update;
  double return_variance = 0.0;
  if (!agent_.experiences().empty()) {
    obs::ScopedSpan span("train.update", "train");
    // Entropy is in the loss whenever the coefficient is live, and in the
    // telemetry whenever obs is recording.
    update = learner_.Update(
        std::move(agent_.experiences()), 0.0, result.makespan,
        [this](const std::vector<Experience>& decisions,
               const std::vector<double>& advantages, double scale) {
          return AccumulatePolicyGradient(model_, decisions, advantages,
                                          scale, config_.entropy_coef,
                                          obs::Enabled());
        });
    agent_.experiences().clear();
    return_variance = Variance(experience_manager()->latest().returns);
  }

  RecordEpisodeTelemetry(result, return_variance, update);
  ++episode_index_;
  return update.total_reward;
}

void ReinforceTrainer::RecordEpisodeTelemetry(
    const EpisodeResult& result, double return_variance,
    const PolicyGradientUpdate& update) {
  // TrainStats, the scalar event stream, and the registry gauges are all
  // fed from the same locals here — the one place episode bookkeeping
  // happens (previously stats_ and train.last_reward were updated in two
  // places and could drift apart).
  stats_.episode_avg_latency.push_back(result.avg_latency);
  stats_.episode_reward.push_back(update.total_reward);
  stats_.total_decisions += update.replayed.decisions;
  if (!obs::Enabled()) return;

  const int64_t step = episode_index_;
  const std::string& prefix = config_.telemetry_prefix;
  const int decisions = update.replayed.decisions;
  auto& events = obs::ScalarEventWriter::Global();
  events.Append(prefix + ".reward", step, update.total_reward);
  events.Append(prefix + ".return_variance", step, return_variance);
  events.Append(prefix + ".policy_entropy", step,
                decisions > 0 ? update.replayed.entropy_sum / decisions : 0.0);
  events.Append(prefix + ".grad_norm_preclip", step,
                update.grad_norm_preclip);
  events.Append(prefix + ".grad_norm_postclip", step,
                update.grad_norm_postclip);
  events.Append(prefix + ".learning_rate", step, learner_.learning_rate());
  events.Append(prefix + ".exploration_epsilon", step,
                config_.exploration_epsilon);
  events.Append(prefix + ".avg_latency", step, result.avg_latency);

  auto& reg = obs::MetricsRegistry::Global();
  reg.GetCounter("train.episodes")->Add(1);
  reg.GetGauge("train.last_reward")->Set(update.total_reward);
  reg.GetGauge("train.total_decisions")
      ->Set(static_cast<double>(stats_.total_decisions));
  reg.GetHistogram("train.episode_avg_latency_seconds")
      ->Observe(result.avg_latency);
}

TrainStats ReinforceTrainer::Train(const WorkloadFactory& factory) {
  for (int ep = 0; ep < config_.episodes; ++ep) {
    const std::vector<QuerySubmission> workload = factory(ep, &rng_);
    const double reward = TrainOneEpisode(workload);
    if (config_.log_every > 0 && (ep + 1) % config_.log_every == 0) {
      LSCHED_LOG(Info) << "episode " << (ep + 1) << "/" << config_.episodes
                       << " reward=" << reward << " avg_latency="
                       << stats_.episode_avg_latency.back();
    }
  }
  return stats_;
}

}  // namespace lsched
