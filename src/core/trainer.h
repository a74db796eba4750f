#ifndef LSCHED_CORE_TRAINER_H_
#define LSCHED_CORE_TRAINER_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/agent.h"
#include "core/experience.h"
#include "core/reward.h"
#include "exec/sim_engine.h"
#include "nn/optimizer.h"
#include "obs/obs.h"

namespace lsched {

struct TrainConfig {
  int episodes = 200;
  double learning_rate = 1e-3;
  double entropy_coef = 0.01;
  /// Probability of a uniformly-random sub-action during training episodes
  /// (keeps exploration alive once the policy sharpens).
  double exploration_epsilon = 0.05;
  double grad_clip = 5.0;
  RewardConfig reward;
  uint64_t seed = 31;
  /// Emit an INFO log line every this many episodes (0 = silent).
  int log_every = 0;
  /// Tag prefix for the scalar event stream (obs/scalar_events.h): one
  /// event per episode under `<prefix>.reward`, `<prefix>.policy_entropy`,
  /// `<prefix>.grad_norm_preclip`, ... Distinct prefixes keep concurrent
  /// trainers' learning curves separable (e.g. fig14b's with/without-TL
  /// pair).
  std::string telemetry_prefix = "train";
};

struct TrainStats {
  /// Average query latency of each training episode (sampled policy).
  std::vector<double> episode_avg_latency;
  /// Total reward of each episode (the Fig. 14b y-axis).
  std::vector<double> episode_reward;
  /// Policy-gradient decisions processed in total.
  int total_decisions = 0;
};

/// Decisions replayed per tape by AccumulatePolicyGradient. One tape per
/// few decisions lets nearby decisions share each query's encoding (about
/// a third of a 12-query TPCH episode's encodings repeat within four
/// decisions) while the tape stays small; a whole-episode tape would hold
/// every decision's values and grads at once.
constexpr int kDecisionsPerTape = 4;

/// Replays recorded decisions' forward passes on one tape, encoding each
/// distinct query state once: EncodedQuerys are memoized under the
/// (query id, context version) key of Experience::versions, the key the
/// serving EncodingCache uses. Every Experience recorded at one version
/// holds the same QueryFeatures object, so a memo hit is checked by
/// identity. The replayed Experiences must outlive this object.
class DecisionReplay {
 public:
  DecisionReplay(LSchedModel* model, Tape* tape)
      : model_(model), tape_(tape) {}

  /// The tape forward (encoder + heads) of one recorded decision, which
  /// must have candidates.
  PredictorOutput Forward(const Experience& exp);

  /// Query encodings reused so far.
  int memo_hits() const { return memo_hits_; }

 private:
  struct Memo {
    const QueryFeatures* features;  ///< the encoded object, for checks
    EncodedQuery enc;
  };

  LSchedModel* model_;
  Tape* tape_;
  std::map<std::pair<QueryId, uint64_t>, Memo> memo_;
  int memo_hits_ = 0;
};

/// What AccumulatePolicyGradient replayed.
struct PolicyGradientStats {
  int decisions = 0;         ///< decisions with candidates
  double entropy_sum = 0.0;  ///< summed per-decision entropy, if tracked
};

/// Adds the REINFORCE gradient of one episode into the model's parameter
/// grads: scale * d/dθ sum_d [-advantages[d] * log π(a_d | s_d)
/// - entropy_coef * H_d] over the decisions with candidates. The episode
/// is replayed in chunks of kDecisionsPerTape decisions, each on its own
/// tape (DecisionReplay) with one sweep of the chunk's summed loss. The
/// chunks run in parallel (ReplayUnits, `workers` threads, <= 0 for one per
/// CPU) and their grads are added in chunk order, so the result does not
/// depend on `workers`. With `track_entropy`, each decision's entropy is
/// computed (and summed, in decision order, into the stats) even when
/// entropy_coef is 0.
PolicyGradientStats AccumulatePolicyGradient(
    LSchedModel* model, const std::vector<Experience>& experiences,
    const std::vector<double>& advantages, double scale, double entropy_coef,
    bool track_entropy, int workers = 0);

/// What one policy-gradient update saw and did.
struct PolicyGradientUpdate {
  double total_reward = 0.0;  ///< summed rewards of the window
  PolicyGradientStats replayed;
  /// Global grad norm before and after the clip, read only while obs is
  /// recording (0 otherwise).
  double grad_norm_preclip = 0.0;
  double grad_norm_postclip = 0.0;
};

/// The one policy-gradient path of every trainer here (ReinforceTrainer,
/// OnlineLSched and DecimaTrainer), from a window of recorded decisions to
/// an optimizer step: rewards (ComputeRewards over the decisions' stamps)
/// -> returns -> per-index EWMA baseline and normalized advantages
/// (BasicExperienceManager) -> zero grads, replay, clip, Adam step. `Exp`
/// is the agent's recorded decision; what differs per trainer is only how
/// one decision's log-prob (and any entropy term) is replayed, the
/// `accumulate` callback of Update.
template <typename Exp>
class PolicyGradientLearner {
 public:
  /// Adds scale * d/dθ sum_d -advantages[d] * log π(a_d | s_d) (plus the
  /// trainer's entropy term) over `decisions` into the parameter grads,
  /// through ReplayUnits.
  using Accumulate = std::function<PolicyGradientStats(
      const std::vector<Exp>& decisions, const std::vector<double>& advantages,
      double scale)>;

  PolicyGradientLearner(ParameterStore* params, double learning_rate,
                        double grad_clip, const RewardConfig& reward)
      : params_(params),
        optimizer_(learning_rate),
        grad_clip_(grad_clip),
        reward_(reward) {}

  /// Rewards `decisions`, taken in the window (start_time, end_time], stores
  /// them with their returns as the latest episode, and takes one step.
  PolicyGradientUpdate Update(std::vector<Exp> decisions, double start_time,
                              double end_time, const Accumulate& accumulate) {
    std::vector<DecisionStamp> stamps;
    stamps.reserve(decisions.size());
    for (const Exp& d : decisions) {
      stamps.push_back({d.time, d.num_running_queries});
    }
    const std::vector<double> rewards =
        ComputeRewards(stamps, reward_, start_time, end_time);
    PolicyGradientUpdate update;
    for (double r : rewards) update.total_reward += r;
    experience_.AddEpisode(std::move(decisions), ComputeReturns(rewards));

    const std::vector<Exp>& stored = experience_.latest().experiences;
    const std::vector<double> advantages = experience_.LatestAdvantages(true);
    params_->ZeroGrads();
    update.replayed = accumulate(
        stored, advantages,
        1.0 / static_cast<double>(std::max<size_t>(stored.size(), 1)));
    if (obs::Enabled()) update.grad_norm_preclip = params_->GradNorm();
    params_->ClipGradNorm(grad_clip_);
    if (obs::Enabled()) update.grad_norm_postclip = params_->GradNorm();
    optimizer_.Step(params_);
    return update;
  }

  BasicExperienceManager<Exp>* experience_manager() { return &experience_; }
  double learning_rate() const { return optimizer_.lr(); }

 private:
  ParameterStore* params_;
  BasicExperienceManager<Exp> experience_;
  Adam optimizer_;
  double grad_clip_;
  RewardConfig reward_;
};

/// Generates the workload for training episode `episode` (paper §7.1:
/// episodes vary query counts and arrival rates).
using WorkloadFactory =
    std::function<std::vector<QuerySubmission>(int episode, Rng* rng)>;

/// REINFORCE policy-gradient trainer (paper §6): runs episodes on the
/// simulator with the agent sampling actions and trains on each through
/// the PolicyGradientLearner, replaying the recorded decisions with
/// AccumulatePolicyGradient.
class ReinforceTrainer {
 public:
  ReinforceTrainer(LSchedModel* model, SimEngine* engine, TrainConfig config);

  /// Full training run; `factory` supplies one workload per episode.
  TrainStats Train(const WorkloadFactory& factory);

  /// Runs one episode + one gradient update; returns the episode's total
  /// reward. Exposed for tests and for the incremental training curves of
  /// Fig. 14.
  double TrainOneEpisode(const std::vector<QuerySubmission>& workload);

  ExperienceManager* experience_manager() {
    return learner_.experience_manager();
  }

 private:
  /// The single instrumentation path for per-episode model-quality data:
  /// appends to TrainStats, the scalar event stream, and the registry
  /// gauges from the same values, so the three sinks cannot diverge.
  void RecordEpisodeTelemetry(const EpisodeResult& result,
                              double return_variance,
                              const PolicyGradientUpdate& update);

  LSchedModel* model_;
  SimEngine* engine_;
  TrainConfig config_;
  LSchedAgent agent_;
  PolicyGradientLearner<Experience> learner_;
  Rng rng_;
  TrainStats stats_;
  int episode_index_ = 0;
};

}  // namespace lsched

#endif  // LSCHED_CORE_TRAINER_H_
