#ifndef LSCHED_CORE_TRAINER_H_
#define LSCHED_CORE_TRAINER_H_

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

/// Generates the workload for training episode `episode` (paper §7.1:
/// episodes vary query counts and arrival rates).
using WorkloadFactory =
    std::function<std::vector<QuerySubmission>(int episode, Rng* rng)>;

/// REINFORCE policy-gradient trainer (paper §6): runs episodes on the
/// simulator with the agent sampling actions, computes the average+tail
/// latency rewards, and replays the recorded decisions
/// (AccumulatePolicyGradient) to accumulate log-prob gradients weighted by
/// baselined advantages.
class ReinforceTrainer {
 public:
  ReinforceTrainer(LSchedModel* model, SimEngine* engine, TrainConfig config);

  /// Full training run; `factory` supplies one workload per episode.
  TrainStats Train(const WorkloadFactory& factory);

  /// Runs one episode + one gradient update; returns the episode's total
  /// reward. Exposed for tests and for the incremental training curves of
  /// Fig. 14.
  double TrainOneEpisode(const std::vector<QuerySubmission>& workload);

  ExperienceManager* experience_manager() { return &experience_; }

 private:
  /// Per-update telemetry surfaced by UpdateFromLatestEpisode for the
  /// scalar event stream.
  struct UpdateTelemetry {
    double mean_entropy = 0.0;
    double grad_norm_preclip = 0.0;
    double grad_norm_postclip = 0.0;
    int decisions = 0;
  };

  UpdateTelemetry UpdateFromLatestEpisode();
  /// The single instrumentation path for per-episode model-quality data:
  /// appends to TrainStats, the scalar event stream, and the registry
  /// gauges from the same values, so the three sinks cannot diverge.
  void RecordEpisodeTelemetry(const EpisodeResult& result,
                              double total_reward, double return_variance,
                              const UpdateTelemetry& update);

  LSchedModel* model_;
  SimEngine* engine_;
  TrainConfig config_;
  LSchedAgent agent_;
  ExperienceManager experience_;
  Adam optimizer_;
  Rng rng_;
  TrainStats stats_;
  int episode_index_ = 0;
};

}  // namespace lsched

#endif  // LSCHED_CORE_TRAINER_H_
