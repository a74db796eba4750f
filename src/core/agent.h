#ifndef LSCHED_CORE_AGENT_H_
#define LSCHED_CORE_AGENT_H_

#include <string>
#include <vector>

#include "core/encoder.h"
#include "core/features.h"
#include "core/model.h"
#include "core/predictor.h"
#include "exec/scheduler.h"
#include "exec/scheduling_context.h"
#include "nn/inference.h"
#include "util/rng.h"

namespace lsched {

/// One recorded decision: enough to replay the forward pass during the
/// REINFORCE update (paper §6) long after the episode finished. Its
/// QueryFeatures are the encoding cache's objects, shared by every decision
/// recorded at the same query versions.
struct Experience {
  StateFeatures state;
  /// Context version of each query in `state.queries` (parallel to it):
  /// SchedulingContext::query_version at the decision. Versions are never
  /// reused, so (query id, version) names one QueryFeatures object, and
  /// the replay encodes each such state once.
  std::vector<uint64_t> versions;
  SchedulingAction action;
  double time = 0.0;
  int num_running_queries = 0;
};

/// The LSched scheduling agent (paper Fig. 2): feature extraction ->
/// Query Encoder -> Scheduling Predictor -> one (root, degree, parallelism)
/// action per invocation. The engine re-invokes it while free threads and
/// schedulable operators remain, so a scheduling event unrolls into a
/// sequence of sampled actions — each one a REINFORCE step.
class LSchedAgent : public Scheduler {
 public:
  LSchedAgent(LSchedModel* model, uint64_t seed = 101);

  std::string name() const override { return "LSched"; }
  void Reset() override;
  /// Serving path: per-query encodings come from the EncodingCache keyed
  /// by the context's dirty-flag versions, and the decision heads run as
  /// batched tape-free GEMMs, so no autograd Tape is ever constructed. The
  /// trainer replays each recorded Experience through the tape forward
  /// (DecisionReplay), which gives the same log-probabilities.
  SchedulingDecision Schedule(const SchedulingEvent& event,
                              const SchedulingContext& ctx) override;

  /// Sampling (training) vs greedy argmax (serving) action selection.
  void set_sample_actions(bool v) { sample_actions_ = v; }
  /// With probability eps, a sampled sub-action is drawn uniformly instead
  /// of from the policy — keeps exploration alive after the softmax heads
  /// sharpen (prevents premature convergence to local optima).
  void set_exploration_epsilon(double eps) { exploration_epsilon_ = eps; }
  /// Whether to record experiences for the trainer.
  void set_record_experiences(bool v) { record_experiences_ = v; }

  std::vector<Experience>& experiences() { return experiences_; }
  const std::vector<Experience>& experiences() const { return experiences_; }

  LSchedModel* model() { return model_; }
  const FeatureExtractor& extractor() const { return extractor_; }
  const EncodingCache& encoding_cache() const { return cache_; }

 private:
  int SampleFromLogProbs(const double* logprobs, int n);
  SchedulingAction SelectAction(const ServingPredictorOutput& out);

  LSchedModel* model_;
  FeatureExtractor extractor_;
  Rng rng_;
  bool sample_actions_ = false;
  double exploration_epsilon_ = 0.0;
  bool record_experiences_ = false;
  std::vector<Experience> experiences_;
  EncodingCache cache_;
  ScratchArena arena_;
  ServingPredictorOutput serving_out_;
  /// Per-decision scratch: each query's cache entry and QF row.
  std::vector<EncodingCache::Entry*> entries_scratch_;
  std::vector<std::vector<double>> qf_scratch_;
  /// SampleFromLogProbs's probabilities and exploration weights.
  std::vector<double> probs_scratch_;
  std::vector<double> uniform_scratch_;
};

}  // namespace lsched

#endif  // LSCHED_CORE_AGENT_H_
