#ifndef LSCHED_SCHED_DECIMA_H_
#define LSCHED_SCHED_DECIMA_H_

#include <array>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/trainer.h"
#include "exec/scheduler.h"
#include "exec/scheduling_context.h"
#include "exec/sim_engine.h"
#include "nn/inference.h"
#include "nn/layers.h"
#include "nn/params.h"
#include "util/rng.h"
#include "util/status.h"

namespace lsched {

/// Configuration of the Decima baseline (Mao et al., SIGCOMM'19), as
/// characterized by the LSched paper (§1, §4.2): black-box per-task
/// features, sequential-message-passing GCN encoder, (node, parallelism)
/// action space, no pipelining support — a task is runnable only when ALL
/// its parents completed — and an average-latency-only reward.
struct DecimaConfig {
  int hidden_dim = 16;
  int num_mp_iterations = 2;
  int summary_dim = 16;
  int head_hidden = 32;
  std::vector<double> parallelism_fractions = {0.1, 0.2, 0.35, 0.5,
                                               0.65, 0.8, 1.0};
  uint64_t seed = 23;
};

/// Black-box snapshot of one query for Decima's encoder.
struct DecimaQueryFeatures {
  QueryId qid = kInvalidQuery;
  int num_nodes = 0;
  /// Row per task, (num_nodes x DecimaModel::kNodeFeatureDim):
  /// [log #remaining work orders, completion ratio,
  /// log est. remaining duration, is_scheduled, is_runnable].
  Matrix node_features;
  std::vector<std::array<int, 2>> child_node;  ///< producer slots
  std::vector<int> topo_order;
  std::vector<double> query_features;  ///< [assigned frac, free frac]
};

struct DecimaStateFeatures {
  double time = 0.0;
  int total_threads = 0;
  std::vector<DecimaQueryFeatures> queries;
  /// Runnable tasks: (query index, op). Decima has no pipelining: runnable
  /// requires every producer completed.
  std::vector<std::pair<int, int>> candidates;
};

struct DecimaExperience {
  DecimaStateFeatures state;
  int chosen_candidate = -1;
  int chosen_parallelism = 0;
  double time = 0.0;
  int num_running_queries = 0;
};

/// Decima's networks: GCN + query/global summaries + two heads.
class DecimaModel {
 public:
  explicit DecimaModel(DecimaConfig config);

  const DecimaConfig& config() const { return config_; }
  ParameterStore* params() { return &store_; }

  static constexpr int kNodeFeatureDim = 5;
  static constexpr int kQueryFeatureDim = 2;

  Linear proj;
  Linear mp_self;
  Linear mp_child;
  Mlp query_summary;   ///< per-node message -> summary
  Mlp global_summary;  ///< per-query message -> summary
  Mlp node_head;
  Mlp par_head;

 private:
  DecimaConfig config_;
  ParameterStore store_;
};

/// Tape forward of Decima's networks: what DecimaTrainer differentiates
/// when it replays a recorded DecimaExperience.
struct DecimaEncoded {
  std::vector<Var> node_emb;   ///< per query, (num_nodes x hidden_dim)
  std::vector<Var> query_emb;  ///< per query summary (1 x summary_dim)
  Var global_emb;
};

/// The heads' log-probabilities, laid out like the serving path's.
struct DecimaForward {
  Var node_logprobs;  ///< over candidates (1 x num_candidates)
  /// Over parallelism buckets, one row per query with a candidate.
  Var par_logprobs;
  std::vector<int> par_row;  ///< candidate c's row of par_logprobs
};

/// Projects every query's node features as one Linear, runs each
/// message-passing iteration as one tape node (MessagePassing) and sums the
/// node rows into the query summary. The sweeps' backward reads the
/// queries' producer slots, so `state` must outlive the tape's sweep.
DecimaEncoded Encode(DecimaModel* model, const DecimaStateFeatures& state,
                     Tape* tape);
/// Runs the node head over all candidates as one matrix and the
/// parallelism head once per query with a candidate. Requires
/// state.candidates non-empty and grouped by query in query order.
DecimaForward Forward(DecimaModel* model, const DecimaStateFeatures& state,
                      const DecimaEncoded& enc, Tape* tape);

/// The Decima scheduling agent.
class DecimaScheduler : public Scheduler {
 public:
  DecimaScheduler(DecimaModel* model, uint64_t seed = 77);

  std::string name() const override { return "Decima"; }
  void Reset() override;
  /// Serving path: per-query GCN embeddings and summaries are cached by
  /// the context's dirty-flag versions; heads run as batched tape-free
  /// GEMMs. The trainer replays each recorded DecimaExperience through the
  /// tape Encode/Forward, which gives the same log-probabilities.
  SchedulingDecision Schedule(const SchedulingEvent& event,
                              const SchedulingContext& ctx) override;

  void set_sample_actions(bool v) { sample_actions_ = v; }
  void set_record_experiences(bool v) { record_experiences_ = v; }
  std::vector<DecimaExperience>& experiences() { return experiences_; }

  /// Full (uncached) extraction of Decima's black-box features: the
  /// reference the cached serving features must equal (exposed for tests).
  static DecimaStateFeatures ExtractFeatures(const SchedulingContext& ctx);

 private:
  /// Version-cacheable slice of one query: black-box features, runnable
  /// ops, and the encoder outputs that depend only on them.
  struct CacheEntry {
    uint64_t version = 0;
    DecimaQueryFeatures features;  ///< query_features left empty
    std::vector<int> runnable_ops;
    /// True once the embeddings reflect `features` (encoding is lazy: an
    /// event whose candidate set turns out empty never runs the GCN).
    bool encoded = false;
    Matrix node_emb;   ///< (num_nodes x hidden_dim), post message passing
    Matrix query_emb;  ///< (1 x summary_dim)
  };

  /// Refreshes features + runnable ops if `version` moved; does not encode.
  CacheEntry& GetCacheEntry(const QueryState& q, uint64_t version);
  /// Encodes `entry` if its embeddings are stale: the tape Encode's
  /// per-query forward, through the same routines.
  void EnsureEncoded(CacheEntry* entry);

  DecimaModel* model_;
  Rng rng_;
  bool sample_actions_ = false;
  bool record_experiences_ = false;
  std::vector<DecimaExperience> experiences_;
  std::unordered_map<QueryId, CacheEntry> cache_;
  uint64_t params_epoch_ = 0;
  ScratchArena arena_;
};

/// REINFORCE trainer for Decima. It trains through the same
/// PolicyGradientLearner as LSched, with an average-latency-only reward
/// ({w_avg = 1, w_tail = 0}, per the paper's contribution #4 contrast), and
/// replays each decision through the tape Encode/Forward.
class DecimaTrainer {
 public:
  DecimaTrainer(DecimaModel* model, SimEngine* engine, int episodes,
                double learning_rate = 1e-3, uint64_t seed = 41);

  double TrainOneEpisode(const std::vector<QuerySubmission>& workload);
  TrainStats Train(const WorkloadFactory& factory);

 private:
  DecimaModel* model_;
  SimEngine* engine_;
  int episodes_;
  DecimaScheduler agent_;
  PolicyGradientLearner<DecimaExperience> learner_;
  Rng rng_;
  TrainStats stats_;
};

}  // namespace lsched

#endif  // LSCHED_SCHED_DECIMA_H_
