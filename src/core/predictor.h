#ifndef LSCHED_CORE_PREDICTOR_H_
#define LSCHED_CORE_PREDICTOR_H_

#include <vector>

#include "core/encoder.h"

namespace lsched {

/// The triple of sub-actions sampled at one scheduling decision
/// (paper §5.3): which execution root, what pipeline degree, and which
/// parallelism bucket for that root's query.
struct SchedulingAction {
  int candidate_index = -1;  ///< into StateFeatures::candidates
  int degree_index = 0;      ///< 0-based: pipeline degree = index + 1
  int parallelism_index = 0; ///< into config.parallelism_fractions
};

/// Differentiable outputs of the Scheduling Predictor for one state.
struct PredictorOutput {
  /// Log-probabilities over candidates (1 x num_candidates).
  Var root_logprobs;
  /// Per-candidate log-probabilities over pipeline degrees
  /// (1 x max_pipeline_degree each, invalid degrees masked to -inf).
  std::vector<Var> degree_logprobs;
  /// Per-candidate log-probabilities over parallelism buckets.
  std::vector<Var> par_logprobs;
};

/// Runs the three decision heads (Fig. 7) over the encoded state. Requires
/// state.candidates to be non-empty.
PredictorOutput RunPredictor(LSchedModel* model, const StateFeatures& state,
                             const EncodedState& encoded, Tape* tape);

/// Joint log-probability of `action` under `output` (sum of the three
/// categorical log-probs); differentiable.
Var ActionLogProb(Tape* tape, const PredictorOutput& output,
                  const SchedulingAction& action);

/// Sum of the entropies of the three categorical heads for the chosen
/// candidate — the exploration bonus used by the trainer.
Var ActionEntropy(Tape* tape, const PredictorOutput& output,
                  const SchedulingAction& action);

/// --- tape-free serving path (Scheduler API v2, DESIGN.md §9) -------------

/// Borrowed view of everything the serving heads need at one event: cached
/// structural features + encodings per query, plus the fresh QF rows. All
/// pointers are parallel (queries[i], qf[i], encoded[i] describe the same
/// query); candidates index into them via Candidate::query_index.
struct ServingStateView {
  int total_threads = 0;
  int free_threads = 0;
  std::vector<const QueryFeatures*> queries;
  std::vector<const std::vector<double>*> qf; ///< fresh per-event QF rows
  std::vector<const ServingEncodedQuery*> encoded;
  std::vector<Candidate> candidates;
  /// Optional cached head-input rows (EncodingCache::Entry::head_in): one
  /// matrix per query, parallel to `queries`, each row a pre-assembled
  /// [NE | EE | PQE | EDF-agg]. When populated (together with `head_row`),
  /// RunPredictorServing copies row head_row[c] instead of re-gathering and
  /// re-aggregating embeddings per event. Leave empty to recompute.
  std::vector<const Matrix*> head_in;
  /// Per-candidate row index into head_in[candidates[c].query_index].
  std::vector<int> head_row;
};

/// Plain-matrix outputs of the serving heads. Row c of degree_logprobs /
/// par_logprobs is candidate c's distribution; root_logprobs is (1 x C).
/// Values are bit-identical to PredictorOutput's.
struct ServingPredictorOutput {
  Matrix root_logprobs;
  Matrix degree_logprobs;
  Matrix par_logprobs;
};

/// AQE for the serving path (per event — QF-dependent, never cached).
Matrix ComputeAqeServing(const LSchedModel& model, const ServingStateView& view,
                         ScratchArena* arena);

/// Runs the three decision heads over all candidates as three batched GEMM
/// stacks (one row per candidate). Requires view.candidates non-empty.
void RunPredictorServing(const LSchedModel& model, const ServingStateView& view,
                         const Matrix& aqe, ScratchArena* arena,
                         ServingPredictorOutput* out);

/// Joint log-probability of `action` under serving outputs (matches
/// ActionLogProb's value).
double ServingActionLogProb(const ServingPredictorOutput& output,
                            const SchedulingAction& action);

}  // namespace lsched

#endif  // LSCHED_CORE_PREDICTOR_H_
