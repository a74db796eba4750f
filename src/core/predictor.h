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

/// Differentiable outputs of the Scheduling Predictor for one state, in
/// ServingPredictorOutput's layout.
struct PredictorOutput {
  /// Log-probabilities over candidates (1 x num_candidates).
  Var root_logprobs;
  /// Row c: candidate c's log-probabilities over pipeline degrees
  /// (num_candidates x max_pipeline_degree, invalid degrees masked).
  Var degree_logprobs;
  /// Log-probabilities over parallelism buckets, one row per query with a
  /// candidate.
  Var par_logprobs;
  /// Candidate c's row of par_logprobs.
  std::vector<int> par_row;
};

/// Runs the three decision heads (Fig. 7) over the encoded state: the root
/// and degree heads over all candidates as one matrix, the parallelism head
/// once per query with a candidate. Requires state.candidates to be
/// non-empty and grouped by query in query order, as the extractor and the
/// agent produce them.
PredictorOutput RunPredictor(LSchedModel* model, const StateFeatures& state,
                             const EncodedState& encoded, Tape* tape);

/// Joint log-probability of `action` under `output` (sum of the three
/// categorical log-probs); differentiable.
Var ActionLogProb(Tape* tape, const PredictorOutput& output,
                  const SchedulingAction& action);

/// Sum of the entropies of the three categorical heads for the chosen
/// candidate (its degree row and its query's parallelism row) — the
/// exploration bonus used by the trainer.
Var ActionEntropy(Tape* tape, const PredictorOutput& output,
                  const SchedulingAction& action);

/// --- tape-free serving path (Scheduler API v2, DESIGN.md §9) -------------

/// Borrowed view of everything the serving heads need at one event: cached
/// encodings and head rows per query, plus the fresh QF rows. All
/// per-query vectors are parallel (qf[i], encoded[i] and head_in[i]
/// describe the same query); candidates index into them via
/// Candidate::query_index, come grouped by query in query order, and each
/// query's candidates are the rows of its head_in, in order.
struct ServingStateView {
  int total_threads = 0;
  int free_threads = 0;
  std::vector<const std::vector<double>*> qf; ///< fresh per-event QF rows
  std::vector<const ServingEncodedQuery*> encoded;
  /// EncodingCache::Entry::head_in of each query.
  std::vector<const Matrix*> head_in;
  std::vector<Candidate> candidates;
};

/// Plain-matrix outputs of the serving heads, laid out like
/// PredictorOutput and bit-identical to its values.
struct ServingPredictorOutput {
  Matrix root_logprobs;    ///< (1 x C)
  Matrix degree_logprobs;  ///< row c: candidate c's distribution
  Matrix par_logprobs;     ///< one row per query with a candidate
  std::vector<int> par_row;  ///< candidate c's row of par_logprobs
};

/// AQE for the serving path (per event — QF-dependent, never cached).
Matrix ComputeAqeServing(const LSchedModel& model, const ServingStateView& view,
                         ScratchArena* arena);

/// Runs the three decision heads as batched GEMM stacks: root and degree
/// over the candidates' cached head rows, parallelism over one row per
/// query with a candidate. Requires view.candidates non-empty.
void RunPredictorServing(const LSchedModel& model, const ServingStateView& view,
                         const Matrix& aqe, ScratchArena* arena,
                         ServingPredictorOutput* out);

}  // namespace lsched

#endif  // LSCHED_CORE_PREDICTOR_H_
