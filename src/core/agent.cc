#include "core/agent.h"

#include <algorithm>
#include <cmath>

#include "core/encoder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace lsched {

LSchedAgent::LSchedAgent(LSchedModel* model, uint64_t seed)
    : model_(model), extractor_(model->config().features), rng_(seed) {}

void LSchedAgent::Reset() {
  experiences_.clear();
  cache_.Clear();
}

int LSchedAgent::SampleFromLogProbs(const double* logprobs, int n) {
  std::vector<double>& probs = probs_scratch_;
  probs.resize(static_cast<size_t>(n));
  for (int c = 0; c < n; ++c) {
    probs[static_cast<size_t>(c)] = std::exp(logprobs[c]);
  }
  if (exploration_epsilon_ > 0.0 &&
      rng_.Uniform() < exploration_epsilon_) {
    // Uniform among actions the policy has not masked out (p > 0).
    std::vector<double>& uniform = uniform_scratch_;
    uniform.resize(probs.size());
    for (size_t i = 0; i < probs.size(); ++i) {
      uniform[i] = probs[i] > 1e-30 ? 1.0 : 0.0;
    }
    const size_t idx = rng_.WeightedIndex(uniform);
    if (idx < probs.size()) return static_cast<int>(idx);
  }
  const size_t idx = rng_.WeightedIndex(probs);
  return idx >= probs.size() ? 0 : static_cast<int>(idx);
}

SchedulingAction LSchedAgent::SelectAction(const ServingPredictorOutput& out) {
  auto choose = [&](const Matrix& logprobs, int row) {
    const double* lp = Row(logprobs, row);
    return sample_actions_ ? SampleFromLogProbs(lp, logprobs.cols())
                           : ArgmaxSpan(lp, logprobs.cols());
  };
  SchedulingAction action;
  action.candidate_index = choose(out.root_logprobs, 0);
  const int c = action.candidate_index;
  action.degree_index = choose(out.degree_logprobs, c);
  action.parallelism_index =
      choose(out.par_logprobs, out.par_row[static_cast<size_t>(c)]);
  return action;
}

SchedulingDecision LSchedAgent::Schedule(const SchedulingEvent& event,
                                         const SchedulingContext& ctx) {
  (void)event;
  SchedulingDecision decision;
  // No free thread means no decision and no rng use; checked before any
  // cache work.
  if (ctx.num_free_threads() == 0) return decision;
  arena_.Reset();

  const std::vector<QueryState*>& queries = ctx.queries();
  ServingStateView view;
  view.total_threads = ctx.total_threads();
  view.free_threads = ctx.num_free_threads();
  view.encoded.reserve(queries.size());
  view.qf.reserve(queries.size());
  // Member scratch: the outer vectors and each QF row keep their capacity
  // from one decision to the next.
  std::vector<EncodingCache::Entry*>& entries = entries_scratch_;
  std::vector<std::vector<double>>& qf_rows = qf_scratch_;
  entries.resize(queries.size());
  if (qf_rows.size() < queries.size()) qf_rows.resize(queries.size());
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const QueryState* q = queries[qi];
    // Hit unless this query was dirtied (operator scheduled / work order
    // completed) since the last event — or the model's weights moved.
    EncodingCache::Entry& entry = cache_.GetStructural(
        *q, ctx.query_version(q->id()), *model_, extractor_);
    entries[qi] = &entry;
    extractor_.ExtractQf(*q, ctx, &qf_rows[qi]);
    view.qf.push_back(&qf_rows[qi]);
    // The query's candidates are the rows of the entry's head_in (filled
    // by EnsureEncoded below), in order.
    for (const auto& [op, degree] : entry.candidates) {
      Candidate c;
      c.query_index = static_cast<int>(qi);
      c.op = op;
      c.max_degree = degree;
      view.candidates.push_back(c);
    }
  }
  if (view.candidates.empty()) {
    return decision;
  }
  // Only now pay for encodings: events with nothing schedulable never
  // reach the networks.
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    cache_.EnsureEncoded(entries[qi], *model_, &arena_);
    view.encoded.push_back(&entries[qi]->enc);
    view.head_in.push_back(&entries[qi]->head_in);
  }

  {
    obs::ScopedSpan span("sched.lsched.forward", "sched", "candidates",
                         static_cast<int64_t>(view.candidates.size()));
    // NN batch occupancy (rows per forward call) for the "nn" counter
    // table: every serving forward scores the whole candidate batch.
    static obs::Counter* batch_calls =
        obs::MetricsRegistry::Global().GetCounter("nn.batch_calls");
    static obs::Counter* batch_rows =
        obs::MetricsRegistry::Global().GetCounter("nn.batch_rows");
    batch_calls->Add(1);
    batch_rows->Add(static_cast<double>(view.candidates.size()));
    const Matrix aqe = ComputeAqeServing(*model_, view, &arena_);
    RunPredictorServing(*model_, view, aqe, &arena_, &serving_out_);
  }

  const SchedulingAction action = SelectAction(serving_out_);
  decision.score = serving_out_.root_logprobs.at(0, action.candidate_index);

  const Candidate& cand =
      view.candidates[static_cast<size_t>(action.candidate_index)];
  const QueryFeatures& q =
      *entries[static_cast<size_t>(cand.query_index)]->features;

  PipelineChoice pipeline;
  pipeline.query = q.qid;
  pipeline.root_op = cand.op;
  pipeline.degree = action.degree_index + 1;
  decision.pipelines.push_back(pipeline);

  const double frac =
      model_->config()
          .parallelism_fractions[static_cast<size_t>(action.parallelism_index)];
  ParallelismChoice par;
  par.query = q.qid;
  par.max_threads = std::max(
      1, static_cast<int>(std::lround(
             frac * static_cast<double>(view.total_threads))));
  decision.parallelism.push_back(par);

  if (record_experiences_) {
    // The trainer replays this state through the tape path; the cached
    // features plus the fresh QF rows are exactly what a full extraction
    // would have produced. The features are shared, not copied.
    Experience exp;
    exp.time = ctx.now();
    exp.num_running_queries = static_cast<int>(queries.size());
    exp.action = action;
    exp.state.time = ctx.now();
    exp.state.total_threads = view.total_threads;
    exp.state.free_threads = view.free_threads;
    exp.state.candidates = view.candidates;
    exp.state.queries.reserve(queries.size());
    exp.state.qf.reserve(queries.size());
    exp.versions.reserve(queries.size());
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      exp.state.queries.push_back(entries[qi]->features);
      exp.state.qf.push_back(std::move(qf_rows[qi]));
      exp.versions.push_back(entries[qi]->version);
    }
    experiences_.push_back(std::move(exp));
  }
  if (cache_.size() > queries.size() * 2 + 16) {
    cache_.Trim(queries);
  }
  return decision;
}

}  // namespace lsched
