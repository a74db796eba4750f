#include "core/predictor.h"

#include <algorithm>

#include "util/logging.h"

namespace lsched {

namespace {

/// The query of a candidate: the parallelism head's rows group candidates
/// by it (GroupRows).
int QueryOf(const Candidate& c) { return c.query_index; }

/// Row of the parallelism head's input: [AQE | PQE | QF].
void ParallelismInputRow(const Matrix& aqe, const Matrix& pqe,
                         const std::vector<double>& qf, double* row) {
  std::copy(aqe.data(), aqe.data() + aqe.cols(), row);
  std::copy(pqe.data(), pqe.data() + pqe.cols(), row + aqe.cols());
  std::copy(qf.begin(), qf.end(), row + aqe.cols() + pqe.cols());
}

/// Additive mask of the degree head's logits (C x max_pipeline_degree):
/// -1e9 on the degrees beyond each candidate's valid pipeline, and on all
/// but degree 1 in the "w/o pipelining prediction" ablation.
void DegreeMask(const LSchedConfig& cfg,
                const std::vector<Candidate>& candidates, Matrix* mask) {
  const int max_deg = cfg.max_pipeline_degree;
  mask->Resize(static_cast<int>(candidates.size()), max_deg);
  for (size_t c = 0; c < candidates.size(); ++c) {
    const int valid = cfg.predict_pipeline
                          ? std::min(candidates[c].max_degree, max_deg)
                          : 1;
    double* row = Row(mask, static_cast<int>(c));
    for (int k = valid; k < max_deg; ++k) row[k] = -1e9;
  }
}

/// Additive (1 x #buckets) mask of the parallelism head's logits when it
/// does not predict: only the full-pool bucket (the last fraction, 1.0)
/// stays.
Matrix FullPoolMask(const LSchedConfig& cfg) {
  const int num_par = static_cast<int>(cfg.parallelism_fractions.size());
  Matrix mask(1, num_par, -1e9);
  mask.at(0, num_par - 1) = 0.0;
  return mask;
}

/// One query's head rows (AssembleHeadRows) as a tape node. The backward
/// scatters each row's parts back: NE into its node's row, the mean-in-EE
/// part, scaled, into each incoming edge's row, and PQE into the PQE.
Var HeadRows(const LSchedModel& model, const QueryFeatures& q,
             const EncodedQuery& eq,
             std::vector<std::pair<int, int>> candidates, Tape* tape) {
  Matrix rows;
  AssembleHeadRows(model, q, eq.node_emb.value(), eq.edge_emb.value(),
                   eq.pqe.value(), candidates, &rows);
  const int d = model.config().hidden_dim;
  const int sd = model.config().summary_dim;
  const QueryStructure* s = q.structure.get();
  return tape->Custom(
      std::move(rows),
      [s, eq, candidates = std::move(candidates), d, sd](Tape* t, Var self) {
        const Matrix& g = t->grad(self.id());
        Matrix& g_node = t->mutable_grad(eq.node_emb);
        Matrix& g_pqe = t->mutable_grad(eq.pqe);
        for (size_t c = 0; c < candidates.size(); ++c) {
          const double* gr = Row(g, static_cast<int>(c));
          const int op = candidates[c].first;
          AddRowInPlace(Row(&g_node, op), gr, d);
          const std::vector<int>& in = s->in_edges[static_cast<size_t>(op)];
          if (!in.empty()) {
            Matrix& g_edge = t->mutable_grad(eq.edge_emb);
            const double inv = 1.0 / static_cast<double>(in.size());
            for (int e : in) {
              double* ge = Row(&g_edge, e);
              for (int j = 0; j < d; ++j) ge[j] += gr[d + j] * inv;
            }
          }
          AddRowInPlace(g_pqe.data(), gr + 2 * d, sd);
        }
      });
}

}  // namespace

PredictorOutput RunPredictor(LSchedModel* model, const StateFeatures& state,
                             const EncodedState& encoded, Tape* tape) {
  LSCHED_CHECK(!state.candidates.empty());
  const LSchedConfig& cfg = model->config();
  const int sd = cfg.summary_dim;
  const std::vector<Candidate>& cands = state.candidates;

  PredictorOutput out;
  const int num_rows = GroupRows(cands, QueryOf, &out.par_row);

  // One head-row node per query with candidates, made at its last
  // candidate, and its parallelism-head input row.
  std::vector<Var> head_parts;
  std::vector<Var> pqes;
  Matrix par_in(num_rows, 2 * sd + cfg.features.qf_dim());
  std::vector<std::pair<int, int>> query_cands;
  for (size_t c = 0; c < cands.size(); ++c) {
    query_cands.push_back({cands[c].op, cands[c].max_degree});
    if (c + 1 < cands.size() && out.par_row[c + 1] == out.par_row[c]) continue;
    const size_t qi = static_cast<size_t>(cands[c].query_index);
    const EncodedQuery& eq = encoded.queries[qi];
    head_parts.push_back(HeadRows(*model, *state.queries[qi], eq,
                                  std::move(query_cands), tape));
    query_cands.clear();
    ParallelismInputRow(encoded.aqe.value(), eq.pqe.value(), state.qf[qi],
                        Row(&par_in, out.par_row[c]));
    pqes.push_back(eq.pqe);
  }
  const Var head_in = head_parts.size() == 1 ? head_parts[0]
                                             : tape->ConcatRows(head_parts);

  // Execution-roots head: score(NE, EE, PQE) (Fig. 7 left), softmax over
  // the candidates.
  const Var root_in = tape->SliceCols(head_in, 0, model->root_head.in_dim());
  out.root_logprobs = tape->LogSoftmaxRows(
      tape->Transpose(model->root_head.Forward(tape, root_in)));

  // Pipeline-degree head: the same row + the EDF aggregate (Fig. 7 middle).
  Matrix mask;
  DegreeMask(cfg, cands, &mask);
  out.degree_logprobs = tape->LogSoftmaxRows(
      tape->Add(model->degree_head.Forward(tape, head_in),
                tape->Constant(std::move(mask))));

  // Parallelism-degree head: AQE + PQE + QF (Fig. 7 right), once per query.
  const Var aqe = encoded.aqe;
  const Var par_rows = tape->Custom(
      std::move(par_in), [aqe, pqes, sd](Tape* t, Var self) {
        const Matrix& g = t->grad(self.id());
        Matrix& g_aqe = t->mutable_grad(aqe);
        for (size_t r = 0; r < pqes.size(); ++r) {
          const double* gr = Row(g, static_cast<int>(r));
          AddRowInPlace(g_aqe.data(), gr, sd);
          AddRowInPlace(t->mutable_grad(pqes[r]).data(), gr + sd, sd);
        }
      });
  Var par_logits = model->par_head.Forward(tape, par_rows);
  if (!cfg.predict_parallelism) {
    par_logits = tape->Add(par_logits, tape->Constant(FullPoolMask(cfg)));
  }
  out.par_logprobs = tape->LogSoftmaxRows(par_logits);
  return out;
}

Matrix ComputeAqeServing(const LSchedModel& model, const ServingStateView& view,
                         ScratchArena* arena) {
  const LSchedConfig& cfg = model.config();
  const int sd = cfg.summary_dim;
  const int qf_dim = cfg.features.qf_dim();
  const int nq = static_cast<int>(view.encoded.size());
  Matrix* cat = arena->Alloc(nq, sd + qf_dim);
  for (int qi = 0; qi < nq; ++qi) {
    double* row = Row(cat, qi);
    const Matrix& pqe = view.encoded[static_cast<size_t>(qi)]->pqe;
    std::copy(pqe.data(), pqe.data() + sd, row);
    const std::vector<double>& qf = *view.qf[static_cast<size_t>(qi)];
    std::copy(qf.begin(), qf.end(), row + sd);
  }
  Matrix* msgs = MlpForward(model.aqe_in, *cat, arena);
  ReluInPlace(msgs);
  Matrix* sum = arena->Alloc(0, 0);
  SumRowsInto(*msgs, sum);  // zeros without queries: the empty-state constant
  return *MlpForward(model.aqe_out, *sum, arena);
}

void RunPredictorServing(const LSchedModel& model, const ServingStateView& view,
                         const Matrix& aqe, ScratchArena* arena,
                         ServingPredictorOutput* out) {
  LSCHED_CHECK(!view.candidates.empty());
  const LSchedConfig& cfg = model.config();
  const int sd = cfg.summary_dim;
  const int root_width = model.root_head.in_dim();
  const int num_cands = static_cast<int>(view.candidates.size());
  const int num_rows = GroupRows(view.candidates, QueryOf, &out->par_row);

  // Each query's candidates are consecutive and are its cached head rows,
  // in order: copy them whole, and the root head's prefix of each.
  Matrix* head_in = arena->Alloc(num_cands, model.degree_head.in_dim());
  Matrix* root_in = arena->Alloc(num_cands, root_width);
  Matrix* par_in = arena->Alloc(num_rows, 2 * sd + cfg.features.qf_dim());
  const std::vector<int>& group = out->par_row;
  for (int c = 0; c < num_cands;) {
    const Candidate& first = view.candidates[static_cast<size_t>(c)];
    const size_t qi = static_cast<size_t>(first.query_index);
    const Matrix& rows = *view.head_in[qi];
    const int end = c + rows.rows();
    LSCHED_DCHECK(rows.rows() > 0 && rows.cols() == head_in->cols() &&
                  end <= num_cands && group[end - 1] == group[c] &&
                  (end == num_cands || group[end] != group[c]))
        << "head rows do not match the query's candidates";
    std::copy(rows.data(), rows.data() + rows.size(), Row(head_in, c));
    for (int r = 0; r < rows.rows(); ++r) {
      std::copy(Row(rows, r), Row(rows, r) + root_width, Row(root_in, c + r));
    }
    ParallelismInputRow(aqe, view.encoded[qi]->pqe, *view.qf[qi],
                        Row(par_in, group[static_cast<size_t>(c)]));
    c = end;
  }

  Matrix* root_scores = MlpForward(model.root_head, *root_in, arena);
  out->root_logprobs.Resize(1, num_cands);
  std::copy(root_scores->data(), root_scores->data() + num_cands,
            out->root_logprobs.data());
  LogSoftmaxRowsInPlace(&out->root_logprobs);

  Matrix* mask = arena->Alloc(0, 0);
  DegreeMask(cfg, view.candidates, mask);
  out->degree_logprobs = *MlpForward(model.degree_head, *head_in, arena);
  out->degree_logprobs.AddInPlace(*mask);
  LogSoftmaxRowsInPlace(&out->degree_logprobs);

  out->par_logprobs = *MlpForward(model.par_head, *par_in, arena);
  if (!cfg.predict_parallelism) {
    AddRowBroadcastInPlace(&out->par_logprobs, FullPoolMask(cfg));
  }
  LogSoftmaxRowsInPlace(&out->par_logprobs);
}

Var ActionLogProb(Tape* tape, const PredictorOutput& output,
                  const SchedulingAction& action) {
  const int c = action.candidate_index;
  Var lp = tape->Pick(output.root_logprobs, 0, c);
  lp = tape->Add(lp,
                 tape->Pick(output.degree_logprobs, c, action.degree_index));
  return tape->Add(
      lp, tape->Pick(output.par_logprobs,
                     output.par_row[static_cast<size_t>(c)],
                     action.parallelism_index));
}

namespace {
Var CategoricalEntropy(Tape* tape, Var logprobs) {
  // H = -sum p * log p. Masked entries have p == 0 exactly (exp underflow),
  // and 0 * -1e9 = -0, so they contribute nothing.
  Var p = tape->Exp(logprobs);
  return tape->Scale(tape->SumAll(tape->Mul(p, logprobs)), -1.0);
}
}  // namespace

Var ActionEntropy(Tape* tape, const PredictorOutput& output,
                  const SchedulingAction& action) {
  const int c = action.candidate_index;
  Var h = CategoricalEntropy(tape, output.root_logprobs);
  h = tape->Add(h, CategoricalEntropy(
                       tape, tape->SliceRow(output.degree_logprobs, c)));
  return tape->Add(
      h, CategoricalEntropy(
             tape, tape->SliceRow(output.par_logprobs,
                                  output.par_row[static_cast<size_t>(c)])));
}

}  // namespace lsched
