#include "core/predictor.h"

#include <algorithm>

#include "util/logging.h"

namespace lsched {

namespace {

/// Mean of the edge embeddings incident (incoming) to `op`, or zeros.
Var InEdgeEmbedding(const EncodedQuery& eq, const QueryFeatures& q, int op,
                    int dim, Tape* tape) {
  const std::vector<int>& edges =
      q.structure->in_edges[static_cast<size_t>(op)];
  if (edges.empty()) return tape->Constant(Matrix(1, dim, 0.0));
  Var sum;
  for (size_t k = 0; k < edges.size(); ++k) {
    const Var e = tape->SliceRow(eq.edge_emb, edges[k]);
    sum = k == 0 ? e : tape->Add(sum, e);
  }
  return tape->Scale(sum, 1.0 / static_cast<double>(edges.size()));
}

}  // namespace

PredictorOutput RunPredictor(LSchedModel* model, const StateFeatures& state,
                             const EncodedState& encoded, Tape* tape) {
  LSCHED_CHECK(!state.candidates.empty());
  const LSchedConfig& cfg = model->config();
  const int d = cfg.hidden_dim;
  const int edf_dim = cfg.features.edf_dim();
  const int max_deg = cfg.max_pipeline_degree;
  const int num_par = static_cast<int>(cfg.parallelism_fractions.size());

  PredictorOutput out;
  std::vector<Var> root_scores;
  root_scores.reserve(state.candidates.size());

  for (const Candidate& cand : state.candidates) {
    const QueryFeatures& q =
        *state.queries[static_cast<size_t>(cand.query_index)];
    const EncodedQuery& eq = encoded.queries[static_cast<size_t>(cand.query_index)];
    Var ne = tape->SliceRow(eq.node_emb, cand.op);
    Var ee = InEdgeEmbedding(eq, q, cand.op, d, tape);

    // Execution-roots head: score(NE, EE, PQE) (Fig. 7 left).
    Var root_in = tape->ConcatCols({ne, ee, eq.pqe});
    root_scores.push_back(model->root_head.Forward(tape, root_in));

    // Pipeline-degree head: same input + aggregated EDF of the root's
    // edges (Fig. 7 middle). Invalid degrees (beyond the currently-valid
    // chain) are masked out; the "w/o pipelining prediction" ablation masks
    // everything but degree 1.
    Var edf_agg = tape->Constant(EdfAggregate(q, cand.op, edf_dim));
    Var deg_in = tape->ConcatCols({ne, ee, eq.pqe, edf_agg});
    Var deg_logits = model->degree_head.Forward(tape, deg_in);
    Matrix mask(1, max_deg, 0.0);
    const int valid =
        cfg.predict_pipeline ? std::min(cand.max_degree, max_deg) : 1;
    for (int k = 0; k < max_deg; ++k) {
      if (k >= valid) mask.at(0, k) = -1e9;
    }
    deg_logits = tape->Add(deg_logits, tape->Constant(std::move(mask)));
    out.degree_logprobs.push_back(tape->LogSoftmaxRow(deg_logits));

    // Parallelism-degree head: AQE + PQE + QF (Fig. 7 right).
    Var qf = tape->Constant(
        Matrix::FromRow(state.qf[static_cast<size_t>(cand.query_index)]));
    Var par_in = tape->ConcatCols({encoded.aqe, eq.pqe, qf});
    Var par_logits = model->par_head.Forward(tape, par_in);
    LSCHED_DCHECK(par_logits.cols() == num_par);
    if (!cfg.predict_parallelism) {
      // Force the full-pool bucket (the last fraction, 1.0).
      Matrix pmask(1, num_par, -1e9);
      pmask.at(0, num_par - 1) = 0.0;
      par_logits = tape->Add(par_logits, tape->Constant(std::move(pmask)));
    }
    out.par_logprobs.push_back(tape->LogSoftmaxRow(par_logits));
  }

  out.root_logprobs = tape->LogSoftmaxRow(tape->ConcatCols(root_scores));
  return out;
}

Matrix ComputeAqeServing(const LSchedModel& model, const ServingStateView& view,
                         ScratchArena* arena) {
  const LSchedConfig& cfg = model.config();
  const int sd = cfg.summary_dim;
  const int qf_dim = cfg.features.qf_dim();
  const int nq = static_cast<int>(view.queries.size());
  Matrix* sum = arena->Alloc(1, sd);  // zero-filled: the empty-state constant
  if (nq > 0) {
    Matrix* cat = arena->Alloc(nq, sd + qf_dim);
    for (int qi = 0; qi < nq; ++qi) {
      double* row = cat->data() +
                    static_cast<size_t>(qi) * static_cast<size_t>(sd + qf_dim);
      const Matrix& pqe = view.encoded[static_cast<size_t>(qi)]->pqe;
      std::copy(pqe.data(), pqe.data() + sd, row);
      const std::vector<double>& qf = *view.qf[static_cast<size_t>(qi)];
      std::copy(qf.begin(), qf.end(), row + sd);
    }
    Matrix* msgs = MlpForward(model.aqe_in, *cat, arena);
    ReluInPlace(msgs);
    for (int qi = 0; qi < nq; ++qi) {
      const double* row =
          msgs->data() + static_cast<size_t>(qi) * static_cast<size_t>(sd);
      if (qi == 0) {
        std::copy(row, row + sd, sum->data());
      } else {
        for (int j = 0; j < sd; ++j) sum->data()[j] += row[j];
      }
    }
  }
  return *MlpForward(model.aqe_out, *sum, arena);
}

void RunPredictorServing(const LSchedModel& model, const ServingStateView& view,
                         const Matrix& aqe, ScratchArena* arena,
                         ServingPredictorOutput* out) {
  LSCHED_CHECK(!view.candidates.empty());
  const LSchedConfig& cfg = model.config();
  const int d = cfg.hidden_dim;
  const int sd = cfg.summary_dim;
  const int edf_dim = cfg.features.edf_dim();
  const int qf_dim = cfg.features.qf_dim();
  const int max_deg = cfg.max_pipeline_degree;
  const int num_par = static_cast<int>(cfg.parallelism_fractions.size());
  const int num_cands = static_cast<int>(view.candidates.size());

  // Assemble one row per candidate for each head, then run each head as a
  // single batched GEMM stack over all candidates. When the caller supplies
  // cached head rows (the agent's fast path), the root/degree inputs are
  // straight row copies; the per-candidate gather + EDF aggregation below
  // only runs as the fallback.
  const bool cached_rows =
      view.head_in.size() == view.queries.size() &&
      view.head_row.size() == view.candidates.size();
  Matrix* root_in = arena->Alloc(num_cands, 2 * d + sd);
  Matrix* deg_in = arena->Alloc(num_cands, 2 * d + sd + edf_dim);
  Matrix* par_in = arena->Alloc(num_cands, 2 * sd + qf_dim);
  Matrix* ee = arena->Alloc(1, d);
  for (int c = 0; c < num_cands; ++c) {
    const Candidate& cand = view.candidates[static_cast<size_t>(c)];
    const QueryFeatures& q = *view.queries[static_cast<size_t>(cand.query_index)];
    const ServingEncodedQuery& eq =
        *view.encoded[static_cast<size_t>(cand.query_index)];

    double* rrow = root_in->data() +
                   static_cast<size_t>(c) * static_cast<size_t>(2 * d + sd);
    double* drow =
        deg_in->data() +
        static_cast<size_t>(c) * static_cast<size_t>(2 * d + sd + edf_dim);
    if (cached_rows) {
      const Matrix& hin = *view.head_in[static_cast<size_t>(cand.query_index)];
      const double* hrow =
          hin.data() + static_cast<size_t>(view.head_row[static_cast<size_t>(c)]) *
                           static_cast<size_t>(2 * d + sd + edf_dim);
      std::copy(hrow, hrow + 2 * d + sd + edf_dim, drow);
      std::copy(hrow, hrow + 2 * d + sd, rrow);
    } else {
      const double* ne = eq.node_emb.data() +
                         static_cast<size_t>(cand.op) * static_cast<size_t>(d);

      // Mean in-edge embedding — same ordered sum + scale as the tape path.
      const std::vector<int>& edges =
          q.structure->in_edges[static_cast<size_t>(cand.op)];
      if (edges.empty()) {
        for (int j = 0; j < d; ++j) ee->data()[j] = 0.0;
      } else {
        for (size_t k = 0; k < edges.size(); ++k) {
          const double* erow =
              eq.edge_emb.data() +
              static_cast<size_t>(edges[k]) * static_cast<size_t>(d);
          if (k == 0) {
            std::copy(erow, erow + d, ee->data());
          } else {
            for (int j = 0; j < d; ++j) ee->data()[j] += erow[j];
          }
        }
        const double inv = 1.0 / static_cast<double>(edges.size());
        for (int j = 0; j < d; ++j) ee->data()[j] *= inv;
      }

      std::copy(ne, ne + d, rrow);
      std::copy(ee->data(), ee->data() + d, rrow + d);
      std::copy(eq.pqe.data(), eq.pqe.data() + sd, rrow + 2 * d);

      std::copy(rrow, rrow + 2 * d + sd, drow);
      const Matrix edf_agg = EdfAggregate(q, cand.op, edf_dim);
      std::copy(edf_agg.data(), edf_agg.data() + edf_dim, drow + 2 * d + sd);
    }

    double* prow = par_in->data() +
                   static_cast<size_t>(c) * static_cast<size_t>(2 * sd + qf_dim);
    std::copy(aqe.data(), aqe.data() + sd, prow);
    std::copy(eq.pqe.data(), eq.pqe.data() + sd, prow + sd);
    const std::vector<double>& qf = *view.qf[static_cast<size_t>(cand.query_index)];
    std::copy(qf.begin(), qf.end(), prow + 2 * sd);
  }

  Matrix* root_scores = MlpForward(model.root_head, *root_in, arena);
  out->root_logprobs.Resize(1, num_cands);
  for (int c = 0; c < num_cands; ++c) {
    out->root_logprobs.data()[c] = root_scores->at(c, 0);
  }
  LogSoftmaxRowsInPlace(&out->root_logprobs);

  Matrix* deg_logits = MlpForward(model.degree_head, *deg_in, arena);
  out->degree_logprobs = *deg_logits;
  for (int c = 0; c < num_cands; ++c) {
    const Candidate& cand = view.candidates[static_cast<size_t>(c)];
    const int valid =
        cfg.predict_pipeline ? std::min(cand.max_degree, max_deg) : 1;
    double* row = out->degree_logprobs.data() +
                  static_cast<size_t>(c) * static_cast<size_t>(max_deg);
    // Tape adds an explicit mask matrix (0 or -1e9) to every entry; mirror
    // the additions exactly.
    for (int k = 0; k < max_deg; ++k) row[k] += k >= valid ? -1e9 : 0.0;
  }
  LogSoftmaxRowsInPlace(&out->degree_logprobs);

  Matrix* par_logits = MlpForward(model.par_head, *par_in, arena);
  out->par_logprobs = *par_logits;
  if (!cfg.predict_parallelism) {
    for (int c = 0; c < num_cands; ++c) {
      double* row = out->par_logprobs.data() +
                    static_cast<size_t>(c) * static_cast<size_t>(num_par);
      for (int k = 0; k < num_par; ++k) {
        row[k] += k == num_par - 1 ? 0.0 : -1e9;
      }
    }
  }
  LogSoftmaxRowsInPlace(&out->par_logprobs);
}

double ServingActionLogProb(const ServingPredictorOutput& output,
                            const SchedulingAction& action) {
  return output.root_logprobs.at(0, action.candidate_index) +
         output.degree_logprobs.at(action.candidate_index,
                                   action.degree_index) +
         output.par_logprobs.at(action.candidate_index,
                                action.parallelism_index);
}

Var ActionLogProb(Tape* tape, const PredictorOutput& output,
                  const SchedulingAction& action) {
  Var lp = tape->PickCol(output.root_logprobs, action.candidate_index);
  lp = tape->Add(
      lp, tape->PickCol(
              output.degree_logprobs[static_cast<size_t>(action.candidate_index)],
              action.degree_index));
  lp = tape->Add(
      lp, tape->PickCol(
              output.par_logprobs[static_cast<size_t>(action.candidate_index)],
              action.parallelism_index));
  return lp;
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
  Var h = CategoricalEntropy(tape, output.root_logprobs);
  h = tape->Add(
      h, CategoricalEntropy(
             tape, output.degree_logprobs[static_cast<size_t>(
                       action.candidate_index)]));
  h = tape->Add(
      h, CategoricalEntropy(
             tape, output.par_logprobs[static_cast<size_t>(
                       action.candidate_index)]));
  return h;
}

}  // namespace lsched
