#include "core/encoder.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <iterator>

#include "obs/metrics.h"
#include "util/logging.h"
#include "util/math_util.h"

namespace lsched {

namespace {

/// Copies per-row feature vectors into the rows of `m` (already sized).
void FillRows(const std::vector<std::vector<double>>& rows, Matrix* m) {
  for (size_t r = 0; r < rows.size(); ++r) {
    std::copy(rows[r].begin(), rows[r].end(),
              m->data() + r * static_cast<size_t>(m->cols()));
  }
}

/// Weights of one tree-convolution layer's triangle filter (Eq. 2) and GAT
/// scores (Eq. 3), as raw rows: w[slot] is (1 x d), att is (1 x 2d).
struct CombineWeights {
  /// Slots: 0 self, 1 right child, 2 left child, 3 right edge, 4 left edge.
  std::array<const double*, 5> w;
  const double* att;
};

/// One term of a node's triangle filter: the embedding row it scales and
/// the weight slot that scales it.
struct Term {
  bool edge;  ///< row indexes the edge embeddings, not the node ones
  int row;
  int slot;
};

/// At most self + 2 x (child, edge).
constexpr int kMaxTerms = 5;

/// Producer ("child") slots of every node: views of
/// QueryFeatures::child_node and child_edge.
struct Producers {
  const std::array<int, 2>* node;
  const std::array<int, 2>* edge;
};

/// Node i's combine step, shared by the forward and the backward: fills its
/// terms (self first, then per producer slot — right, then left — the
/// child's and the connecting edge's), their values t (rows of `t`) and
/// their weights z. With GAT and more than one term, z is the softmax of
/// the LeakyReLU'd raw scores s; otherwise every z is 1, and multiplying
/// by it is exact. Missing children contribute nothing (zero-padded leaves
/// of standard tree convolution). Returns the number of terms.
int NodeTerms(const Producers& p, int i, const CombineWeights& cw,
              bool use_gat, const double* x, const double* e, int d,
              Term* terms, double* t, double* s, double* z) {
  int n = 0;
  terms[n++] = {false, i, 0};
  for (int slot = 0; slot < 2; ++slot) {
    const int child = p.node[static_cast<size_t>(i)][slot];
    if (child < 0) continue;
    terms[n++] = {false, child, 1 + slot};
    terms[n++] = {true, p.edge[static_cast<size_t>(i)][slot], 3 + slot};
  }
  for (int k = 0; k < n; ++k) {
    const double* src = (terms[k].edge ? e : x) +
                        static_cast<size_t>(terms[k].row) * static_cast<size_t>(d);
    const double* w = cw.w[static_cast<size_t>(terms[k].slot)];
    double* tk = t + static_cast<size_t>(k) * static_cast<size_t>(d);
    for (int j = 0; j < d; ++j) tk[j] = src[j] * w[j];
    z[k] = 1.0;
  }
  if (use_gat && n > 1) {
    // Scores y_k = LeakyReLU(a . (t_self || t_k)) (Eq. 3: the dot product
    // over the concatenated row, self half first), then softmax (Eq. 4).
    double logits[kMaxTerms];
    for (int k = 0; k < n; ++k) {
      const double* tk = t + static_cast<size_t>(k) * static_cast<size_t>(d);
      double sk = 0.0;
      for (int j = 0; j < d; ++j) sk += cw.att[j] * t[j];
      for (int j = 0; j < d; ++j) sk += cw.att[d + j] * tk[j];
      s[k] = sk;
      logits[k] = sk > 0.0 ? sk : 0.2 * sk;
    }
    const double lse = LogSumExp(logits, static_cast<size_t>(n));
    for (int k = 0; k < n; ++k) z[k] = std::exp(logits[k] - lse);
  }
  return n;
}

/// The combine step of one tree-convolution layer for every node (Eqs.
/// 2-5): row i of `out` is sum_k z_k t_k over node i's terms — GAT-weighted
/// (Eq. 5), or a plain sum without GAT (the Fig. 15 "w/o GAT" ablation).
/// Both encoders run this routine, so the serving encoder equals the tape
/// encoder by construction. `out` is (num_nodes x d); `t` is scratch for
/// the terms, (kMaxTerms x d).
void CombineForward(const Producers& p, const CombineWeights& cw,
                    bool use_gat, const Matrix& x, const Matrix& e, Matrix* t,
                    Matrix* out) {
  const int d = x.cols();
  Term terms[kMaxTerms];
  double s[kMaxTerms], z[kMaxTerms];
  for (int i = 0; i < x.rows(); ++i) {
    const int n = NodeTerms(p, i, cw, use_gat, x.data(), e.data(), d, terms,
                            t->data(), s, z);
    double* combined =
        out->data() + static_cast<size_t>(i) * static_cast<size_t>(d);
    for (int j = 0; j < d; ++j) combined[j] = t->data()[j] * z[0];
    for (int k = 1; k < n; ++k) {
      const double* tk =
          t->data() + static_cast<size_t>(k) * static_cast<size_t>(d);
      for (int j = 0; j < d; ++j) combined[j] += tk[j] * z[k];
    }
  }
}

/// Gradient sinks of CombineBackward, shaped like its inputs.
struct CombineGrads {
  Matrix* x;
  Matrix* e;
  std::array<Matrix*, 5> w;
  Matrix* att;
};

/// Backward of CombineForward: adds d(loss)/d(input) into `grads`, given
/// the output gradient `g`. Recomputes each node's terms and weights.
void CombineBackward(const Producers& p, const CombineWeights& cw,
                     bool use_gat, const Matrix& x, const Matrix& e,
                     const Matrix& g, const CombineGrads& grads) {
  const int d = x.cols();
  Term terms[kMaxTerms];
  double s[kMaxTerms], z[kMaxTerms];
  Matrix t(kMaxTerms, d);
  Matrix dt(kMaxTerms, d);
  const auto row = [d](auto* base, int k) {
    return base + static_cast<size_t>(k) * static_cast<size_t>(d);
  };
  for (int i = 0; i < x.rows(); ++i) {
    const int n = NodeTerms(p, i, cw, use_gat, x.data(), e.data(), d, terms,
                            t.data(), s, z);
    const double* gi = g.data() + static_cast<size_t>(i) * static_cast<size_t>(d);
    for (int k = 0; k < n; ++k) {
      double* dtk = row(dt.data(), k);
      for (int j = 0; j < d; ++j) dtk[j] = z[k] * gi[j];
    }
    if (use_gat && n > 1) {
      // Through the softmax: dL/dlogit_k = z_k (dz_k - sum_c z_c dz_c),
      // dz_k = g . t_k; then LeakyReLU, then s_k = a . (t_0 || t_k).
      double dz[kMaxTerms];
      double zdz = 0.0;
      for (int k = 0; k < n; ++k) {
        const double* tk = row(t.data(), k);
        dz[k] = 0.0;
        for (int j = 0; j < d; ++j) dz[k] += gi[j] * tk[j];
        zdz += z[k] * dz[k];
      }
      const double* t0 = t.data();
      double* dt0 = dt.data();
      double* datt = grads.att->data();
      for (int k = 0; k < n; ++k) {
        const double* tk = row(t.data(), k);
        double* dtk = row(dt.data(), k);
        const double dlogit = z[k] * (dz[k] - zdz);
        const double ds = s[k] > 0.0 ? dlogit : 0.2 * dlogit;
        for (int j = 0; j < d; ++j) {
          datt[j] += ds * t0[j];
          datt[d + j] += ds * tk[j];
          dt0[j] += ds * cw.att[j];
          dtk[j] += ds * cw.att[d + j];
        }
      }
    }
    // t_k = src_k * w_slot(k), elementwise.
    for (int k = 0; k < n; ++k) {
      const Term& term = terms[k];
      const double* src = row((term.edge ? e : x).data(), term.row);
      double* dsrc = row((term.edge ? grads.e : grads.x)->data(), term.row);
      const double* w = cw.w[static_cast<size_t>(term.slot)];
      double* dw = grads.w[static_cast<size_t>(term.slot)]->data();
      const double* dtk = row(dt.data(), k);
      for (int j = 0; j < d; ++j) {
        dsrc[j] += dtk[j] * w[j];
        dw[j] += dtk[j] * src[j];
      }
    }
  }
}

/// One edge-aware tree-convolution layer (Eq. 2) with optional GAT
/// weighting (Eqs. 3-5) over all nodes: the combine step is one tape node
/// with a hand-written backward, the channel mix one Linear over all rows.
Var TreeConvLayer(const LSchedModel& model,
                  const LSchedModel::ConvLayer& layer, const QueryFeatures& q,
                  Var x, Var e, Tape* tape) {
  const bool use_gat = model.config().use_gat;
  const std::array<Var, 5> w = {
      tape->Leaf(layer.w_self), tape->Leaf(layer.w_right),
      tape->Leaf(layer.w_left), tape->Leaf(layer.w_eright),
      tape->Leaf(layer.w_eleft)};
  const Var att = tape->Leaf(layer.att);
  const auto weights = [w, att]() {
    CombineWeights cw;
    for (size_t slot = 0; slot < w.size(); ++slot) {
      cw.w[slot] = w[slot].value().data();
    }
    cw.att = att.value().data();
    return cw;
  };
  const Producers producers{q.child_node.data(), q.child_edge.data()};
  Matrix terms(kMaxTerms, x.cols());
  Matrix combined(q.num_nodes, x.cols());
  CombineForward(producers, weights(), use_gat, x.value(), e.value(), &terms,
                 &combined);
  const Var out = tape->Custom(
      std::move(combined),
      [producers, use_gat, x, e, w, att, weights](Tape* t, Var self) {
        CombineGrads grads;
        grads.x = &t->mutable_grad(x);
        grads.e = &t->mutable_grad(e);
        for (size_t slot = 0; slot < w.size(); ++slot) {
          grads.w[slot] = &t->mutable_grad(w[slot]);
        }
        grads.att = &t->mutable_grad(att);
        CombineBackward(producers, weights(), use_gat, x.value(), e.value(),
                        t->grad(self.id()), grads);
      });
  return tape->Relu(layer.mix.Forward(tape, out));
}

/// Sequential message-passing GCN layer (the Decima-style encoder used for
/// the "w/o triangle convolution" ablation): children embeddings computed
/// earlier in the same sweep are fused into their parents, which is exactly
/// the within-iteration indirect fusion the paper identifies as the source
/// of over-smoothing (§4.2.1). The sweep is inherently row by row.
Var GcnLayer(const LSchedModel& model, const QueryFeatures& q, Var x,
             Tape* tape) {
  std::vector<Var> out;
  out.reserve(static_cast<size_t>(q.num_nodes));
  for (int i = 0; i < q.num_nodes; ++i) out.push_back(tape->SliceRow(x, i));
  for (int i : q.topo_order) {  // producers first: sequential steps
    Var h = model.gcn_self.Forward(tape, out[static_cast<size_t>(i)]);
    for (int s = 0; s < 2; ++s) {
      const int child = q.child_node[static_cast<size_t>(i)][s];
      if (child < 0) continue;
      h = tape->Add(
          h, model.gcn_child.Forward(tape, out[static_cast<size_t>(child)]));
    }
    out[static_cast<size_t>(i)] = tape->Relu(h);
  }
  return tape->ConcatRows(out);
}

}  // namespace

EncodedQuery EncodeQuery(LSchedModel* model, const QueryFeatures& q,
                         Tape* tape) {
  const LSchedConfig& cfg = model->config();
  Matrix opf_mat(q.num_nodes, cfg.features.opf_dim());
  FillRows(q.opf, &opf_mat);
  Matrix edf_mat(static_cast<int>(q.edf.size()), cfg.features.edf_dim());
  FillRows(q.edf, &edf_mat);
  const Var opf = tape->Constant(std::move(opf_mat));
  const Var edf = tape->Constant(std::move(edf_mat));

  // Initial projections of OPF and EDF, one Linear over all rows. A query
  // without edges gets (0 x d) edge embeddings, and the PQE's edge sum below
  // is then zero.
  EncodedQuery enc;
  enc.node_emb = tape->Relu(model->proj_node.Forward(tape, opf));
  enc.edge_emb = tape->Relu(model->proj_edge.Forward(tape, edf));

  // Stacked convolution layers.
  if (cfg.use_tree_conv) {
    for (const LSchedModel::ConvLayer& layer : model->conv) {
      enc.node_emb =
          TreeConvLayer(*model, layer, q, enc.node_emb, enc.edge_emb, tape);
    }
  } else {
    for (int l = 0; l < cfg.num_conv_layers; ++l) {
      enc.node_emb = GcnLayer(*model, q, enc.node_emb, tape);
    }
  }

  // PQE: summarize nodes (NE || OPF) and edges (EE || EDF) into one vector
  // via the false-edges-to-summary-node message passing of Fig. 6.
  const Var node_msgs = tape->Relu(
      model->pqe_node_in.Forward(tape, tape->ConcatCols({enc.node_emb, opf})));
  const Var edge_msgs = tape->Relu(
      model->pqe_edge_in.Forward(tape, tape->ConcatCols({enc.edge_emb, edf})));
  enc.pqe = model->pqe_out.Forward(
      tape, tape->ConcatCols({tape->SumRows(node_msgs),
                              tape->SumRows(edge_msgs)}));
  return enc;
}

// --- tape-free serving path -------------------------------------------------

namespace {

/// acc[0..d) += b[0..d) — mirrors Tape::Add on (1 x d) rows.
inline void AddRowInPlace(double* acc, const double* b, int d) {
  for (int j = 0; j < d; ++j) acc[j] += b[j];
}

/// One tape-free tree-convolution layer: the tape encoder's combine
/// routine, then the channel mix as one GEMM over the query's nodes.
void TreeConvLayerServing(const LSchedModel& model,
                          const LSchedModel::ConvLayer& layer,
                          const QueryFeatures& q, Matrix* node_emb,
                          const Matrix& edge_emb, ScratchArena* arena) {
  CombineWeights cw;
  cw.w = {layer.w_self->value.data(), layer.w_right->value.data(),
          layer.w_left->value.data(), layer.w_eright->value.data(),
          layer.w_eleft->value.data()};
  cw.att = layer.att->value.data();
  const int d = model.config().hidden_dim;
  Matrix* terms = arena->Alloc(kMaxTerms, d);
  Matrix* combined = arena->Alloc(q.num_nodes, d);
  CombineForward({q.child_node.data(), q.child_edge.data()}, cw,
                 model.config().use_gat, *node_emb, edge_emb, terms,
                 combined);
  Matrix* mixed = arena->Alloc(q.num_nodes, d);
  LinearForwardInto(layer.mix, *combined, mixed);
  ReluInPlace(mixed);
  *node_emb = *mixed;
}

/// Tape-free sequential message-passing GCN layer (ablation fallback).
void GcnLayerServing(const LSchedModel& model, const QueryFeatures& q,
                     Matrix* node_emb, ScratchArena* arena) {
  const int d = model.config().hidden_dim;
  Matrix* row = arena->Alloc(1, d);
  Matrix* h = arena->Alloc(1, d);
  Matrix* child_out = arena->Alloc(1, d);
  for (int i : q.topo_order) {
    double* x_i =
        node_emb->data() + static_cast<size_t>(i) * static_cast<size_t>(d);
    for (int j = 0; j < d; ++j) row->data()[j] = x_i[j];
    LinearForwardInto(model.gcn_self, *row, h);
    for (int s = 0; s < 2; ++s) {
      const int child = q.child_node[static_cast<size_t>(i)][s];
      if (child < 0) continue;
      const double* xc = node_emb->data() +
                         static_cast<size_t>(child) * static_cast<size_t>(d);
      for (int j = 0; j < d; ++j) row->data()[j] = xc[j];
      LinearForwardInto(model.gcn_child, *row, child_out);
      AddRowInPlace(h->data(), child_out->data(), d);
    }
    for (int j = 0; j < d; ++j) x_i[j] = h->data()[j] > 0.0 ? h->data()[j] : 0.0;
  }
}

}  // namespace

ServingEncodedQuery EncodeQueryServing(const LSchedModel& model,
                                       const QueryFeatures& q,
                                       ScratchArena* arena) {
  const LSchedConfig& cfg = model.config();
  const int d = cfg.hidden_dim;
  const int sd = cfg.summary_dim;
  const int opf_dim = cfg.features.opf_dim();
  const int edf_dim = cfg.features.edf_dim();
  const int num_edges = static_cast<int>(q.edf.size());
  ServingEncodedQuery out;

  // Initial projections, batched over all nodes / edges of the query.
  Matrix* opf_mat = arena->Alloc(q.num_nodes, opf_dim);
  FillRows(q.opf, opf_mat);
  Matrix* ne = arena->Alloc(q.num_nodes, d);
  LinearForwardInto(model.proj_node, *opf_mat, ne);
  ReluInPlace(ne);

  Matrix* edf_mat = arena->Alloc(num_edges, edf_dim);
  FillRows(q.edf, edf_mat);
  out.edge_emb.Resize(num_edges, d);
  if (num_edges > 0) {
    Matrix* ee = arena->Alloc(num_edges, d);
    LinearForwardInto(model.proj_edge, *edf_mat, ee);
    ReluInPlace(ee);
    out.edge_emb = *ee;
  }

  // Stacked convolution layers.
  if (cfg.use_tree_conv) {
    for (const LSchedModel::ConvLayer& layer : model.conv) {
      TreeConvLayerServing(model, layer, q, ne, out.edge_emb, arena);
    }
  } else {
    for (int l = 0; l < cfg.num_conv_layers; ++l) {
      GcnLayerServing(model, q, ne, arena);
    }
  }
  out.node_emb = *ne;

  // PQE: batched node / edge messages, then ordered row-summation (same
  // accumulation order as the tape's sequential Adds).
  Matrix* node_cat = arena->Alloc(q.num_nodes, d + opf_dim);
  for (int i = 0; i < q.num_nodes; ++i) {
    double* row = node_cat->data() +
                  static_cast<size_t>(i) * static_cast<size_t>(d + opf_dim);
    const double* nrow = out.node_emb.data() +
                         static_cast<size_t>(i) * static_cast<size_t>(d);
    std::copy(nrow, nrow + d, row);
    const std::vector<double>& f = q.opf[static_cast<size_t>(i)];
    std::copy(f.begin(), f.end(), row + d);
  }
  Matrix* node_msgs = MlpForward(model.pqe_node_in, *node_cat, arena);
  ReluInPlace(node_msgs);
  Matrix* node_sum = arena->Alloc(1, sd);
  for (int i = 0; i < q.num_nodes; ++i) {
    const double* row =
        node_msgs->data() + static_cast<size_t>(i) * static_cast<size_t>(sd);
    if (i == 0) {
      std::copy(row, row + sd, node_sum->data());
    } else {
      AddRowInPlace(node_sum->data(), row, sd);
    }
  }

  Matrix* edge_sum = arena->Alloc(1, sd);
  if (num_edges > 0) {
    Matrix* edge_cat = arena->Alloc(num_edges, d + edf_dim);
    for (int e = 0; e < num_edges; ++e) {
      double* row = edge_cat->data() +
                    static_cast<size_t>(e) * static_cast<size_t>(d + edf_dim);
      const double* erow = out.edge_emb.data() +
                           static_cast<size_t>(e) * static_cast<size_t>(d);
      std::copy(erow, erow + d, row);
      const std::vector<double>& f = q.edf[static_cast<size_t>(e)];
      std::copy(f.begin(), f.end(), row + d);
    }
    Matrix* edge_msgs = MlpForward(model.pqe_edge_in, *edge_cat, arena);
    ReluInPlace(edge_msgs);
    for (int e = 0; e < num_edges; ++e) {
      const double* row = edge_msgs->data() +
                          static_cast<size_t>(e) * static_cast<size_t>(sd);
      if (e == 0) {
        std::copy(row, row + sd, edge_sum->data());
      } else {
        AddRowInPlace(edge_sum->data(), row, sd);
      }
    }
  }  // else: zeros, matching the tape's zero constant.

  Matrix* pqe_cat = arena->Alloc(1, 2 * sd);
  std::copy(node_sum->data(), node_sum->data() + sd, pqe_cat->data());
  std::copy(edge_sum->data(), edge_sum->data() + sd, pqe_cat->data() + sd);
  out.pqe = *MlpForward(model.pqe_out, *pqe_cat, arena);
  return out;
}

EncodingCache::Entry& EncodingCache::GetStructural(
    const QueryState& q, uint64_t version, const LSchedModel& model,
    const FeatureExtractor& extractor) {
  const uint64_t epoch = model.params().value_epoch();
  if (epoch != params_epoch_) {
    // Parameter values moved (optimizer step / checkpoint load): every
    // cached encoding is stale regardless of query versions.
    entries_.clear();
    params_epoch_ = epoch;
  }
  // Process-wide mirrors of the per-instance counters feed the "encoder"
  // counter table (obs/profiler.h); sharded counters keep this cheap.
  static obs::Counter* hit_counter =
      obs::MetricsRegistry::Global().GetCounter("sched.encoder_cache_hits");
  static obs::Counter* miss_counter =
      obs::MetricsRegistry::Global().GetCounter("sched.encoder_cache_misses");
  Entry& e = entries_[q.id()];
  if (e.version == version && version != 0) {
    ++hits_;
    hit_counter->Add(1);
    return e;
  }
  ++misses_;
  miss_counter->Add(1);
  e.version = version;
  e.features = extractor.ExtractQueryStructural(q);
  e.candidates = FeatureExtractor::SchedulableCandidates(q);
  e.encoded = false;
  return e;
}

Matrix EdfAggregate(const QueryFeatures& q, int op, int edf_dim) {
  Matrix agg(1, edf_dim, 0.0);
  int count = 0;
  auto add = [&](int e) {
    for (int c = 0; c < edf_dim; ++c) {
      agg.at(0, c) += q.edf[static_cast<size_t>(e)][static_cast<size_t>(c)];
    }
    ++count;
  };
  for (int e : q.in_edges[static_cast<size_t>(op)]) add(e);
  for (int e : q.out_edges[static_cast<size_t>(op)]) add(e);
  if (count > 0) {
    for (int c = 0; c < edf_dim; ++c) {
      agg.at(0, c) /= static_cast<double>(count);
    }
  }
  return agg;
}

void EncodingCache::EnsureEncoded(Entry* entry, const LSchedModel& model,
                                  ScratchArena* arena) {
  if (entry->encoded) return;
  entry->enc = EncodeQueryServing(model, entry->features, arena);
  // Pre-assemble the head-input row of every candidate while the encodings
  // are hot. Same ordered arithmetic (copy, +=, scale) as the predictor's
  // per-event fallback assembly, so the cached rows are bit-identical to
  // recomputing them at each event.
  const LSchedConfig& cfg = model.config();
  const int d = cfg.hidden_dim;
  const int sd = cfg.summary_dim;
  const int edf_dim = cfg.features.edf_dim();
  const int width = 2 * d + sd + edf_dim;
  const QueryFeatures& q = entry->features;
  const ServingEncodedQuery& enc = entry->enc;
  const int nc = static_cast<int>(entry->candidates.size());
  entry->head_in.Resize(nc, width);
  for (int c = 0; c < nc; ++c) {
    const int op = entry->candidates[static_cast<size_t>(c)].first;
    double* row = entry->head_in.data() +
                  static_cast<size_t>(c) * static_cast<size_t>(width);
    const double* ne = enc.node_emb.data() +
                       static_cast<size_t>(op) * static_cast<size_t>(d);
    std::copy(ne, ne + d, row);
    // Mean in-edge embedding — same ordered sum + scale as the tape path.
    double* ee = row + d;
    const std::vector<int>& edges = q.in_edges[static_cast<size_t>(op)];
    if (edges.empty()) {
      std::fill(ee, ee + d, 0.0);
    } else {
      for (size_t k = 0; k < edges.size(); ++k) {
        const double* erow =
            enc.edge_emb.data() +
            static_cast<size_t>(edges[k]) * static_cast<size_t>(d);
        if (k == 0) {
          std::copy(erow, erow + d, ee);
        } else {
          for (int j = 0; j < d; ++j) ee[j] += erow[j];
        }
      }
      const double inv = 1.0 / static_cast<double>(edges.size());
      for (int j = 0; j < d; ++j) ee[j] *= inv;
    }
    std::copy(enc.pqe.data(), enc.pqe.data() + sd, row + 2 * d);
    const Matrix edf_agg = EdfAggregate(q, op, edf_dim);
    std::copy(edf_agg.data(), edf_agg.data() + edf_dim, row + 2 * d + sd);
  }
  entry->encoded = true;
}

const EncodingCache::Entry& EncodingCache::Get(const QueryState& q,
                                               uint64_t version,
                                               const LSchedModel& model,
                                               const FeatureExtractor& extractor,
                                               ScratchArena* arena) {
  Entry& e = GetStructural(q, version, model, extractor);
  EnsureEncoded(&e, model, arena);
  return e;
}

void EncodingCache::Clear() {
  entries_.clear();
  hits_ = 0;
  misses_ = 0;
}

void EncodingCache::Trim(const std::vector<QueryState*>& live) {
  for (auto it = entries_.begin(); it != entries_.end();) {
    bool found = false;
    for (const QueryState* q : live) {
      if (q->id() == it->first) {
        found = true;
        break;
      }
    }
    it = found ? std::next(it) : entries_.erase(it);
  }
}

EncodedState EncodeState(LSchedModel* model, const StateFeatures& state,
                         Tape* tape) {
  std::vector<EncodedQuery> queries;
  queries.reserve(state.queries.size());
  for (const QueryFeatures& q : state.queries) {
    queries.push_back(EncodeQuery(model, q, tape));
  }
  return AssembleState(model, state, std::move(queries), tape);
}

EncodedState AssembleState(LSchedModel* model, const StateFeatures& state,
                           std::vector<EncodedQuery> queries, Tape* tape) {
  EncodedState out;
  out.queries = std::move(queries);
  // AQE: summarize concat(PQE, QF) across queries (Fig. 6 bottom), one
  // Linear over all queries' rows. Without queries the sum is zero.
  const int nq = static_cast<int>(state.queries.size());
  Matrix qf_mat(nq, model->config().features.qf_dim());
  std::vector<Var> pqes;
  pqes.reserve(out.queries.size());
  for (int qi = 0; qi < nq; ++qi) {
    const std::vector<double>& qf = state.queries[static_cast<size_t>(qi)].qf;
    std::copy(qf.begin(), qf.end(),
              qf_mat.data() + static_cast<size_t>(qi) *
                                  static_cast<size_t>(qf_mat.cols()));
    pqes.push_back(out.queries[static_cast<size_t>(qi)].pqe);
  }
  Var sum;
  if (nq == 0) {
    sum = tape->Constant(Matrix(1, model->config().summary_dim, 0.0));
  } else {
    const Var cat = tape->ConcatCols(
        {tape->ConcatRows(pqes), tape->Constant(std::move(qf_mat))});
    sum = tape->SumRows(tape->Relu(model->aqe_in.Forward(tape, cat)));
  }
  out.aqe = model->aqe_out.Forward(tape, sum);
  return out;
}

}  // namespace lsched
