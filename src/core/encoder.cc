#include "core/encoder.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <iterator>

#include "nn/message_passing.h"
#include "obs/metrics.h"
#include "util/logging.h"
#include "util/math_util.h"

namespace lsched {

namespace {

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
/// the terms, (kMaxTerms x d). With `rows`, only those nodes are combined,
/// node rows[r] into row r of `out` (rows.size() x d); each node's result
/// does not depend on which others are combined with it.
void CombineForward(const Producers& p, const CombineWeights& cw,
                    bool use_gat, const Matrix& x, const Matrix& e, Matrix* t,
                    Matrix* out, const std::vector<int>* rows = nullptr) {
  const int d = x.cols();
  Term terms[kMaxTerms];
  double s[kMaxTerms], z[kMaxTerms];
  const int count = rows != nullptr ? static_cast<int>(rows->size()) : x.rows();
  for (int r = 0; r < count; ++r) {
    const int i = rows != nullptr ? (*rows)[static_cast<size_t>(r)] : r;
    const int n = NodeTerms(p, i, cw, use_gat, x.data(), e.data(), d, terms,
                            t->data(), s, z);
    double* combined =
        out->data() + static_cast<size_t>(r) * static_cast<size_t>(d);
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
  const Producers producers{q.structure->child_node.data(),
                            q.structure->child_edge.data()};
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

}  // namespace

EncodedQuery EncodeQuery(LSchedModel* model, const QueryFeatures& q,
                         Tape* tape) {
  const LSchedConfig& cfg = model->config();
  const Var opf = tape->Constant(q.opf);
  const Var edf = tape->Constant(q.structure->edf);

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
    // The "w/o triangle convolution" ablation: Decima-style sequential
    // message passing, whose within-sweep fusion of children into parents
    // is the source of over-smoothing the paper identifies (§4.2.1).
    const QueryStructure& st = *q.structure;
    for (int l = 0; l < cfg.num_conv_layers; ++l) {
      enc.node_emb = MessagePassing(tape, model->gcn_self, model->gcn_child,
                                    st.topo_order, st.child_node,
                                    enc.node_emb);
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

/// One tape-free tree-convolution layer over the listed nodes: the tape
/// encoder's combine routine, then the channel mix as one GEMM over them.
/// Writes their rows of `out`.
void TreeConvRowsServing(const LSchedModel& model,
                         const LSchedModel::ConvLayer& layer,
                         const QueryStructure& s, const Matrix& in,
                         const Matrix& edge_emb, const std::vector<int>& rows,
                         ScratchArena* arena, Matrix* out) {
  CombineWeights cw;
  cw.w = {layer.w_self->value.data(), layer.w_right->value.data(),
          layer.w_left->value.data(), layer.w_eright->value.data(),
          layer.w_eleft->value.data()};
  cw.att = layer.att->value.data();
  const int d = model.config().hidden_dim;
  const int k = static_cast<int>(rows.size());
  Matrix* terms = arena->Alloc(kMaxTerms, d);
  Matrix* combined = arena->Alloc(k, d);
  CombineForward({s.child_node.data(), s.child_edge.data()}, cw,
                 model.config().use_gat, in, edge_emb, terms, combined, &rows);
  Matrix* mixed = arena->Alloc(k, d);
  LinearForwardInto(layer.mix, *combined, mixed);
  ReluInPlace(mixed);
  ScatterRows(*mixed, rows, out);
}

}  // namespace

void ReencodeQueryServing(const LSchedModel& model, const QueryFeatures& q,
                          const std::vector<char>* dirty, ScratchArena* arena,
                          ServingEncodedQuery* enc) {
  const LSchedConfig& cfg = model.config();
  const QueryStructure& s = *q.structure;
  const int n = q.num_nodes;
  const int d = cfg.hidden_dim;
  const int sd = cfg.summary_dim;
  const int opf_dim = cfg.features.opf_dim();
  const int edf_dim = cfg.features.edf_dim();
  const int num_edges = s.edf.rows();
  const int num_layers = cfg.use_tree_conv
                             ? static_cast<int>(model.conv.size())
                             : cfg.num_conv_layers;

  if (dirty == nullptr) {
    // Everything: the shapes, then the parts that depend on the weights
    // and EDF only — edge embeddings and the PQE edge-message sum.
    enc->layer_in.resize(static_cast<size_t>(num_layers));
    for (Matrix& m : enc->layer_in) m.Resize(n, d);
    enc->node_emb.Resize(n, d);
    enc->node_msgs.Resize(n, sd);
    LinearForwardInto(model.proj_edge, s.edf, &enc->edge_emb);
    ReluInPlace(&enc->edge_emb);
    Matrix* edge_cat = arena->Alloc(num_edges, d + edf_dim);
    for (int e = 0; e < num_edges; ++e) {
      double* row = Row(edge_cat, e);
      std::copy(Row(enc->edge_emb, e), Row(enc->edge_emb, e) + d, row);
      std::copy(Row(s.edf, e), Row(s.edf, e) + edf_dim, row + d);
    }
    Matrix* edge_msgs = MlpForward(model.pqe_edge_in, *edge_cat, arena);
    ReluInPlace(edge_msgs);
    SumRowsInto(*edge_msgs, &enc->edge_sum);  // zeros without edges
  }
  std::vector<char> flags =
      dirty != nullptr ? *dirty : std::vector<char>(static_cast<size_t>(n), 1);
  std::vector<int> rows;
  FlaggedRows(flags, &rows);

  // Initial projection of the changed OPF rows.
  Matrix& projected = num_layers > 0 ? enc->layer_in[0] : enc->node_emb;
  if (!rows.empty()) {
    Matrix* ne = arena->Alloc(static_cast<int>(rows.size()), d);
    LinearForwardInto(model.proj_node, GatherRows(q.opf, rows, arena), ne);
    ReluInPlace(ne);
    ScatterRows(*ne, rows, &projected);
  }

  // Stacked convolution layers: a row is recomputed when an input row it
  // reads was.
  for (int l = 0; l < num_layers; ++l) {
    const Matrix& in = enc->layer_in[static_cast<size_t>(l)];
    Matrix* out = l + 1 < num_layers
                      ? &enc->layer_in[static_cast<size_t>(l) + 1]
                      : &enc->node_emb;
    if (cfg.use_tree_conv) {
      std::vector<char> reached = flags;
      for (int i = 0; i < n; ++i) {
        for (int child : s.child_node[static_cast<size_t>(i)]) {
          if (child >= 0 && flags[static_cast<size_t>(child)]) {
            reached[static_cast<size_t>(i)] = 1;
          }
        }
      }
      flags.swap(reached);
      FlaggedRows(flags, &rows);
      if (!rows.empty()) {
        TreeConvRowsServing(model, model.conv[static_cast<size_t>(l)], s, in,
                            enc->edge_emb, rows, arena, out);
      }
    } else {
      MessagePassingForward(model.gcn_self, model.gcn_child, s.topo_order,
                            s.child_node, in, &flags, arena, out);
    }
  }

  // PQE: the node messages of the recomputed rows, then the row sums.
  FlaggedRows(flags, &rows);
  if (!rows.empty()) {
    Matrix* node_cat = arena->Alloc(static_cast<int>(rows.size()), d + opf_dim);
    for (size_t r = 0; r < rows.size(); ++r) {
      double* row = Row(node_cat, static_cast<int>(r));
      std::copy(Row(enc->node_emb, rows[r]), Row(enc->node_emb, rows[r]) + d,
                row);
      std::copy(Row(q.opf, rows[r]), Row(q.opf, rows[r]) + opf_dim, row + d);
    }
    Matrix* node_msgs = MlpForward(model.pqe_node_in, *node_cat, arena);
    ReluInPlace(node_msgs);
    ScatterRows(*node_msgs, rows, &enc->node_msgs);
  }
  Matrix* pqe_cat = arena->Alloc(1, 2 * sd);
  Matrix* node_sum = arena->Alloc(1, sd);
  SumRowsInto(enc->node_msgs, node_sum);
  std::copy(node_sum->data(), node_sum->data() + sd, pqe_cat->data());
  std::copy(enc->edge_sum.data(), enc->edge_sum.data() + sd,
            pqe_cat->data() + sd);
  enc->pqe = *MlpForward(model.pqe_out, *pqe_cat, arena);
}

ServingEncodedQuery EncodeQueryServing(const LSchedModel& model,
                                       const QueryFeatures& q,
                                       ScratchArena* arena) {
  ServingEncodedQuery enc;
  ReencodeQueryServing(model, q, nullptr, arena, &enc);
  return enc;
}

EncodingCache::Entry& EncodingCache::GetStructural(
    const QueryState& q, uint64_t version, const LSchedModel& model,
    const FeatureExtractor& extractor) {
  const uint64_t epoch = model.params().value_epoch();
  if (epoch != params_epoch_) {
    // Parameter values moved (optimizer step / checkpoint load): every
    // cached encoding is stale regardless of query versions; the features
    // are not.
    for (auto& [id, entry] : entries_) {
      entry.encoded = false;
      entry.all_dirty = true;
    }
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
  std::vector<std::pair<int, int>> candidates =
      FeatureExtractor::SchedulableCandidates(q);
  if (candidates != e.candidates) {
    e.candidates = std::move(candidates);
    e.encoded = false;
  }
  if (e.features == nullptr || e.serial != q.serial()) {
    e.serial = q.serial();
    e.all_dirty = true;
    e.encoded = false;
    e.features = std::make_shared<const QueryFeatures>(
        extractor.ExtractQueryStructural(q));
    e.dirty.assign(static_cast<size_t>(e.features->num_nodes), 0);
    return e;
  }
  // A later version: only the monitor columns can have moved. The rows
  // that did are copied into a new object — the old one may be held by
  // recorded Experiences — and flagged for the next encode. With none
  // moved, the entry keeps its object and, if the candidates are the same
  // too, its encoding.
  const QueryFeatures& prev = *e.features;
  const int width = prev.opf.cols();
  std::shared_ptr<QueryFeatures> next;
  double monitor[kMonitorColumns];
  for (int i = 0; i < prev.num_nodes; ++i) {
    FeatureExtractor::ExtractMonitorColumns(q, i, monitor);
    const double* old = Row(prev.opf, i) + (width - kMonitorColumns);
    if (std::memcmp(monitor, old, sizeof(monitor)) == 0) continue;
    if (next == nullptr) next = std::make_shared<QueryFeatures>(prev);
    std::copy(monitor, monitor + kMonitorColumns,
              Row(&next->opf, i) + (width - kMonitorColumns));
    e.dirty[static_cast<size_t>(i)] = 1;
  }
  if (next != nullptr) {
    e.features = std::move(next);
    e.encoded = false;
  }
  return e;
}

void AssembleHeadRows(const LSchedModel& model, const QueryFeatures& q,
                      const Matrix& node_emb, const Matrix& edge_emb,
                      const Matrix& pqe,
                      const std::vector<std::pair<int, int>>& candidates,
                      Matrix* head_in) {
  const LSchedConfig& cfg = model.config();
  const int d = cfg.hidden_dim;
  const int sd = cfg.summary_dim;
  const int edf_dim = cfg.features.edf_dim();
  const QueryStructure& s = *q.structure;
  const int nc = static_cast<int>(candidates.size());
  head_in->Resize(nc, 2 * d + sd + edf_dim);
  for (int c = 0; c < nc; ++c) {
    const int op = candidates[static_cast<size_t>(c)].first;
    double* row = Row(head_in, c);
    std::copy(Row(node_emb, op), Row(node_emb, op) + d, row);
    // Mean in-edge embedding: ordered sum, then one scale.
    double* ee = row + d;
    const std::vector<int>& in = s.in_edges[static_cast<size_t>(op)];
    for (size_t k = 0; k < in.size(); ++k) {
      const double* erow = Row(edge_emb, in[k]);
      if (k == 0) {
        std::copy(erow, erow + d, ee);
      } else {
        AddRowInPlace(ee, erow, d);
      }
    }
    if (!in.empty()) {
      const double inv = 1.0 / static_cast<double>(in.size());
      for (int j = 0; j < d; ++j) ee[j] *= inv;
    }
    std::copy(pqe.data(), pqe.data() + sd, row + 2 * d);
    // EDF aggregate: mean raw EDF over the in- then the out-edges.
    double* agg = row + 2 * d + sd;
    const std::vector<int>& out = s.out_edges[static_cast<size_t>(op)];
    for (int e : in) AddRowInPlace(agg, Row(s.edf, e), edf_dim);
    for (int e : out) AddRowInPlace(agg, Row(s.edf, e), edf_dim);
    const size_t count = in.size() + out.size();
    if (count > 0) {
      for (int j = 0; j < edf_dim; ++j) agg[j] /= static_cast<double>(count);
    }
  }
}

void AssembleHeadRows(const LSchedModel& model, const QueryFeatures& q,
                      const ServingEncodedQuery& enc,
                      const std::vector<std::pair<int, int>>& candidates,
                      Matrix* head_in) {
  AssembleHeadRows(model, q, enc.node_emb, enc.edge_emb, enc.pqe, candidates,
                   head_in);
}

void EncodingCache::EnsureEncoded(Entry* entry, const LSchedModel& model,
                                  ScratchArena* arena) {
  if (entry->encoded) return;
  // Without a dirty row the encoding stands and only the candidates moved.
  if (entry->all_dirty ||
      std::find(entry->dirty.begin(), entry->dirty.end(), 1) !=
          entry->dirty.end()) {
    ReencodeQueryServing(model, *entry->features,
                         entry->all_dirty ? nullptr : &entry->dirty, arena,
                         &entry->enc);
    entry->all_dirty = false;
    std::fill(entry->dirty.begin(), entry->dirty.end(), 0);
  }
  // Pre-assemble the head-input row of every candidate while the encodings
  // are hot.
  AssembleHeadRows(model, *entry->features, entry->enc, entry->candidates,
                   &entry->head_in);
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

const EncodingCache::Entry* EncodingCache::Find(QueryId id) const {
  const auto it = entries_.find(id);
  return it == entries_.end() ? nullptr : &it->second;
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
  for (const std::shared_ptr<const QueryFeatures>& q : state.queries) {
    queries.push_back(EncodeQuery(model, *q, tape));
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
    const std::vector<double>& qf = state.qf[static_cast<size_t>(qi)];
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
