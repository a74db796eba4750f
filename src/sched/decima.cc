#include "sched/decima.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <utility>

#include "nn/autograd.h"
#include "nn/inference.h"
#include "nn/message_passing.h"
#include "nn/replay.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace lsched {

DecimaModel::DecimaModel(DecimaConfig config) : config_(std::move(config)) {
  Rng rng(config_.seed);
  const int d = config_.hidden_dim;
  const int sd = config_.summary_dim;
  proj = Linear(&store_, "decima/proj", kNodeFeatureDim, d, &rng);
  mp_self = Linear(&store_, "decima/mp_self", d, d, &rng);
  mp_child = Linear(&store_, "decima/mp_child", d, d, &rng);
  query_summary = Mlp(&store_, "decima/query_summary", {d, sd, sd}, &rng);
  global_summary = Mlp(&store_, "decima/global_summary", {sd, sd, sd}, &rng);
  node_head = Mlp(&store_, "decima/node_head", {d + sd, config_.head_hidden, 1},
                  &rng);
  par_head =
      Mlp(&store_, "decima/par_head",
          {sd + sd + kQueryFeatureDim, config_.head_hidden,
           static_cast<int>(config_.parallelism_fractions.size())},
          &rng);
}

namespace {

/// Version-cacheable slice of one query: everything except query_features
/// (thread occupancy, which changes every event). All inputs here only move
/// when the query is dirtied — an operator gets scheduled or a work order
/// completes — so the SchedulingContext's per-query version keys a cache.
void ExtractQueryStructuralDecima(const QueryState& q, DecimaQueryFeatures* f,
                                  std::vector<int>* runnable_ops) {
  const QueryPlan& plan = q.plan();
  f->qid = q.id();
  f->num_nodes = static_cast<int>(plan.num_nodes());
  f->topo_order = plan.TopologicalOrder();
  f->child_node.assign(plan.num_nodes(), {-1, -1});
  f->node_features.Resize(f->num_nodes, DecimaModel::kNodeFeatureDim);
  runnable_ops->clear();
  for (size_t i = 0; i < plan.num_nodes(); ++i) {
    const int op = static_cast<int>(i);
    const PlanNode& node = plan.node(op);
    // Black-box task features only: counts, durations, progress. No
    // operator types, columns, or pipelining annotations.
    const double remaining = q.RemainingWorkOrders(op);
    const double planned =
        std::max(1.0, static_cast<double>(node.num_work_orders));
    // Decima's no-pipelining runnability: all producers fully done.
    bool runnable = !q.op_completed(op) && !q.op_scheduled(op);
    for (int e : node.in_edges) {
      if (!q.op_completed(plan.edge(e).producer)) runnable = false;
    }
    double* row = Row(&f->node_features, op);
    row[0] = std::log1p(remaining) * 0.2;
    row[1] = 1.0 - remaining / planned;
    row[2] = std::log1p(q.EstimateRemainingSeconds(op));
    row[3] = q.op_scheduled(op) ? 1.0 : 0.0;
    row[4] = runnable ? 1.0 : 0.0;
    int slot = 0;
    for (int e : node.in_edges) {
      if (slot < 2) {
        f->child_node[i][slot++] = plan.edge(e).producer;
      }
    }
    if (runnable) runnable_ops->push_back(op);
  }
}

}  // namespace

DecimaStateFeatures DecimaScheduler::ExtractFeatures(
    const SchedulingContext& ctx) {
  DecimaStateFeatures out;
  out.time = ctx.now();
  out.total_threads = ctx.total_threads();
  const double total = std::max<double>(1.0, out.total_threads);
  const int free_threads = ctx.num_free_threads();

  std::vector<int> runnable;
  for (size_t qi = 0; qi < ctx.queries().size(); ++qi) {
    const QueryState* q = ctx.queries()[qi];
    DecimaQueryFeatures f;
    ExtractQueryStructuralDecima(*q, &f, &runnable);
    for (int op : runnable) {
      out.candidates.push_back({static_cast<int>(qi), op});
    }
    f.query_features = {static_cast<double>(q->assigned_threads()) / total,
                        static_cast<double>(free_threads) / total};
    out.queries.push_back(std::move(f));
  }
  return out;
}

DecimaEncoded Encode(DecimaModel* model, const DecimaStateFeatures& state,
                     Tape* tape) {
  DecimaEncoded enc;
  const DecimaConfig& cfg = model->config();
  for (const DecimaQueryFeatures& q : state.queries) {
    Var x = tape->Relu(
        model->proj.Forward(tape, tape->Constant(q.node_features)));
    // Sequential message passing: within one iteration, children computed
    // earlier in the topological sweep feed their parents (Decima's scheme
    // — the source of the over-smoothing LSched's TCN avoids, §4.2.1).
    for (int it = 0; it < cfg.num_mp_iterations; ++it) {
      x = MessagePassing(tape, model->mp_self, model->mp_child, q.topo_order,
                         q.child_node, x);
    }
    enc.query_emb.push_back(
        model->query_summary.Forward(tape, tape->SumRows(x)));
    enc.node_emb.push_back(x);
  }
  const Var gsum =
      enc.query_emb.empty()
          ? tape->Constant(Matrix(1, cfg.summary_dim, 0.0))
          : tape->SumRows(tape->ConcatRows(enc.query_emb));
  enc.global_emb = model->global_summary.Forward(tape, gsum);
  return enc;
}

namespace {

/// Decima's head inputs at one state, shared by the tape forward and the
/// serving path: the node head's rows [node embedding | query summary], one
/// per candidate, and the parallelism head's rows [global summary | query
/// summary | query features], one per query with a candidate (candidate c's
/// is row par_row[c]). The per-query inputs are parallel to the state's
/// queries; candidates must come grouped by query in query order.
void AssembleHeadInputs(const std::vector<std::pair<int, int>>& candidates,
                        const std::vector<const Matrix*>& node_emb,
                        const std::vector<const Matrix*>& query_emb,
                        const Matrix& global_emb,
                        const std::vector<const std::vector<double>*>& qf,
                        std::vector<int>* par_row, Matrix* node_in,
                        Matrix* par_in) {
  const int d = node_emb[0]->cols();
  const int sd = global_emb.cols();
  const int rows = GroupRows(
      candidates, [](const std::pair<int, int>& c) { return c.first; },
      par_row);
  node_in->Resize(static_cast<int>(candidates.size()), d + sd);
  par_in->Resize(rows, 2 * sd + DecimaModel::kQueryFeatureDim);
  for (size_t c = 0; c < candidates.size(); ++c) {
    const size_t qi = static_cast<size_t>(candidates[c].first);
    const double* emb = Row(*node_emb[qi], candidates[c].second);
    const Matrix& qe = *query_emb[qi];
    double* nrow = Row(node_in, static_cast<int>(c));
    std::copy(emb, emb + d, nrow);
    std::copy(qe.data(), qe.data() + sd, nrow + d);
    if (c > 0 && (*par_row)[c] == (*par_row)[c - 1]) continue;
    double* prow = Row(par_in, (*par_row)[c]);
    std::copy(global_emb.data(), global_emb.data() + sd, prow);
    std::copy(qe.data(), qe.data() + sd, prow + sd);
    std::copy(qf[qi]->begin(), qf[qi]->end(), prow + 2 * sd);
  }
}

}  // namespace

DecimaForward Forward(DecimaModel* model, const DecimaStateFeatures& state,
                      const DecimaEncoded& enc, Tape* tape) {
  LSCHED_CHECK(!state.candidates.empty());
  const int d = model->config().hidden_dim;
  const int sd = model->config().summary_dim;
  std::vector<const Matrix*> node_emb;
  std::vector<const Matrix*> query_emb;
  std::vector<const std::vector<double>*> qf;
  for (size_t qi = 0; qi < state.queries.size(); ++qi) {
    node_emb.push_back(&enc.node_emb[qi].value());
    query_emb.push_back(&enc.query_emb[qi].value());
    qf.push_back(&state.queries[qi].query_features);
  }
  DecimaForward out;
  Matrix node_in;
  Matrix par_in;
  AssembleHeadInputs(state.candidates, node_emb, query_emb,
                     enc.global_emb.value(), qf, &out.par_row, &node_in,
                     &par_in);

  // The backwards scatter each input row's parts back into the embeddings
  // it copied.
  const Var node_rows = tape->Custom(
      std::move(node_in),
      [cands = state.candidates, node = enc.node_emb, query = enc.query_emb,
       d, sd](Tape* t, Var self) {
        const Matrix& g = t->grad(self.id());
        for (size_t c = 0; c < cands.size(); ++c) {
          const size_t qi = static_cast<size_t>(cands[c].first);
          const double* gr = Row(g, static_cast<int>(c));
          AddRowInPlace(Row(&t->mutable_grad(node[qi]), cands[c].second),
                        gr, d);
          AddRowInPlace(t->mutable_grad(query[qi]).data(), gr + d, sd);
        }
      });
  const Var par_rows = tape->Custom(
      std::move(par_in),
      [cands = state.candidates, par_row = out.par_row, query = enc.query_emb,
       global = enc.global_emb, sd](Tape* t, Var self) {
        const Matrix& g = t->grad(self.id());
        for (size_t c = 0; c < cands.size(); ++c) {
          if (c > 0 && par_row[c] == par_row[c - 1]) continue;
          const double* gr = Row(g, par_row[c]);
          const size_t qi = static_cast<size_t>(cands[c].first);
          AddRowInPlace(t->mutable_grad(global).data(), gr, sd);
          AddRowInPlace(t->mutable_grad(query[qi]).data(), gr + sd, sd);
        }
      });

  out.node_logprobs = tape->LogSoftmaxRows(
      tape->Transpose(model->node_head.Forward(tape, node_rows)));
  out.par_logprobs =
      tape->LogSoftmaxRows(model->par_head.Forward(tape, par_rows));
  return out;
}

namespace {

int SampleSpan(const double* logprobs, int n, Rng* rng) {
  std::vector<double> p(static_cast<size_t>(n));
  for (int c = 0; c < n; ++c) {
    p[static_cast<size_t>(c)] = std::exp(logprobs[c]);
  }
  const size_t idx = rng->WeightedIndex(p);
  return idx >= p.size() ? 0 : static_cast<int>(idx);
}

}  // namespace

DecimaScheduler::DecimaScheduler(DecimaModel* model, uint64_t seed)
    : model_(model), rng_(seed) {}

void DecimaScheduler::Reset() {
  experiences_.clear();
  cache_.clear();
}

DecimaScheduler::CacheEntry& DecimaScheduler::GetCacheEntry(
    const QueryState& q, uint64_t version) {
  CacheEntry& e = cache_[q.id()];
  // Version 0 means the context does not track the query: never trust the
  // cache for it.
  if (e.version == version && version != 0) return e;
  e.version = version;
  ExtractQueryStructuralDecima(q, &e.features, &e.runnable_ops);
  e.encoded = false;
  return e;
}

void DecimaScheduler::EnsureEncoded(CacheEntry* entry) {
  if (entry->encoded) return;
  const DecimaQueryFeatures& q = entry->features;
  Matrix* x = arena_.Alloc(q.num_nodes, model_->config().hidden_dim);
  LinearForwardInto(model_->proj, q.node_features, x);
  ReluInPlace(x);
  for (int it = 0; it < model_->config().num_mp_iterations; ++it) {
    Matrix* next = arena_.Alloc(0, 0);
    MessagePassingForward(model_->mp_self, model_->mp_child, q.topo_order,
                          q.child_node, *x, nullptr, &arena_, next);
    x = next;
  }
  Matrix* sum = arena_.Alloc(0, 0);
  SumRowsInto(*x, sum);
  entry->query_emb = *MlpForward(model_->query_summary, *sum, &arena_);
  entry->node_emb = *x;
  entry->encoded = true;
}

SchedulingDecision DecimaScheduler::Schedule(const SchedulingEvent& event,
                                             const SchedulingContext& ctx) {
  (void)event;
  SchedulingDecision decision;
  arena_.Reset();

  // Online weight updates invalidate every cached embedding.
  const uint64_t epoch = model_->params()->value_epoch();
  if (epoch != params_epoch_) {
    cache_.clear();
    params_epoch_ = epoch;
  }

  const std::vector<QueryState*>& queries = ctx.queries();
  const int total_threads = ctx.total_threads();
  const double total = std::max<double>(1.0, total_threads);
  const int free_threads = ctx.num_free_threads();

  std::vector<CacheEntry*> entries;
  entries.reserve(queries.size());
  std::vector<std::vector<double>> qf(queries.size());
  std::vector<std::pair<int, int>> candidates;
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const QueryState* q = queries[qi];
    CacheEntry& e = GetCacheEntry(*q, ctx.query_version(q->id()));
    entries.push_back(&e);
    qf[qi] = {static_cast<double>(q->assigned_threads()) / total,
              static_cast<double>(free_threads) / total};
    for (int op : e.runnable_ops) {
      candidates.push_back({static_cast<int>(qi), op});
    }
  }
  if (candidates.empty()) return decision;
  // Only now pay for the GCN: the median Decima event has nothing runnable
  // (strict all-producers-complete runnability) and must stay cheap.
  for (CacheEntry* e : entries) EnsureEncoded(e);

  Matrix* node_logprobs = nullptr;
  Matrix* par_logprobs = nullptr;
  std::vector<int> par_row;
  {
    obs::ScopedSpan span("sched.decima.forward", "sched", "candidates",
                         static_cast<int64_t>(candidates.size()));
    static obs::Counter* batch_calls =
        obs::MetricsRegistry::Global().GetCounter("nn.batch_calls");
    static obs::Counter* batch_rows =
        obs::MetricsRegistry::Global().GetCounter("nn.batch_rows");
    batch_calls->Add(1);
    batch_rows->Add(static_cast<double>(candidates.size()));
    const int sd = model_->config().summary_dim;

    // Global summary over the (cached) per-query summaries, summed in query
    // order like the tape's SumRows.
    Matrix* gsum = arena_.Alloc(1, sd);
    for (const CacheEntry* e : entries) {
      AddRowInPlace(gsum->data(), e->query_emb.data(), sd);
    }
    Matrix* global_emb = MlpForward(model_->global_summary, *gsum, &arena_);

    std::vector<const Matrix*> node_emb;
    std::vector<const Matrix*> query_emb;
    std::vector<const std::vector<double>*> qf_rows;
    for (size_t qi = 0; qi < entries.size(); ++qi) {
      node_emb.push_back(&entries[qi]->node_emb);
      query_emb.push_back(&entries[qi]->query_emb);
      qf_rows.push_back(&qf[qi]);
    }
    Matrix* node_in = arena_.Alloc(0, 0);
    Matrix* par_in = arena_.Alloc(0, 0);
    AssembleHeadInputs(candidates, node_emb, query_emb, *global_emb, qf_rows,
                       &par_row, node_in, par_in);

    const int num_cands = static_cast<int>(candidates.size());
    Matrix* scores = MlpForward(model_->node_head, *node_in, &arena_);
    node_logprobs = arena_.Alloc(1, num_cands);
    std::copy(scores->data(), scores->data() + num_cands,
              node_logprobs->data());
    LogSoftmaxRowsInPlace(node_logprobs);
    par_logprobs = MlpForward(model_->par_head, *par_in, &arena_);
    LogSoftmaxRowsInPlace(par_logprobs);
  }

  auto choose = [&](const Matrix& logprobs, int row) {
    const double* lp = Row(logprobs, row);
    return sample_actions_ ? SampleSpan(lp, logprobs.cols(), &rng_)
                           : ArgmaxSpan(lp, logprobs.cols());
  };
  const int cand_idx = choose(*node_logprobs, 0);
  const int par_idx =
      choose(*par_logprobs, par_row[static_cast<size_t>(cand_idx)]);

  decision.score = node_logprobs->at(0, cand_idx);

  const auto& [qi, op] = candidates[static_cast<size_t>(cand_idx)];
  const QueryId qid = entries[static_cast<size_t>(qi)]->features.qid;
  // Degree is always 1: Decima cannot co-schedule pipelined operators.
  decision.pipelines.push_back(PipelineChoice{qid, op, 1});
  const double frac =
      model_->config().parallelism_fractions[static_cast<size_t>(par_idx)];
  decision.parallelism.push_back(ParallelismChoice{
      qid, std::max(1, static_cast<int>(std::lround(
                        frac * static_cast<double>(total_threads))))});

  if (record_experiences_) {
    // The trainer replays through the tape path; cached structural
    // features plus fresh query_features reconstruct a full extraction.
    DecimaExperience exp;
    exp.time = ctx.now();
    exp.num_running_queries = static_cast<int>(queries.size());
    exp.chosen_candidate = cand_idx;
    exp.chosen_parallelism = par_idx;
    exp.state.time = ctx.now();
    exp.state.total_threads = total_threads;
    exp.state.candidates = candidates;
    exp.state.queries.reserve(queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      DecimaQueryFeatures f = entries[i]->features;
      f.query_features = std::move(qf[i]);
      exp.state.queries.push_back(std::move(f));
    }
    experiences_.push_back(std::move(exp));
  }

  if (cache_.size() > queries.size() * 2 + 16) {
    for (auto it = cache_.begin(); it != cache_.end();) {
      bool live = false;
      for (const QueryState* q : queries) {
        if (q->id() == it->first) {
          live = true;
          break;
        }
      }
      it = live ? std::next(it) : cache_.erase(it);
    }
  }
  return decision;
}

namespace {

/// Decima's replay of its recorded decisions: one tape per decision, run
/// in parallel (ReplayUnits), each adding scale * d/dθ of -advantages[d] *
/// log π(node_d, parallelism_d | s_d).
PolicyGradientStats AccumulateDecimaGradient(
    DecimaModel* model, const std::vector<DecimaExperience>& decisions,
    const std::vector<double>& advantages, double scale) {
  PolicyGradientStats stats;
  for (const DecimaExperience& exp : decisions) {
    if (!exp.state.candidates.empty()) ++stats.decisions;
  }
  ReplayUnits(static_cast<int>(decisions.size()), 0, [&](int d, Tape* tape) {
    const DecimaExperience& exp = decisions[static_cast<size_t>(d)];
    if (exp.state.candidates.empty()) return;
    const DecimaEncoded enc = Encode(model, exp.state, tape);
    const DecimaForward out = Forward(model, exp.state, enc, tape);
    const int c = exp.chosen_candidate;
    const Var lp = tape->Add(
        tape->Pick(out.node_logprobs, 0, c),
        tape->Pick(out.par_logprobs, out.par_row[static_cast<size_t>(c)],
                   exp.chosen_parallelism));
    tape->Sweep(tape->Scale(lp, -advantages[static_cast<size_t>(d)]), scale);
  });
  return stats;
}

}  // namespace

DecimaTrainer::DecimaTrainer(DecimaModel* model, SimEngine* engine,
                             int episodes, double learning_rate,
                             uint64_t seed)
    : model_(model),
      engine_(engine),
      episodes_(episodes),
      agent_(model, seed ^ 0x9747b28c),
      // Decima's reward counts average latency only (no tail term).
      learner_(model->params(), learning_rate, TrainConfig{}.grad_clip,
               RewardConfig{.w_avg = 1.0, .w_tail = 0.0}),
      rng_(seed) {
  agent_.set_sample_actions(true);
  agent_.set_record_experiences(true);
}

double DecimaTrainer::TrainOneEpisode(
    const std::vector<QuerySubmission>& workload) {
  agent_.set_sample_actions(true);
  agent_.set_record_experiences(true);
  const EpisodeResult result = engine_->Run(workload, &agent_);
  PolicyGradientUpdate update;
  if (!agent_.experiences().empty()) {
    update = learner_.Update(
        std::move(agent_.experiences()), 0.0, result.makespan,
        [this](const std::vector<DecimaExperience>& decisions,
               const std::vector<double>& advantages, double scale) {
          return AccumulateDecimaGradient(model_, decisions, advantages,
                                          scale);
        });
    agent_.experiences().clear();
  }
  stats_.episode_avg_latency.push_back(result.avg_latency);
  stats_.episode_reward.push_back(update.total_reward);
  stats_.total_decisions += update.replayed.decisions;
  return update.total_reward;
}

TrainStats DecimaTrainer::Train(const WorkloadFactory& factory) {
  for (int ep = 0; ep < episodes_; ++ep) {
    TrainOneEpisode(factory(ep, &rng_));
  }
  return stats_;
}

}  // namespace lsched
