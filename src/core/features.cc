#include "core/features.h"

#include <algorithm>
#include <cmath>

#include "exec/scheduling_context.h"
#include "plan/operator_type.h"
#include "util/math_util.h"

namespace lsched {

namespace {
inline double Log1pScaled(double v, double scale = 1.0) {
  return std::log1p(std::max(v, 0.0)) * scale;
}
}  // namespace

int FeatureConfig::opf_dim() const {
  return kNumOperatorTypes + num_relations + num_columns + blocks_downsample +
         kMonitorColumns;
}

void FeatureExtractor::ExtractMonitorColumns(const QueryState& q, int op,
                                             double* out) {
  const double remaining = q.RemainingWorkOrders(op);
  const double planned =
      std::max(1.0, static_cast<double>(q.plan().node(op).num_work_orders));
  out[0] = remaining / planned;                              // O-WO ratio
  out[1] = Log1pScaled(remaining, 0.2);                      // O-WO magnitude
  out[2] = Log1pScaled(q.EstimateRemainingSeconds(op));      // O-DUR
  out[3] = Log1pScaled(q.EstimateRemainingMemory(op), 0.1);  // O-MEM
  out[4] = q.op_scheduled(op) ? 1.0 : 0.0;
  out[5] = q.IsOpSchedulable(op) ? 1.0 : 0.0;
}

QueryFeatures FeatureExtractor::ExtractQueryStructural(
    const QueryState& q) const {
  const QueryPlan& plan = q.plan();
  const int n = static_cast<int>(plan.num_nodes());
  QueryFeatures out;
  out.qid = q.id();
  out.num_nodes = n;
  auto s = std::make_shared<QueryStructure>();
  s->topo_order = plan.TopologicalOrder();

  // --- OPF per operator ---------------------------------------------------
  const int width = config_.opf_dim();
  out.opf.Resize(n, width);
  for (int i = 0; i < n; ++i) {
    const PlanNode& node = plan.node(i);
    double* f =
        out.opf.data() + static_cast<size_t>(i) * static_cast<size_t>(width);
    // O-TY: 1-hot operator type.
    f[static_cast<int>(node.type)] = 1.0;
    f += kNumOperatorTypes;
    // O-IN: 1-hot base input relations (hashed into the fixed vocabulary).
    for (RelationId rid : node.base_inputs) {
      f[static_cast<size_t>(rid) % static_cast<size_t>(config_.num_relations)] =
          1.0;
    }
    f += config_.num_relations;
    // O-COLS: 1-hot used columns (hashed).
    for (ColumnId cid : node.used_columns) {
      f[static_cast<size_t>(cid) % static_cast<size_t>(config_.num_columns)] =
          1.0;
    }
    f += config_.num_columns;
    // O-BLCKS: moving-average downsampled block bitmap (Eq. 1).
    const std::vector<double> blocks = MovingAverageDownsample(
        node.block_bitmap, static_cast<size_t>(config_.blocks_downsample));
    std::copy(blocks.begin(), blocks.end(), f);
    f += config_.blocks_downsample;
    // Dynamic features from the execution monitor.
    ExtractMonitorColumns(q, i, f);
  }

  // --- EDF per edge ---------------------------------------------------------
  s->edf.Resize(static_cast<int>(plan.num_edges()), config_.edf_dim());
  for (size_t e = 0; e < plan.num_edges(); ++e) {
    const PlanEdge& edge = plan.edge(static_cast<int>(e));
    // E-NPB: 1 when non-pipeline-breaking; E-DIR: 1 = data flows
    // producer->consumer (always, in our plan orientation; kept for paper
    // fidelity since feature extraction should not assume orientation).
    s->edf.at(static_cast<int>(e), 0) = edge.pipeline_breaking ? 0.0 : 1.0;
    s->edf.at(static_cast<int>(e), 1) = 1.0;
  }

  // --- structure (O-CON): producer slots per node ---------------------------
  s->child_node.assign(plan.num_nodes(), {-1, -1});
  s->child_edge.assign(plan.num_nodes(), {-1, -1});
  s->in_edges.resize(plan.num_nodes());
  s->out_edges.resize(plan.num_nodes());
  for (size_t i = 0; i < plan.num_nodes(); ++i) {
    const PlanNode& node = plan.node(static_cast<int>(i));
    for (int e : node.out_edges) s->out_edges[i].push_back(e);
    // Order producers by estimated total cost (heaviest first) so the two
    // triangle-filter slots see a stable ordering; extra producers beyond
    // two share the second slot via the in_edges aggregation.
    std::vector<std::pair<double, int>> producers;
    for (int e : node.in_edges) {
      s->in_edges[i].push_back(e);
      const PlanNode& p = plan.node(plan.edge(e).producer);
      producers.push_back(
          {static_cast<double>(p.num_work_orders) * p.est_cost_per_wo, e});
    }
    std::sort(producers.begin(), producers.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    for (size_t slot = 0; slot < producers.size() && slot < 2; ++slot) {
      s->child_edge[i][slot] = producers[slot].second;
      s->child_node[i][slot] = plan.edge(producers[slot].second).producer;
    }
  }
  out.structure = std::move(s);
  return out;
}

void FeatureExtractor::ExtractQf(const QueryState& q,
                                 const SchedulingContext& ctx,
                                 std::vector<double>* out) const {
  const std::vector<ThreadInfo>& threads = ctx.threads();
  std::vector<double>& qf = *out;
  qf.assign(static_cast<size_t>(config_.qf_dim()), 0.0);
  const double total_threads = std::max<size_t>(threads.size(), 1);
  qf[0] = static_cast<double>(q.assigned_threads()) / total_threads;  // Q-ATH
  int free_threads = 0;
  for (const ThreadInfo& t : threads) {
    if (!t.busy) ++free_threads;
  }
  qf[1] = static_cast<double>(free_threads) / total_threads;  // Q-FTH
  // Q-LOC: per-thread locality bit (0 past the pool's last thread).
  const size_t tracked =
      std::min(threads.size(), static_cast<size_t>(config_.max_threads));
  for (size_t t = 0; t < tracked; ++t) {
    if (threads[t].last_query == q.id()) qf[2 + t] = 1.0;
  }
}

std::vector<std::pair<int, int>> FeatureExtractor::SchedulableCandidates(
    const QueryState& q) {
  std::vector<std::pair<int, int>> out;
  for (int op : q.SchedulableOps()) {
    out.push_back({op, static_cast<int>(q.ValidPipelineFrom(op).size())});
  }
  return out;
}

StateFeatures FeatureExtractor::Extract(const SchedulingContext& ctx) const {
  StateFeatures out;
  out.time = ctx.now();
  out.total_threads = ctx.total_threads();
  out.free_threads = ctx.num_free_threads();
  out.queries.reserve(ctx.queries().size());
  out.qf.reserve(ctx.queries().size());
  for (size_t qi = 0; qi < ctx.queries().size(); ++qi) {
    const QueryState* q = ctx.queries()[qi];
    out.queries.push_back(
        std::make_shared<const QueryFeatures>(ExtractQueryStructural(*q)));
    out.qf.emplace_back();
    ExtractQf(*q, ctx, &out.qf.back());
    for (const auto& [op, degree] : SchedulableCandidates(*q)) {
      Candidate c;
      c.query_index = static_cast<int>(qi);
      c.op = op;
      c.max_degree = degree;
      out.candidates.push_back(c);
    }
  }
  return out;
}

}  // namespace lsched
