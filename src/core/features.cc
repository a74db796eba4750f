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
         6;
}

QueryFeatures FeatureExtractor::ExtractQueryStructural(
    const QueryState& q) const {
  const QueryPlan& plan = q.plan();
  QueryFeatures out;
  out.qid = q.id();
  out.num_nodes = static_cast<int>(plan.num_nodes());
  out.topo_order = plan.TopologicalOrder();

  // --- OPF per operator ---------------------------------------------------
  out.opf.reserve(plan.num_nodes());
  for (size_t i = 0; i < plan.num_nodes(); ++i) {
    const PlanNode& node = plan.node(static_cast<int>(i));
    std::vector<double> f;
    f.reserve(static_cast<size_t>(config_.opf_dim()));

    // O-TY: 1-hot operator type.
    for (int t = 0; t < kNumOperatorTypes; ++t) {
      f.push_back(t == static_cast<int>(node.type) ? 1.0 : 0.0);
    }
    // O-IN: 1-hot base input relations (hashed into the fixed vocabulary).
    std::vector<double> in(static_cast<size_t>(config_.num_relations), 0.0);
    for (RelationId rid : node.base_inputs) {
      in[static_cast<size_t>(rid) %
         static_cast<size_t>(config_.num_relations)] = 1.0;
    }
    f.insert(f.end(), in.begin(), in.end());
    // O-COLS: 1-hot used columns (hashed).
    std::vector<double> cols(static_cast<size_t>(config_.num_columns), 0.0);
    for (ColumnId cid : node.used_columns) {
      cols[static_cast<size_t>(cid) %
           static_cast<size_t>(config_.num_columns)] = 1.0;
    }
    f.insert(f.end(), cols.begin(), cols.end());
    // O-BLCKS: moving-average downsampled block bitmap (Eq. 1).
    const std::vector<double> blocks = MovingAverageDownsample(
        node.block_bitmap, static_cast<size_t>(config_.blocks_downsample));
    f.insert(f.end(), blocks.begin(), blocks.end());

    // Dynamic features from the execution monitor.
    const int op = static_cast<int>(i);
    const double remaining = q.RemainingWorkOrders(op);
    const double planned = std::max(1.0, static_cast<double>(node.num_work_orders));
    f.push_back(remaining / planned);                       // O-WO ratio
    f.push_back(Log1pScaled(remaining, 0.2));               // O-WO magnitude
    f.push_back(Log1pScaled(q.EstimateRemainingSeconds(op)));    // O-DUR
    f.push_back(Log1pScaled(q.EstimateRemainingMemory(op), 0.1));  // O-MEM
    f.push_back(q.op_scheduled(op) ? 1.0 : 0.0);
    f.push_back(q.IsOpSchedulable(op) ? 1.0 : 0.0);

    out.opf.push_back(std::move(f));
  }

  // --- EDF per edge ---------------------------------------------------------
  out.edf.reserve(plan.num_edges());
  for (size_t e = 0; e < plan.num_edges(); ++e) {
    const PlanEdge& edge = plan.edge(static_cast<int>(e));
    // E-NPB: 1 when non-pipeline-breaking; E-DIR: 1 = data flows
    // producer->consumer (always, in our plan orientation; kept for paper
    // fidelity since feature extraction should not assume orientation).
    out.edf.push_back({edge.pipeline_breaking ? 0.0 : 1.0, 1.0});
  }

  // --- structure (O-CON): producer slots per node ---------------------------
  out.child_node.assign(plan.num_nodes(), {-1, -1});
  out.child_edge.assign(plan.num_nodes(), {-1, -1});
  out.in_edges.resize(plan.num_nodes());
  out.out_edges.resize(plan.num_nodes());
  for (size_t i = 0; i < plan.num_nodes(); ++i) {
    const PlanNode& node = plan.node(static_cast<int>(i));
    for (int e : node.out_edges) out.out_edges[i].push_back(e);
    // Order producers by estimated total cost (heaviest first) so the two
    // triangle-filter slots see a stable ordering; extra producers beyond
    // two share the second slot via the in_edges aggregation.
    std::vector<std::pair<double, int>> producers;
    for (int e : node.in_edges) {
      out.in_edges[i].push_back(e);
      const PlanNode& p = plan.node(plan.edge(e).producer);
      producers.push_back(
          {static_cast<double>(p.num_work_orders) * p.est_cost_per_wo, e});
    }
    std::sort(producers.begin(), producers.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    for (size_t s = 0; s < producers.size() && s < 2; ++s) {
      out.child_edge[i][s] = producers[s].second;
      out.child_node[i][s] = plan.edge(producers[s].second).producer;
    }
  }

  return out;
}

void FeatureExtractor::ExtractQf(const QueryState& q,
                                 const SchedulingContext& ctx,
                                 std::vector<double>* out) const {
  const std::vector<ThreadInfo>& threads = ctx.threads();
  std::vector<double>& qf = *out;
  qf.clear();
  const double total_threads = std::max<size_t>(threads.size(), 1);
  qf.reserve(static_cast<size_t>(config_.qf_dim()));
  qf.push_back(static_cast<double>(q.assigned_threads()) /
               static_cast<double>(total_threads));  // Q-ATH
  int free_threads = 0;
  for (const ThreadInfo& t : threads) {
    if (!t.busy) ++free_threads;
  }
  qf.push_back(static_cast<double>(free_threads) /
               static_cast<double>(total_threads));  // Q-FTH
  // Q-LOC: per-thread locality bit.
  for (int t = 0; t < config_.max_threads; ++t) {
    if (t < static_cast<int>(threads.size())) {
      qf.push_back(threads[static_cast<size_t>(t)].last_query == q.id()
                       ? 1.0
                       : 0.0);
    } else {
      qf.push_back(0.0);
    }
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
  for (size_t qi = 0; qi < ctx.queries().size(); ++qi) {
    const QueryState* q = ctx.queries()[qi];
    QueryFeatures f = ExtractQueryStructural(*q);
    ExtractQf(*q, ctx, &f.qf);
    out.queries.push_back(std::move(f));
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
