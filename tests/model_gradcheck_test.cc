// End-to-end numerical gradient checks. LSched: feature matrices -> Query
// Encoder (tree conv + GAT + PQE + AQE) -> Scheduling Predictor -> the
// trainer's per-decision loss (action log-probability plus the entropy
// bonus). Decima: black-box features -> GCN encoder -> node and
// parallelism heads -> action log-probability. Verifies that every layer's
// backward pass (including the GAT softmax, the masked degree head and the
// per-query parallelism rows) is consistent with finite differences.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "core/encoder.h"
#include "core/predictor.h"
#include "exec/query_state.h"
#include "exec/scheduling_context.h"
#include "plan/plan_builder.h"
#include "sched/decima.h"

namespace lsched {
namespace {

/// Three queries of one plan (two scans, a hash build, its probe and an
/// aggregate). Queries 0 and 2 have not scheduled anything; query 2's first
/// scan has some progress, so the two differ. Query 1 has finished its
/// build side and is scanning the probe side, so its one LSched candidate
/// is the probe, with two in-edges, and it has no Decima candidate (its
/// probe waits for the scan to complete).
struct GradCheckContext {
  std::vector<std::unique_ptr<QueryState>> queries;
  SchedulingContext ctx;

  GradCheckContext() {
    PlanBuilder b(nullptr);
    PlanBuilder::NodeOptions a;
    a.input_rows = 20000;
    const int sa = b.AddSource(OperatorType::kSelect, 0, a);
    const int build = b.AddOp(OperatorType::kBuildHash, {sa});
    PlanBuilder::NodeOptions c;
    c.input_rows = 30000;
    const int sb = b.AddSource(OperatorType::kSelect, 1, c);
    const int probe = b.AddOp(OperatorType::kProbeHash, {sb, build});
    b.AddOp(OperatorType::kHashAggregate, {probe});
    auto plan = b.Build();
    EXPECT_TRUE(plan.ok());

    for (int i = 0; i < 3; ++i) {
      queries.push_back(std::make_unique<QueryState>(i, *plan, 0.2 * i));
    }
    QueryState& q1 = *queries[1];
    for (int op : {sa, build}) {
      q1.set_op_scheduled(op, true);
      q1.AdvanceOperator(op, plan->node(op).num_work_orders, 0.01, 1.0);
    }
    q1.set_op_scheduled(sb, true);
    q1.AdvanceOperator(sb, 1.0, 0.01, 1.0);
    EXPECT_EQ(q1.SchedulableOps(), std::vector<int>{probe});
    queries[2]->AdvanceOperator(sa, 2.0, 0.03, 2.0);

    ctx.Reset(1.0);
    for (const auto& q : queries) ctx.AddQuery(q.get());
    for (int i = 0; i < 4; ++i) {
      ThreadInfo t;
      t.id = i;
      if (i == 0) t.last_query = 0;
      ctx.AddThread(t);
    }
  }
};

/// Index of the first candidate of query `query` (read by `query_of`), or
/// -1.
template <typename Candidates, typename QueryOf>
int FirstCandidateOf(const Candidates& candidates, int query,
                     QueryOf query_of) {
  for (size_t c = 0; c < candidates.size(); ++c) {
    if (query_of(candidates[c]) == query) return static_cast<int>(c);
  }
  return -1;
}

class ModelGradCheck : public ::testing::TestWithParam<
                           std::tuple<bool, bool>> {};  // (use_tcn, use_gat)

TEST_P(ModelGradCheck, FullForwardBackwardMatchesFiniteDifferences) {
  const auto [use_tcn, use_gat] = GetParam();
  LSchedConfig cfg;
  cfg.hidden_dim = 4;
  cfg.summary_dim = 4;
  cfg.head_hidden = 4;
  cfg.num_conv_layers = 2;
  cfg.features.num_relations = 4;
  cfg.features.num_columns = 4;
  cfg.features.blocks_downsample = 2;
  cfg.features.max_threads = 4;
  cfg.use_tree_conv = use_tcn;
  cfg.use_gat = use_gat;
  LSchedModel model(cfg);
  GradCheckContext fx;
  const StateFeatures state = FeatureExtractor(cfg.features).Extract(fx.ctx);

  // The second query's probe: its mean-in-EE averages two edges, and its
  // parallelism row is not the first.
  SchedulingAction action;
  action.candidate_index = FirstCandidateOf(
      state.candidates, 1, [](const Candidate& c) { return c.query_index; });
  ASSERT_GE(action.candidate_index, 0);
  action.degree_index = 0;
  action.parallelism_index = 1;

  // The trainer's loss at its default entropy coefficient (0.01).
  auto forward = [&](bool backward) {
    Tape tape;
    const EncodedState enc = EncodeState(&model, state, &tape);
    const PredictorOutput out = RunPredictor(&model, state, enc, &tape);
    EXPECT_EQ(out.par_row[static_cast<size_t>(action.candidate_index)], 1);
    Var loss = tape.Add(
        tape.Scale(ActionLogProb(&tape, out, action), -1.0),
        tape.Scale(ActionEntropy(&tape, out, action), -0.01));
    if (backward) tape.Backward(loss);
    return loss.value().at(0, 0);
  };

  model.params()->ZeroGrads();
  forward(true);

  const double h = 1e-6;
  int checked = 0;
  for (Param* p : model.params()->All()) {
    // Spot-check up to 4 entries per tensor (full sweep is O(minutes)).
    const size_t stride =
        std::max<size_t>(1, p->value.raw().size() / 4);
    for (size_t i = 0; i < p->value.raw().size(); i += stride) {
      const double orig = p->value.raw()[i];
      p->value.raw()[i] = orig + h;
      const double fp = forward(false);
      p->value.raw()[i] = orig - h;
      const double fm = forward(false);
      p->value.raw()[i] = orig;
      const double numeric = (fp - fm) / (2.0 * h);
      EXPECT_NEAR(p->grad.raw()[i], numeric,
                  2e-4 * std::max(1.0, std::fabs(numeric)))
          << p->name << "[" << i << "] tcn=" << use_tcn << " gat=" << use_gat;
      ++checked;
    }
  }
  EXPECT_GT(checked, 50);
}

INSTANTIATE_TEST_SUITE_P(Variants, ModelGradCheck,
                         ::testing::Values(std::make_tuple(true, true),
                                           std::make_tuple(true, false),
                                           std::make_tuple(false, false)));

/// Decima's tape forward, every entry of every parameter: Encode ->
/// Forward -> the chosen (node, parallelism) log-probability.
TEST(DecimaGradCheck, FullForwardBackwardMatchesFiniteDifferences) {
  DecimaConfig cfg;
  cfg.hidden_dim = 4;
  cfg.summary_dim = 4;
  cfg.head_hidden = 4;
  DecimaModel model(cfg);
  GradCheckContext fx;
  const DecimaStateFeatures state = DecimaScheduler::ExtractFeatures(fx.ctx);

  // A candidate of the third query: the second with a candidate, so its
  // parallelism row is row 1.
  const int cand =
      FirstCandidateOf(state.candidates, 2,
                       [](const std::pair<int, int>& c) { return c.first; });
  ASSERT_GE(cand, 0);
  auto forward = [&](bool backward) {
    Tape tape;
    const DecimaEncoded enc = Encode(&model, state, &tape);
    const DecimaForward out = Forward(&model, state, enc, &tape);
    EXPECT_EQ(out.par_row[static_cast<size_t>(cand)], 1);
    Var loss = tape.Scale(
        tape.Add(tape.Pick(out.node_logprobs, 0, cand),
                 tape.Pick(out.par_logprobs,
                           out.par_row[static_cast<size_t>(cand)], 1)),
        -1.0);
    if (backward) tape.Backward(loss);
    return loss.value().at(0, 0);
  };

  model.params()->ZeroGrads();
  forward(true);

  const double h = 1e-6;
  int checked = 0;
  for (Param* p : model.params()->All()) {
    for (size_t i = 0; i < p->value.raw().size(); ++i) {
      const double orig = p->value.raw()[i];
      p->value.raw()[i] = orig + h;
      const double fp = forward(false);
      p->value.raw()[i] = orig - h;
      const double fm = forward(false);
      p->value.raw()[i] = orig;
      const double numeric = (fp - fm) / (2.0 * h);
      EXPECT_NEAR(p->grad.raw()[i], numeric,
                  2e-4 * std::max(1.0, std::fabs(numeric)))
          << p->name << "[" << i << "]";
      ++checked;
    }
  }
  EXPECT_GT(checked, 200);
}

}  // namespace
}  // namespace lsched
