// End-to-end numerical gradient check of the full LSched network: feature
// matrices -> Query Encoder (tree conv + GAT + PQE + AQE) -> Scheduling
// Predictor -> action log-probability. Verifies that every layer's
// backward pass (including the GAT softmax and the masked degree head)
// is consistent with finite differences.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/encoder.h"
#include "core/predictor.h"
#include "exec/query_state.h"
#include "exec/scheduling_context.h"
#include "plan/plan_builder.h"

namespace lsched {
namespace {

StateFeatures MakeState(const FeatureConfig& fcfg) {
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

  static std::vector<std::unique_ptr<QueryState>> keepalive;
  keepalive.push_back(std::make_unique<QueryState>(0, *plan, 0.0));
  keepalive.push_back(std::make_unique<QueryState>(1, *plan, 0.4));

  SchedulingContext ctx;
  ctx.Reset(1.0);
  ctx.AddQuery(keepalive[keepalive.size() - 2].get());
  ctx.AddQuery(keepalive.back().get());
  for (int i = 0; i < 4; ++i) {
    ThreadInfo t;
    t.id = i;
    if (i == 0) t.last_query = 0;
    ctx.AddThread(t);
  }
  return FeatureExtractor(fcfg).Extract(ctx);
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
  const StateFeatures state = MakeState(cfg.features);
  ASSERT_FALSE(state.candidates.empty());

  SchedulingAction action;
  action.candidate_index = static_cast<int>(state.candidates.size()) - 1;
  action.degree_index = 0;
  action.parallelism_index = 1;

  auto forward = [&](bool backward) {
    Tape tape;
    const EncodedState enc = EncodeState(&model, state, &tape);
    const PredictorOutput out = RunPredictor(&model, state, enc, &tape);
    Var loss = tape.Scale(ActionLogProb(&tape, out, action), -1.0);
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

}  // namespace
}  // namespace lsched
