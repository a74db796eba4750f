#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <memory>
#include <set>
#include <vector>

#include "core/agent.h"
#include "core/encoder.h"
#include "core/model.h"
#include "core/predictor.h"
#include "core/reward.h"
#include "core/trainer.h"
#include "plan/plan_builder.h"
#include "sched/heuristics.h"
#include "workload/workload.h"

namespace lsched {
namespace {

Result<QueryPlan> SmallJoinPlan() {
  PlanBuilder b(nullptr);
  PlanBuilder::NodeOptions a;
  a.input_rows = 20000;
  const int sa = b.AddSource(OperatorType::kSelect, 0, a);
  b.AddUsedColumn(sa, 3);
  const int build = b.AddOp(OperatorType::kBuildHash, {sa});
  PlanBuilder::NodeOptions c;
  c.input_rows = 40000;
  const int sb = b.AddSource(OperatorType::kSelect, 1, c);
  const int probe = b.AddOp(OperatorType::kProbeHash, {sb, build});
  b.AddOp(OperatorType::kHashAggregate, {probe});
  return b.Build();
}

/// Builds a 2-query SchedulingContext over live QueryStates.
struct StateFixture {
  StateFixture() {
    auto p1 = SmallJoinPlan();
    auto p2 = SmallJoinPlan();
    q1 = std::make_unique<QueryState>(0, std::move(p1).value(), 0.0);
    q2 = std::make_unique<QueryState>(1, std::move(p2).value(), 0.5);
    ctx.Reset(1.0);
    ctx.AddQuery(q1.get());
    ctx.AddQuery(q2.get());
    for (int i = 0; i < 8; ++i) {
      ThreadInfo t;
      t.id = i;
      if (i == 1) t.last_query = 1;
      ctx.AddThread(t);
    }
    ctx.SetThreadBusy(0, 0);
  }
  std::unique_ptr<QueryState> q1, q2;
  SchedulingContext ctx;
};

TEST(FeaturesTest, DimensionsMatchConfig) {
  FeatureConfig cfg;
  EXPECT_EQ(cfg.opf_dim(),
            kNumOperatorTypes + cfg.num_relations + cfg.num_columns +
                cfg.blocks_downsample + 6);
  EXPECT_EQ(cfg.edf_dim(), 2);
  EXPECT_EQ(cfg.qf_dim(), 2 + cfg.max_threads);
}

TEST(FeaturesTest, ExtractProducesConsistentShapes) {
  StateFixture fx;
  FeatureConfig cfg;
  FeatureExtractor extractor(cfg);
  const StateFeatures f = extractor.Extract(fx.ctx);
  ASSERT_EQ(f.queries.size(), 2u);
  EXPECT_EQ(f.total_threads, 8);
  EXPECT_EQ(f.free_threads, 7);
  ASSERT_EQ(f.qf.size(), f.queries.size());
  for (size_t qi = 0; qi < f.queries.size(); ++qi) {
    const QueryFeatures& q = *f.queries[qi];
    EXPECT_EQ(q.opf.rows(), q.num_nodes);
    EXPECT_EQ(q.opf.cols(), cfg.opf_dim());
    EXPECT_EQ(q.structure->edf.cols(), cfg.edf_dim());
    EXPECT_EQ(f.qf[qi].size(), static_cast<size_t>(cfg.qf_dim()));
  }
  // Both queries have 2 schedulable sources each.
  EXPECT_EQ(f.candidates.size(), 4u);
}

TEST(FeaturesTest, OperatorTypeOneHot) {
  StateFixture fx;
  FeatureExtractor extractor(FeatureConfig{});
  const QueryFeatures q = extractor.ExtractQueryStructural(*fx.q1);
  // Node 0 is a Select.
  const int select_idx = static_cast<int>(OperatorType::kSelect);
  EXPECT_DOUBLE_EQ(q.opf.at(0, select_idx), 1.0);
  double onehot_sum = 0.0;
  for (int t = 0; t < kNumOperatorTypes; ++t) {
    onehot_sum += q.opf.at(0, t);
  }
  EXPECT_DOUBLE_EQ(onehot_sum, 1.0);
}

TEST(FeaturesTest, QLocalityReflectsThreadHistory) {
  StateFixture fx;
  FeatureExtractor extractor(FeatureConfig{});
  std::vector<double> qf;
  extractor.ExtractQf(*fx.q2, fx.ctx, &qf);
  // Thread 1 last ran query 1 => its Q-LOC bit is set.
  EXPECT_DOUBLE_EQ(qf[2 + 1], 1.0);
  EXPECT_DOUBLE_EQ(qf[2 + 0], 0.0);
}

TEST(FeaturesTest, EdfEncodesPipelineBreaking) {
  StateFixture fx;
  FeatureExtractor extractor(FeatureConfig{});
  const QueryFeatures q = extractor.ExtractQueryStructural(*fx.q1);
  const QueryPlan& plan = fx.q1->plan();
  for (size_t e = 0; e < plan.num_edges(); ++e) {
    EXPECT_DOUBLE_EQ(q.structure->edf.at(static_cast<int>(e), 0),
                     plan.edge(static_cast<int>(e)).pipeline_breaking ? 0.0
                                                                      : 1.0);
  }
}

LSchedConfig SmallConfig() {
  LSchedConfig cfg;
  cfg.hidden_dim = 8;
  cfg.summary_dim = 8;
  cfg.head_hidden = 8;
  cfg.num_conv_layers = 2;
  return cfg;
}

TEST(EncoderTest, ShapesAndDeterminism) {
  StateFixture fx;
  LSchedModel model(SmallConfig());
  FeatureExtractor extractor(model.config().features);
  const StateFeatures f = extractor.Extract(fx.ctx);
  Tape t1;
  const EncodedState e1 = EncodeState(&model, f, &t1);
  ASSERT_EQ(e1.queries.size(), 2u);
  EXPECT_EQ(e1.queries[0].node_emb.rows(), f.queries[0]->num_nodes);
  EXPECT_EQ(e1.queries[0].pqe.cols(), 8);
  EXPECT_EQ(e1.aqe.cols(), 8);
  Tape t2;
  const EncodedState e2 = EncodeState(&model, f, &t2);
  for (int c = 0; c < 8; ++c) {
    EXPECT_DOUBLE_EQ(e1.aqe.value().at(0, c), e2.aqe.value().at(0, c));
  }
}

TEST(EncoderTest, GcnFallbackDiffersFromTreeConv) {
  StateFixture fx;
  LSchedConfig cfg = SmallConfig();
  LSchedModel tcn_model(cfg);
  cfg.use_tree_conv = false;
  LSchedModel gcn_model(cfg);
  // Same seed => same initial weights; different conv paths => different
  // embeddings.
  FeatureExtractor extractor(cfg.features);
  const StateFeatures f = extractor.Extract(fx.ctx);
  Tape t1, t2;
  const EncodedState a = EncodeState(&tcn_model, f, &t1);
  const EncodedState b = EncodeState(&gcn_model, f, &t2);
  bool any_diff = false;
  for (int c = 0; c < 8; ++c) {
    any_diff |= std::fabs(a.aqe.value().at(0, c) - b.aqe.value().at(0, c)) >
                1e-12;
  }
  EXPECT_TRUE(any_diff);
}

/// The GCN ablation runs each message-passing sweep as one tape node, so
/// the nodes one query adds to the tape do not depend on its plan's size.
TEST(EncoderTest, GcnTapeNodesDoNotDependOnPlanSize) {
  LSchedConfig cfg = SmallConfig();
  cfg.use_tree_conv = false;
  LSchedModel model(cfg);
  WorkloadConfig wcfg;
  wcfg.benchmark = Benchmark::kTpch;
  wcfg.num_queries = 8;
  Rng rng(5);
  std::vector<std::unique_ptr<QueryState>> queries;
  SchedulingContext ctx;
  for (QuerySubmission& sub : GenerateWorkload(wcfg, &rng)) {
    queries.push_back(std::make_unique<QueryState>(
        static_cast<QueryId>(queries.size()), std::move(sub.plan), 0.0));
    ctx.AddQuery(queries.back().get());
  }
  for (int i = 0; i < 4; ++i) ctx.AddThread(ThreadInfo{.id = i});
  const StateFeatures f = FeatureExtractor(cfg.features).Extract(ctx);
  Tape tape;
  EncodeQuery(&model, *f.queries[0], &tape);  // every leaf is on the tape
  std::set<int> sizes;
  std::set<size_t> added;
  for (const std::shared_ptr<const QueryFeatures>& q : f.queries) {
    const size_t before = tape.num_nodes();
    EncodeQuery(&model, *q, &tape);
    sizes.insert(q->num_nodes);
    added.insert(tape.num_nodes() - before);
  }
  EXPECT_GT(sizes.size(), 1u);
  EXPECT_EQ(added.size(), 1u);
}

/// Hand-computed head rows on a four-operator plan: scans 0 and 1 feed a
/// join 2 (edges 0 and 1), which feeds an aggregate 3 (edge 2).
TEST(PredictorTest, AssembleHeadRowsByHand) {
  LSchedConfig cfg = SmallConfig();
  cfg.hidden_dim = 2;
  cfg.summary_dim = 1;
  const LSchedModel model(cfg);
  auto s = std::make_shared<QueryStructure>();
  s->in_edges = {{}, {}, {0, 1}, {2}};
  s->out_edges = {{0}, {1}, {2}, {}};
  s->edf = Matrix(3, 2);
  const double edf[3][2] = {{0.5, 1.0}, {1.5, 0.0}, {4.0, 2.0}};
  for (int e = 0; e < 3; ++e) {
    for (int c = 0; c < 2; ++c) s->edf.at(e, c) = edf[e][c];
  }
  QueryFeatures q;
  q.num_nodes = 4;
  q.structure = s;
  Matrix node_emb(4, 2);
  for (int i = 0; i < 4; ++i) {
    node_emb.at(i, 0) = 10.0 + i;
    node_emb.at(i, 1) = -1.0 - i;
  }
  Matrix edge_emb(3, 2);
  const double ee[3][2] = {{1.0, 6.0}, {3.0, -2.0}, {7.0, 7.0}};
  for (int e = 0; e < 3; ++e) {
    for (int c = 0; c < 2; ++c) edge_emb.at(e, c) = ee[e][c];
  }
  const Matrix pqe(1, 1, 0.25);

  Matrix rows;
  AssembleHeadRows(model, q, node_emb, edge_emb, pqe, {{2, 1}, {0, 3}},
                   &rows);
  ASSERT_EQ(rows.rows(), 2);
  ASSERT_EQ(rows.cols(), 2 + 2 + 1 + 2);
  // The join: its node row, the mean of in-edges 0 and 1, the PQE, and the
  // mean EDF over in-edges 0, 1 and out-edge 2.
  const double join[] = {12.0, -3.0, 2.0, 2.0, 0.25, 2.0, 1.0};
  // The scan: no in-edge gives zeros; its EDF mean is out-edge 0's row.
  const double scan[] = {10.0, -1.0, 0.0, 0.0, 0.25, 0.5, 1.0};
  for (int c = 0; c < rows.cols(); ++c) {
    EXPECT_DOUBLE_EQ(rows.at(0, c), join[c]) << "join column " << c;
    EXPECT_DOUBLE_EQ(rows.at(1, c), scan[c]) << "scan column " << c;
  }
}

TEST(PredictorTest, LogProbsNormalized) {
  StateFixture fx;
  LSchedModel model(SmallConfig());
  FeatureExtractor extractor(model.config().features);
  const StateFeatures f = extractor.Extract(fx.ctx);
  Tape tape;
  const EncodedState enc = EncodeState(&model, f, &tape);
  const PredictorOutput out = RunPredictor(&model, f, enc, &tape);
  double sum = 0.0;
  for (int c = 0; c < out.root_logprobs.cols(); ++c) {
    sum += std::exp(out.root_logprobs.value().at(0, c));
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
  const Matrix& deg = out.degree_logprobs.value();
  ASSERT_EQ(deg.rows(), static_cast<int>(f.candidates.size()));
  for (int i = 0; i < deg.rows(); ++i) {
    double dsum = 0.0;
    for (int c = 0; c < deg.cols(); ++c) dsum += std::exp(deg.at(i, c));
    EXPECT_NEAR(dsum, 1.0, 1e-9);
  }
}

TEST(PredictorTest, InvalidDegreesMasked) {
  StateFixture fx;
  LSchedModel model(SmallConfig());
  FeatureExtractor extractor(model.config().features);
  const StateFeatures f = extractor.Extract(fx.ctx);
  Tape tape;
  const EncodedState enc = EncodeState(&model, f, &tape);
  const PredictorOutput out = RunPredictor(&model, f, enc, &tape);
  const Matrix& deg = out.degree_logprobs.value();
  for (size_t i = 0; i < f.candidates.size(); ++i) {
    const int valid = f.candidates[i].max_degree;
    for (int c = valid; c < deg.cols(); ++c) {
      EXPECT_LT(deg.at(static_cast<int>(i), c), -1e8);
    }
  }
}

TEST(PredictorTest, PipelineAblationForcesDegreeOne) {
  StateFixture fx;
  LSchedConfig cfg = SmallConfig();
  cfg.predict_pipeline = false;
  LSchedModel model(cfg);
  FeatureExtractor extractor(cfg.features);
  const StateFeatures f = extractor.Extract(fx.ctx);
  Tape tape;
  const EncodedState enc = EncodeState(&model, f, &tape);
  const PredictorOutput out = RunPredictor(&model, f, enc, &tape);
  for (size_t i = 0; i < f.candidates.size(); ++i) {
    EXPECT_NEAR(
        std::exp(out.degree_logprobs.value().at(static_cast<int>(i), 0)), 1.0,
        1e-9);
  }
}

TEST(PredictorTest, ActionLogProbSumsThreeHeads) {
  StateFixture fx;
  LSchedModel model(SmallConfig());
  FeatureExtractor extractor(model.config().features);
  const StateFeatures f = extractor.Extract(fx.ctx);
  Tape tape;
  const EncodedState enc = EncodeState(&model, f, &tape);
  const PredictorOutput out = RunPredictor(&model, f, enc, &tape);
  SchedulingAction a;
  a.candidate_index = 0;
  a.degree_index = 0;
  a.parallelism_index = 1;
  const Var lp = ActionLogProb(&tape, out, a);
  const double expected =
      out.root_logprobs.value().at(0, 0) +
      out.degree_logprobs.value().at(0, 0) +
      out.par_logprobs.value().at(out.par_row[0], 1);
  EXPECT_NEAR(lp.value().at(0, 0), expected, 1e-12);
  const Var h = ActionEntropy(&tape, out, a);
  EXPECT_GE(h.value().at(0, 0), 0.0);
}

TEST(AgentTest, ProducesValidDecision) {
  StateFixture fx;
  LSchedModel model(SmallConfig());
  LSchedAgent agent(&model);
  SchedulingEvent event;
  event.type = SchedulingEventType::kQueryArrival;
  const SchedulingDecision d = agent.Schedule(event, fx.ctx);
  ASSERT_EQ(d.pipelines.size(), 1u);
  const PipelineChoice& p = d.pipelines[0];
  QueryState* q = fx.ctx.FindQuery(p.query);
  ASSERT_NE(q, nullptr);
  EXPECT_TRUE(q->IsOpSchedulable(p.root_op));
  EXPECT_GE(p.degree, 1);
  ASSERT_EQ(d.parallelism.size(), 1u);
  EXPECT_GE(d.parallelism[0].max_threads, 1);
  EXPECT_LE(d.parallelism[0].max_threads, 8);
}

TEST(AgentTest, RecordsExperiencesWhenEnabled) {
  StateFixture fx;
  LSchedModel model(SmallConfig());
  LSchedAgent agent(&model);
  agent.set_record_experiences(true);
  agent.set_sample_actions(true);
  SchedulingEvent event;
  agent.Schedule(event, fx.ctx);
  agent.Schedule(event, fx.ctx);
  EXPECT_EQ(agent.experiences().size(), 2u);
  EXPECT_EQ(agent.experiences()[0].num_running_queries, 2);
  agent.Reset();
  EXPECT_TRUE(agent.experiences().empty());
}

TEST(RewardTest, MatchesPaperFormula) {
  const std::vector<DecisionStamp> stamps = {
      {1.0, 2},  // H = 1*2 = 2
      {2.5, 4},  // H = 1.5*4 = 6
      {3.0, 1},  // H = 0.5*1 = 0.5
  };
  RewardConfig cfg;
  cfg.w_avg = 1.0;
  cfg.w_tail = 0.0;
  const std::vector<double> r = ComputeRewards(stamps, cfg);
  ASSERT_EQ(r.size(), 3u);
  EXPECT_DOUBLE_EQ(r[0], -2.0);
  EXPECT_DOUBLE_EQ(r[1], -6.0);
  EXPECT_DOUBLE_EQ(r[2], -0.5);

  // With tail weight, the reward gets the -(H-P) term averaged in.
  RewardConfig cfg2;
  cfg2.w_avg = 0.5;
  cfg2.w_tail = 0.5;
  cfg2.tail_percentile = 90.0;
  const std::vector<double> r2 = ComputeRewards(stamps, cfg2);
  const double p90 = Percentile({2.0, 6.0, 0.5}, 90.0);
  EXPECT_NEAR(r2[1], 0.5 * (-6.0) + 0.5 * (-(6.0 - p90)), 1e-12);
}

TEST(RewardTest, WindowStartOpensTheFirstInterval) {
  // An online window that starts at t = 0.75 charges its first decision
  // from there, not from the start of the run.
  const std::vector<DecisionStamp> stamps = {{1.0, 2}, {2.5, 4}};
  RewardConfig cfg;
  cfg.w_avg = 1.0;
  cfg.w_tail = 0.0;
  const std::vector<double> r = ComputeRewards(stamps, cfg, 0.75, 3.0);
  ASSERT_EQ(r.size(), 2u);
  EXPECT_DOUBLE_EQ(r[0], -0.5);               // 0.25 * 2
  EXPECT_DOUBLE_EQ(r[1], -6.0 - 0.5 * 4.0);   // 1.5 * 4, then the tail
}

TEST(RewardTest, ReturnsAreSuffixSums) {
  const std::vector<double> g = ComputeReturns({1.0, 2.0, 3.0});
  EXPECT_EQ(g, (std::vector<double>{6.0, 5.0, 3.0}));
}

TEST(ExperienceTest, BaselineLearnsAcrossEpisodes) {
  ExperienceManager mgr(0.5);
  mgr.AddEpisode(std::vector<Experience>(2), {10.0, 5.0});
  // First episode: no baseline yet -> advantages equal returns.
  EXPECT_DOUBLE_EQ(mgr.LatestAdvantages(false)[0], 10.0);
  EXPECT_DOUBLE_EQ(mgr.Baseline(0), 10.0);
  mgr.AddEpisode(std::vector<Experience>(2), {20.0, 5.0});
  // Second episode: baseline from episode 1.
  EXPECT_DOUBLE_EQ(mgr.LatestAdvantages(false)[0], 10.0);  // 20 - 10
  EXPECT_DOUBLE_EQ(mgr.LatestAdvantages(false)[1], 0.0);   // 5 - 5
}

TEST(ModelTest, SaveLoadRoundTrip) {
  LSchedModel a(SmallConfig());
  const std::string path = "/tmp/lsched_model_test.bin";
  ASSERT_TRUE(a.Save(path).ok());
  LSchedConfig cfg = SmallConfig();
  cfg.seed = 999;  // different init
  LSchedModel b(cfg);
  ASSERT_TRUE(b.Load(path).ok());
  Param* pa = a.params()->Find("head/root/l0/w");
  Param* pb = b.params()->Find("head/root/l0/w");
  ASSERT_NE(pa, nullptr);
  ASSERT_NE(pb, nullptr);
  EXPECT_EQ(pa->value.raw(), pb->value.raw());
  std::remove(path.c_str());
}

TEST(ModelTest, TransferFreezeKeepsBoundaryLayersTrainable) {
  LSchedModel model(SmallConfig());
  const int frozen = model.FreezeForTransfer();
  EXPECT_GT(frozen, 0);
  // Input projections stay trainable.
  EXPECT_TRUE(model.params()->Find("encoder/proj_node/w")->trainable);
  // Convolution layers are frozen.
  EXPECT_FALSE(model.params()->Find("encoder/conv0/w_self")->trainable);
  // Head output layers stay trainable, hidden layers frozen.
  EXPECT_FALSE(model.params()->Find("head/root/l0/w")->trainable);
  EXPECT_TRUE(model.params()->Find("head/root/l1/w")->trainable);
  model.UnfreezeAll();
  EXPECT_TRUE(model.params()->Find("encoder/conv0/w_self")->trainable);
}

TEST(TrainerTest, EpisodesRunAndParametersMove) {
  LSchedModel model(SmallConfig());
  SimEngineConfig engine_cfg;
  engine_cfg.num_threads = 4;
  SimEngine engine(engine_cfg);
  TrainConfig tcfg;
  tcfg.episodes = 3;
  tcfg.learning_rate = 1e-2;
  ReinforceTrainer trainer(&model, &engine, tcfg);

  const AlignedVector before =
      model.params()->Find("head/root/l1/w")->value.raw();
  auto factory = MakeEpisodeFactory(Benchmark::kSsb, 4, 6, 0.05, 0.1, {2});
  const TrainStats stats = trainer.Train(factory);
  EXPECT_EQ(stats.episode_avg_latency.size(), 3u);
  EXPECT_GT(stats.total_decisions, 0);
  for (double r : stats.episode_reward) EXPECT_TRUE(std::isfinite(r));
  const AlignedVector after =
      model.params()->Find("head/root/l1/w")->value.raw();
  EXPECT_NE(before, after);
}

TEST(TrainerTest, AgentInferenceAfterTrainingCompletesWorkload) {
  LSchedModel model(SmallConfig());
  SimEngineConfig engine_cfg;
  engine_cfg.num_threads = 4;
  SimEngine engine(engine_cfg);
  TrainConfig tcfg;
  tcfg.episodes = 2;
  ReinforceTrainer trainer(&model, &engine, tcfg);
  trainer.Train(MakeEpisodeFactory(Benchmark::kSsb, 4, 6, 0.05, 0.1, {2}));

  LSchedAgent agent(&model);  // greedy mode
  WorkloadConfig wcfg;
  wcfg.benchmark = Benchmark::kSsb;
  wcfg.num_queries = 5;
  wcfg.scale_factors = {2};
  Rng rng(3);
  const EpisodeResult r = engine.Run(GenerateWorkload(wcfg, &rng), &agent);
  EXPECT_EQ(r.query_latencies.size(), 5u);
}

}  // namespace
}  // namespace lsched
