#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <utility>

#include "core/agent.h"
#include "core/online.h"
#include "core/trainer.h"
#include "exec/real_engine.h"
#include "plan/plan_builder.h"
#include "sched/decima.h"
#include "sched/heuristics.h"
#include "sched/selftune.h"
#include "storage/table_generator.h"
#include "workload/workload.h"

namespace lsched {
namespace {

LSchedConfig TinyConfig() {
  LSchedConfig cfg;
  cfg.hidden_dim = 8;
  cfg.summary_dim = 8;
  cfg.head_hidden = 8;
  return cfg;
}

SimEngineConfig TinyEngine() {
  SimEngineConfig cfg;
  cfg.num_threads = 6;
  return cfg;
}

TEST(IntegrationTest, AllSchedulersOnSameWorkloadProduceFiniteResults) {
  SimEngine engine(TinyEngine());
  WorkloadConfig wcfg;
  wcfg.benchmark = Benchmark::kTpch;
  wcfg.num_queries = 8;
  wcfg.scale_factors = {2, 5};
  Rng rng(101);
  const auto workload = GenerateWorkload(wcfg, &rng);

  LSchedModel lsched_model(TinyConfig());
  LSchedAgent lsched(&lsched_model);
  DecimaModel decima_model(DecimaConfig{});
  DecimaScheduler decima(&decima_model);
  FifoScheduler fifo;
  FairScheduler fair;
  SjfScheduler sjf;
  SelfTuneScheduler selftune;
  QuickstepScheduler quickstep;
  CriticalPathScheduler cp;
  std::vector<Scheduler*> all = {&lsched, &decima,    &fifo, &fair,
                                 &sjf,    &selftune, &quickstep, &cp};
  for (Scheduler* s : all) {
    const EpisodeResult r = engine.Run(workload, s);
    EXPECT_EQ(r.query_latencies.size(), workload.size()) << s->name();
    EXPECT_TRUE(std::isfinite(r.avg_latency)) << s->name();
    EXPECT_GE(r.p90_latency, r.avg_latency * 0.5) << s->name();
  }
}

TEST(IntegrationTest, TrainingImprovesOverRandomInitOnFixedWorkload) {
  // Train briefly on tiny SSB episodes, then compare greedy inference
  // before/after on a held-out workload. With few episodes this is noisy,
  // so only require the trained agent not to be dramatically worse.
  SimEngine engine(TinyEngine());
  WorkloadConfig wcfg;
  wcfg.benchmark = Benchmark::kSsb;
  wcfg.split = WorkloadSplit::kTest;
  wcfg.num_queries = 8;
  wcfg.scale_factors = {2};
  Rng rng(7);
  const auto test_workload = GenerateWorkload(wcfg, &rng);

  LSchedModel model(TinyConfig());
  LSchedAgent before_agent(&model);
  const double before =
      engine.Run(test_workload, &before_agent).avg_latency;

  TrainConfig tcfg;
  tcfg.episodes = 5;
  ReinforceTrainer trainer(&model, &engine, tcfg);
  trainer.Train(MakeEpisodeFactory(Benchmark::kSsb, 4, 8, 0.05, 0.15, {2}));

  LSchedAgent after_agent(&model);
  const double after = engine.Run(test_workload, &after_agent).avg_latency;
  EXPECT_TRUE(std::isfinite(after));
  EXPECT_LT(after, before * 3.0);
}

TEST(IntegrationTest, TransferLearningWorkflow) {
  // Train a source model on SSB, transfer into a fresh model, freeze, and
  // continue training — the §6 workflow end to end.
  SimEngine engine(TinyEngine());
  LSchedModel source(TinyConfig());
  TrainConfig tcfg;
  tcfg.episodes = 2;
  ReinforceTrainer src_trainer(&source, &engine, tcfg);
  src_trainer.Train(MakeEpisodeFactory(Benchmark::kSsb, 4, 6, 0.05, 0.1, {2}));

  LSchedModel target(TinyConfig());
  const int copied = target.params()->CopyValuesFrom(*source.params());
  EXPECT_EQ(copied, static_cast<int>(target.params()->size()));
  const int frozen = target.FreezeForTransfer();
  EXPECT_GT(frozen, 0);

  const AlignedVector frozen_before =
      target.params()->Find("encoder/conv0/w_self")->value.raw();
  ReinforceTrainer tgt_trainer(&target, &engine, tcfg);
  tgt_trainer.Train(
      MakeEpisodeFactory(Benchmark::kTpch, 4, 6, 0.05, 0.1, {2}));
  // Frozen layers unchanged; trainable boundary layers updated.
  EXPECT_EQ(target.params()->Find("encoder/conv0/w_self")->value.raw(),
            frozen_before);
}

TEST(IntegrationTest, ModelCheckpointServesAfterReload) {
  SimEngine engine(TinyEngine());
  LSchedModel model(TinyConfig());
  TrainConfig tcfg;
  tcfg.episodes = 2;
  ReinforceTrainer trainer(&model, &engine, tcfg);
  trainer.Train(MakeEpisodeFactory(Benchmark::kSsb, 3, 5, 0.05, 0.1, {2}));
  const std::string path = "/tmp/lsched_integration_ckpt.bin";
  ASSERT_TRUE(model.Save(path).ok());

  LSchedModel reloaded(TinyConfig());
  ASSERT_TRUE(reloaded.Load(path).ok());
  std::remove(path.c_str());

  WorkloadConfig wcfg;
  wcfg.benchmark = Benchmark::kSsb;
  wcfg.num_queries = 4;
  wcfg.scale_factors = {2};
  Rng rng(9);
  const auto workload = GenerateWorkload(wcfg, &rng);
  LSchedAgent a(&model), b(&reloaded);
  const EpisodeResult ra = engine.Run(workload, &a);
  const EpisodeResult rb = engine.Run(workload, &b);
  // Greedy agents with identical weights act identically.
  ASSERT_EQ(ra.query_latencies.size(), rb.query_latencies.size());
  for (size_t i = 0; i < ra.query_latencies.size(); ++i) {
    EXPECT_DOUBLE_EQ(ra.query_latencies[i], rb.query_latencies[i]);
  }
}

TEST(IntegrationTest, LearnedAgentDrivesRealEngine) {
  // The same LSched agent that schedules the simulator drives real kernel
  // execution through the identical Scheduler interface.
  auto catalog = std::make_unique<Catalog>();
  Rng rng(12);
  TableSpec dim;
  dim.name = "dim";
  dim.num_rows = 600;
  dim.block_capacity = 128;
  dim.columns = {
      {"k", DataType::kInt64, ColumnDistribution::kSequential, 0, 0, 0},
      {"w", DataType::kDouble, ColumnDistribution::kUniformReal, 0, 1, 0}};
  TableSpec fact;
  fact.name = "fact";
  fact.num_rows = 2400;
  fact.block_capacity = 128;
  fact.columns = {
      {"fk", DataType::kInt64, ColumnDistribution::kForeignKey, 0, 600, 0},
      {"val", DataType::kDouble, ColumnDistribution::kUniformReal, 0, 1, 0}};
  ASSERT_TRUE(catalog->AddRelation(GenerateTable(dim, &rng)).ok());
  ASSERT_TRUE(catalog->AddRelation(GenerateTable(fact, &rng)).ok());

  PlanBuilder b(catalog.get());
  PlanBuilder::NodeOptions build_opts;
  build_opts.kernel.build_key = 0;
  const int dscan = b.AddSource(OperatorType::kTableScan, 0, {});
  const int build = b.AddOp(OperatorType::kBuildHash, {dscan}, build_opts);
  PlanBuilder::NodeOptions probe_opts;
  probe_opts.kernel.probe_key = 0;
  const int fscan = b.AddSource(OperatorType::kTableScan, 1, {});
  b.AddOp(OperatorType::kProbeHash, {fscan, build}, probe_opts);
  auto plan = b.Build();
  ASSERT_TRUE(plan.ok());

  LSchedModel model(TinyConfig());
  LSchedAgent agent(&model);
  RealEngineConfig cfg;
  cfg.num_threads = 3;
  cfg.chunk_rows = 128;
  RealEngine engine(catalog.get(), cfg);
  std::vector<RealQuerySubmission> workload;
  workload.push_back({*plan, 0.0});
  workload.push_back({*plan, 0.0});
  const RealRunResult result = engine.Run(workload, &agent);
  ASSERT_EQ(result.episode.query_latencies.size(), 2u);
  // Every fact row joins exactly one dim row.
  EXPECT_EQ(result.sink_row_counts[0], 2400);
  EXPECT_EQ(result.sink_row_counts[1], 2400);
}

// ---------------------------------------------------------------------------
// The chunked, memoized policy-gradient replay against the per-decision one
// ---------------------------------------------------------------------------

/// The replay the chunked one replaces: a fresh tape per decision, every
/// query re-encoded, one Backward per decision. Leaves the gradient in
/// `model`'s param grads.
void PerDecisionGradient(LSchedModel* model,
                         const std::vector<Experience>& experiences,
                         const std::vector<double>& advantages,
                         double entropy_coef) {
  model->params()->ZeroGrads();
  const double scale = 1.0 / static_cast<double>(experiences.size());
  for (size_t d = 0; d < experiences.size(); ++d) {
    const Experience& exp = experiences[d];
    if (exp.state.candidates.empty()) continue;
    Tape tape;
    const EncodedState encoded = EncodeState(model, exp.state, &tape);
    const PredictorOutput out = RunPredictor(model, exp.state, encoded, &tape);
    Var loss =
        tape.Scale(ActionLogProb(&tape, out, exp.action), -advantages[d]);
    if (entropy_coef > 0.0) {
      loss = tape.Add(loss, tape.Scale(ActionEntropy(&tape, out, exp.action),
                                       -entropy_coef));
    }
    tape.Backward(loss, scale);
  }
}

/// Query encodings a kDecisionsPerTape-chunked replay can reuse: repeats
/// of a (query id, version) key within a chunk.
int ChunkRepeats(const std::vector<Experience>& experiences) {
  int repeats = 0;
  for (size_t begin = 0; begin < experiences.size();
       begin += kDecisionsPerTape) {
    std::set<std::pair<QueryId, uint64_t>> seen;
    const size_t end =
        std::min(experiences.size(), begin + kDecisionsPerTape);
    for (size_t d = begin; d < end; ++d) {
      const Experience& exp = experiences[d];
      for (size_t qi = 0; qi < exp.versions.size(); ++qi) {
        repeats += seen.insert({exp.state.queries[qi]->qid, exp.versions[qi]})
                           .second
                       ? 0
                       : 1;
      }
    }
  }
  return repeats;
}

/// max |a.grad - b.grad| over max |b.grad|, across all parameters.
double MaxRelativeGradDiff(LSchedModel* a, LSchedModel* b) {
  const std::vector<Param*> pa = a->params()->All();
  const std::vector<Param*> pb = b->params()->All();
  double max_diff = 0.0;
  double max_ref = 0.0;
  for (size_t i = 0; i < pa.size(); ++i) {
    for (size_t k = 0; k < pa[i]->grad.size(); ++k) {
      max_diff = std::max(max_diff, std::fabs(pa[i]->grad.raw()[k] -
                                              pb[i]->grad.raw()[k]));
      max_ref = std::max(max_ref, std::fabs(pb[i]->grad.raw()[k]));
    }
  }
  EXPECT_GT(max_ref, 0.0);
  return max_diff / max_ref;
}

std::vector<QuerySubmission> TpchEpisode() {
  WorkloadConfig wcfg;
  wcfg.benchmark = Benchmark::kTpch;
  wcfg.num_queries = 10;
  wcfg.scale_factors = {2, 5};
  wcfg.mean_interarrival_seconds = 0.02;
  Rng rng(2024);
  return GenerateWorkload(wcfg, &rng);
}

SimEngineConfig WideEngine() {
  SimEngineConfig cfg;
  cfg.num_threads = 16;
  return cfg;
}

TEST(PolicyGradientReplayTest, TrainerUpdateMatchesPerDecisionReplay) {
  LSchedModel model(TinyConfig());
  LSchedModel reference(TinyConfig());  // same seed: the pre-update weights
  SimEngine engine(WideEngine());
  TrainConfig tcfg;
  tcfg.grad_clip = 1e300;  // the update's raw gradient stays in the grads
  ReinforceTrainer trainer(&model, &engine, tcfg);
  trainer.TrainOneEpisode(TpchEpisode());

  const ExperienceManager::StoredEpisode& ep =
      trainer.experience_manager()->latest();
  ASSERT_GT(ep.experiences.size(), static_cast<size_t>(kDecisionsPerTape));
  EXPECT_GT(ChunkRepeats(ep.experiences), 0);
  PerDecisionGradient(&reference, ep.experiences,
                      trainer.experience_manager()->LatestAdvantages(true),
                      tcfg.entropy_coef);
  EXPECT_LE(MaxRelativeGradDiff(&model, &reference), 1e-9);
}

TEST(PolicyGradientReplayTest, OnlineUpdateMatchesPerDecisionReplay) {
  LSchedModel model(TinyConfig());
  LSchedModel reference(TinyConfig());
  const std::vector<QuerySubmission> workload = TpchEpisode();
  OnlineConfig ocfg;
  ocfg.grad_clip = 1e300;
  // One update, at the last completion.
  ocfg.update_every_queries = static_cast<int>(workload.size());
  OnlineLSched online(&model, ocfg);
  SimEngine engine(WideEngine());
  engine.Run(workload, &online);
  ASSERT_EQ(online.num_updates(), 1);

  const ExperienceManager::StoredEpisode& ep =
      online.experience_manager()->latest();
  EXPECT_GT(ChunkRepeats(ep.experiences), 0);
  PerDecisionGradient(&reference, ep.experiences,
                      online.experience_manager()->LatestAdvantages(true),
                      /*entropy_coef=*/0.0);
  EXPECT_LE(MaxRelativeGradDiff(&model, &reference), 1e-9);
}

}  // namespace
}  // namespace lsched
