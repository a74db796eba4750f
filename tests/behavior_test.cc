// Pins down the *specific* behaviours of individual schedulers, features,
// and template instantiations (beyond "it completes the workload").
#include <gtest/gtest.h>

#include <cmath>

#include "core/features.h"
#include "exec/scheduling_context.h"
#include "plan/plan_builder.h"
#include "sched/heuristics.h"
#include "sched/selftune.h"
#include "workload/templates.h"

namespace lsched {
namespace {

QueryPlan SingleScanPlan(int64_t rows) {
  PlanBuilder b(nullptr);
  PlanBuilder::NodeOptions opts;
  opts.input_rows = rows;
  b.AddSource(OperatorType::kSelect, 0, opts);
  auto plan = b.Build();
  EXPECT_TRUE(plan.ok());
  return std::move(plan).value();
}

struct TwoQueryFixture {
  TwoQueryFixture(int64_t rows_a, int64_t rows_b)
      : qa(0, SingleScanPlan(rows_a), 0.0),
        qb(1, SingleScanPlan(rows_b), 0.1) {
    ctx.Reset(1.0);
    ctx.AddQuery(&qa);
    ctx.AddQuery(&qb);
    for (int i = 0; i < 4; ++i) ctx.AddThread(ThreadInfo{.id = i});
  }
  QueryState qa, qb;
  SchedulingContext ctx;
};

TEST(SchedulerBehavior, SjfPicksTheShorterQuery) {
  TwoQueryFixture fx(500000, 4096);
  SjfScheduler sjf;
  const SchedulingDecision d = sjf.Schedule({}, fx.ctx);
  ASSERT_FALSE(d.pipelines.empty());
  EXPECT_EQ(d.pipelines[0].query, 1);  // the small one
}

TEST(SchedulerBehavior, HpfUsesStaticPlanCost) {
  TwoQueryFixture fx(500000, 4096);
  HpfScheduler hpf;
  const SchedulingDecision d = hpf.Schedule({}, fx.ctx);
  ASSERT_FALSE(d.pipelines.empty());
  // Priority = 1/(1+plan cost): the cheap query wins.
  EXPECT_EQ(d.pipelines[0].query, 1);
}

TEST(SchedulerBehavior, FifoPicksTheOldestRegardlessOfCost) {
  TwoQueryFixture fx(500000, 4096);  // big query arrived first
  FifoScheduler fifo;
  const SchedulingDecision d = fifo.Schedule({}, fx.ctx);
  ASSERT_FALSE(d.pipelines.empty());
  EXPECT_EQ(d.pipelines[0].query, 0);
}

TEST(SchedulerBehavior, QuickstepCapsProportionalToRemainingWork) {
  TwoQueryFixture fx(400000, 100000);  // 4:1 remaining work orders
  QuickstepScheduler qs;
  const SchedulingDecision d = qs.Schedule({}, fx.ctx);
  int cap_big = -1, cap_small = -1;
  for (const ParallelismChoice& p : d.parallelism) {
    (p.query == 0 ? cap_big : cap_small) = p.max_threads;
  }
  ASSERT_GT(cap_big, 0);
  ASSERT_GT(cap_small, 0);
  EXPECT_GT(cap_big, cap_small);
  EXPECT_NEAR(cap_big, 3, 1);  // ~ 4 threads * 4/5
}

TEST(SchedulerBehavior, SelfTuneSharesDecayWithAttainedService) {
  TwoQueryFixture fx(100000, 100000);
  fx.qa.AddAttainedService(50.0);  // query 0 already consumed a lot
  SelfTuneParams params;
  params.share_exponent = 1.0;
  SelfTuneScheduler st(params);
  const SchedulingDecision d = st.Schedule({}, fx.ctx);
  int cap_a = -1, cap_b = -1;
  for (const ParallelismChoice& p : d.parallelism) {
    (p.query == 0 ? cap_a : cap_b) = p.max_threads;
  }
  EXPECT_LT(cap_a, cap_b);  // the service-hungry query is deprioritized
}

TEST(SchedulerBehavior, FairIgnoresCostWithEqualWeights) {
  TwoQueryFixture fx(500000, 4096);
  FairScheduler fair;
  const SchedulingDecision d = fair.Schedule({}, fx.ctx);
  int cap_a = -1, cap_b = -1;
  for (const ParallelismChoice& p : d.parallelism) {
    (p.query == 0 ? cap_a : cap_b) = p.max_threads;
  }
  EXPECT_EQ(cap_a, cap_b);
}

// ---------------------------------------------------------------------------
// Feature semantics.
TEST(FeatureBehavior, DynamicFeaturesChangeAfterProgress) {
  QueryState q(0, SingleScanPlan(100000), 0.0);
  FeatureExtractor fx((FeatureConfig()));
  const QueryFeatures before = fx.ExtractQueryStructural(q);
  q.set_op_scheduled(0, true);
  q.AdvanceOperator(0, 5.0, 0.2, 100.0);
  const QueryFeatures after = fx.ExtractQueryStructural(q);
  // O-WO ratio (index right after the static prefix) must drop.
  const FeatureConfig cfg;
  const int owo = kNumOperatorTypes + cfg.num_relations + cfg.num_columns +
                  cfg.blocks_downsample;
  EXPECT_LT(after.opf.at(0, owo), before.opf.at(0, owo));
  // Scheduled flag flipped on.
  EXPECT_EQ(after.opf.at(0, cfg.opf_dim() - 2), 1.0);
  // Static one-hots unchanged.
  for (int i = 0; i < owo; ++i) {
    EXPECT_EQ(after.opf.at(0, i), before.opf.at(0, i)) << i;
  }
}

TEST(FeatureBehavior, CandidatesMatchSchedulableOps) {
  auto plan = [&] {
    PlanBuilder b(nullptr);
    PlanBuilder::NodeOptions o;
    o.input_rows = 50000;
    const int s1 = b.AddSource(OperatorType::kSelect, 0, o);
    const int s2 = b.AddSource(OperatorType::kSelect, 1, o);
    const int bh = b.AddOp(OperatorType::kBuildHash, {s1});
    b.AddOp(OperatorType::kProbeHash, {s2, bh});
    auto p = b.Build();
    EXPECT_TRUE(p.ok());
    return std::move(p).value();
  }();
  QueryState q(0, plan, 0.0);
  SchedulingContext ctx;
  ctx.AddQuery(&q);
  ctx.AddThread(ThreadInfo{.id = 0});
  ctx.AddThread(ThreadInfo{.id = 1});
  FeatureExtractor fx((FeatureConfig()));
  const StateFeatures f = fx.Extract(ctx);
  const std::vector<int> ops = q.SchedulableOps();
  ASSERT_EQ(f.candidates.size(), ops.size());
  for (size_t i = 0; i < ops.size(); ++i) {
    EXPECT_EQ(f.candidates[i].op, ops[i]);
    EXPECT_EQ(f.candidates[i].max_degree,
              static_cast<int>(q.ValidPipelineFrom(ops[i]).size()));
  }
}

// ---------------------------------------------------------------------------
// Template instantiation structure (spot checks of the TPCH shapes).
TEST(TemplateBehavior, TpchQ1HasNoJoins) {
  Rng rng(1);
  auto plan = InstantiateTemplate(Benchmark::kTpch, 0, 10, &rng);
  ASSERT_TRUE(plan.ok());
  for (const PlanNode& n : plan->nodes()) {
    EXPECT_NE(n.type, OperatorType::kProbeHash);
    EXPECT_NE(n.type, OperatorType::kBuildHash);
  }
}

TEST(TemplateBehavior, JoinCountMatchesSpec) {
  const auto specs = TemplatesOf(Benchmark::kTpch);
  Rng rng(2);
  for (size_t t = 0; t < specs.size(); ++t) {
    auto plan = InstantiateTemplate(Benchmark::kTpch, specs[t], 10, &rng);
    ASSERT_TRUE(plan.ok());
    int joins = 0;
    for (const PlanNode& n : plan->nodes()) {
      joins += n.type == OperatorType::kProbeHash ||
               n.type == OperatorType::kMergeJoin ||
               n.type == OperatorType::kIndexNestedLoopJoin;
    }
    EXPECT_EQ(joins, static_cast<int>(specs[t].joins.size())) << "Q" << t + 1;
  }
}

TEST(TemplateBehavior, AggregatingTemplatesEndInAggregateOrOrdering) {
  const auto specs = TemplatesOf(Benchmark::kSsb);
  Rng rng(3);
  for (size_t t = 0; t < specs.size(); ++t) {
    auto plan = InstantiateTemplate(Benchmark::kSsb, specs[t], 5, &rng);
    ASSERT_TRUE(plan.ok());
    const std::vector<int> sinks = plan->SinkNodes();
    ASSERT_EQ(sinks.size(), 1u);
    const OperatorType sink_type = plan->node(sinks[0]).type;
    EXPECT_TRUE(sink_type == OperatorType::kFinalizeAggregate ||
                sink_type == OperatorType::kMergeSortedRuns ||
                sink_type == OperatorType::kTopK)
        << OperatorTypeName(sink_type);
  }
}

TEST(TemplateBehavior, IndexScansAreSelective) {
  const auto specs = TemplatesOf(Benchmark::kJob);
  Rng rng(4);
  int index_scans = 0;
  for (int t = 0; t < 20; ++t) {
    auto plan = InstantiateTemplate(Benchmark::kJob,
                                    specs[static_cast<size_t>(t)], 1, &rng);
    ASSERT_TRUE(plan.ok());
    for (const PlanNode& n : plan->nodes()) {
      if (n.type != OperatorType::kIndexScan) continue;
      ++index_scans;
      EXPECT_LT(static_cast<double>(n.est_output_rows),
                0.2 * static_cast<double>(n.est_input_rows) + 1.0);
    }
  }
  EXPECT_GT(index_scans, 0);
}

}  // namespace
}  // namespace lsched
