#include <gtest/gtest.h>

#include "exec/query_state.h"
#include "exec/sim_engine.h"
#include "plan/plan_builder.h"
#include "sched/heuristics.h"

namespace lsched {
namespace {

Result<QueryPlan> JoinPlan(int64_t rows_a = 40000, int64_t rows_b = 80000) {
  PlanBuilder b(nullptr);
  PlanBuilder::NodeOptions a_opts;
  a_opts.input_rows = rows_a;
  const int sa = b.AddSource(OperatorType::kSelect, 0, a_opts);
  const int build = b.AddOp(OperatorType::kBuildHash, {sa});
  PlanBuilder::NodeOptions b_opts;
  b_opts.input_rows = rows_b;
  const int sb = b.AddSource(OperatorType::kSelect, 1, b_opts);
  const int probe = b.AddOp(OperatorType::kProbeHash, {sb, build});
  const int agg = b.AddOp(OperatorType::kHashAggregate, {probe});
  b.AddOp(OperatorType::kFinalizeAggregate, {agg});
  return b.Build();
}

TEST(QueryStateTest, InitialSchedulability) {
  auto plan = JoinPlan();
  ASSERT_TRUE(plan.ok());
  QueryState q(0, *plan, 0.0);
  // Only the two source selects are schedulable at the start.
  EXPECT_EQ(q.SchedulableOps(), (std::vector<int>{0, 2}));
  EXPECT_FALSE(q.IsOpSchedulable(3));  // probe blocked on build
}

TEST(QueryStateTest, NonBreakingConsumerSchedulableWhileProducerRuns) {
  auto plan = JoinPlan();
  ASSERT_TRUE(plan.ok());
  QueryState q(0, *plan, 0.0);
  // BuildHash (1) consumes select(0) through a NON-breaking edge: it becomes
  // schedulable as soon as its producer is scheduled (streaming).
  EXPECT_FALSE(q.IsOpSchedulable(1));
  q.set_op_scheduled(0, true);
  EXPECT_TRUE(q.IsOpSchedulable(1));
}

TEST(QueryStateTest, AdvanceCompletesOperator) {
  auto plan = JoinPlan();
  ASSERT_TRUE(plan.ok());
  QueryState q(0, *plan, 0.0);
  const int wos = plan->node(0).num_work_orders;
  q.set_op_scheduled(0, true);
  for (int i = 0; i < wos - 1; ++i) {
    EXPECT_FALSE(q.AdvanceOperator(0, 1.0, 0.01, 100.0));
  }
  EXPECT_TRUE(q.AdvanceOperator(0, 1.0, 0.01, 100.0));
  EXPECT_TRUE(q.op_completed(0));
  EXPECT_FALSE(q.op_scheduled(0));
  EXPECT_DOUBLE_EQ(q.RemainingWorkOrders(0), 0.0);
}

TEST(QueryStateTest, FractionalAdvanceAccumulates) {
  auto plan = JoinPlan();
  ASSERT_TRUE(plan.ok());
  QueryState q(0, *plan, 0.0);
  const double wos = q.RemainingWorkOrders(1);
  for (int i = 0; i < 10; ++i) {
    q.AdvanceOperator(1, wos / 10.0, 0.001, 1.0);
  }
  EXPECT_TRUE(q.op_completed(1));
}

TEST(QueryStateTest, DurationEstimateLearnsFromObservations) {
  auto plan = JoinPlan();
  ASSERT_TRUE(plan.ok());
  QueryState q(0, *plan, 0.0);
  const double optimizer_est = q.EstimateNextWorkOrderSeconds(0);
  EXPECT_DOUBLE_EQ(optimizer_est, plan->node(0).est_cost_per_wo);
  // Feed consistent 0.5s observations; the estimate should move to ~0.5.
  for (int i = 0; i < 5; ++i) q.AdvanceOperator(0, 1.0, 0.5, 10.0);
  EXPECT_NEAR(q.EstimateNextWorkOrderSeconds(0), 0.5, 0.05);
  EXPECT_GT(q.EstimateRemainingSeconds(0), 0.0);
}

TEST(QueryStateTest, ValidPipelineStopsAtUnreadyConsumer) {
  auto plan = JoinPlan();
  ASSERT_TRUE(plan.ok());
  QueryState q(0, *plan, 0.0);
  // From select B (2): probe (3) requires the build (1) completed.
  EXPECT_EQ(q.ValidPipelineFrom(2), (std::vector<int>{2}));
  // Complete the build side.
  q.AdvanceOperator(0, q.RemainingWorkOrders(0), 0.1, 1.0);
  q.AdvanceOperator(1, q.RemainingWorkOrders(1), 0.1, 1.0);
  // Now select B can pipeline into probe and the aggregate.
  EXPECT_EQ(q.ValidPipelineFrom(2), (std::vector<int>{2, 3, 4}));
}

TEST(QueryStateTest, QueryCompletion) {
  auto plan = JoinPlan(100, 100);
  ASSERT_TRUE(plan.ok());
  QueryState q(7, *plan, 1.5);
  EXPECT_FALSE(q.completed());
  for (size_t i = 0; i < plan->num_nodes(); ++i) {
    q.AdvanceOperator(static_cast<int>(i),
                      q.RemainingWorkOrders(static_cast<int>(i)), 0.1, 1.0);
  }
  EXPECT_TRUE(q.completed());
}

std::vector<QuerySubmission> SmallWorkload(int n, bool batch) {
  std::vector<QuerySubmission> out;
  Rng rng(42);
  double t = 0.0;
  for (int i = 0; i < n; ++i) {
    auto plan = JoinPlan(20000 + 5000 * (i % 3), 40000);
    EXPECT_TRUE(plan.ok());
    QuerySubmission sub;
    sub.plan = std::move(plan).value();
    if (!batch) t += rng.Exponential(0.05);
    sub.arrival_time = batch ? 0.0 : t;
    out.push_back(std::move(sub));
  }
  return out;
}

TEST(SimEngineTest, FifoCompletesAllQueries) {
  SimEngineConfig config;
  config.num_threads = 8;
  SimEngine engine(config);
  FifoScheduler fifo;
  const EpisodeResult r = engine.Run(SmallWorkload(6, false), &fifo);
  EXPECT_EQ(r.query_latencies.size(), 6u);
  for (double lat : r.query_latencies) EXPECT_GT(lat, 0.0);
  EXPECT_GT(r.makespan, 0.0);
  EXPECT_GT(r.num_scheduler_invocations, 0);
  EXPECT_GE(r.p90_latency, 0.0);
}

TEST(SimEngineTest, DeterministicForSameSeed) {
  SimEngineConfig config;
  config.num_threads = 4;
  config.seed = 5;
  SimEngine e1(config), e2(config);
  FairScheduler f1, f2;
  const EpisodeResult r1 = e1.Run(SmallWorkload(5, false), &f1);
  const EpisodeResult r2 = e2.Run(SmallWorkload(5, false), &f2);
  ASSERT_EQ(r1.query_latencies.size(), r2.query_latencies.size());
  for (size_t i = 0; i < r1.query_latencies.size(); ++i) {
    EXPECT_DOUBLE_EQ(r1.query_latencies[i], r2.query_latencies[i]);
  }
}

TEST(SimEngineTest, BatchArrivalsAllAtTimeZero) {
  SimEngineConfig config;
  config.num_threads = 8;
  SimEngine engine(config);
  QuickstepScheduler sched;
  const EpisodeResult r = engine.Run(SmallWorkload(5, true), &sched);
  EXPECT_EQ(r.query_latencies.size(), 5u);
}

TEST(SimEngineTest, MoreThreadsFasterMakespan) {
  FairScheduler fair;
  SimEngineConfig slow_cfg;
  slow_cfg.num_threads = 2;
  SimEngineConfig fast_cfg;
  fast_cfg.num_threads = 16;
  SimEngine slow(slow_cfg), fast(fast_cfg);
  const EpisodeResult r_slow = slow.Run(SmallWorkload(8, true), &fair);
  const EpisodeResult r_fast = fast.Run(SmallWorkload(8, true), &fair);
  EXPECT_LT(r_fast.makespan, r_slow.makespan);
}

/// A scheduler that never schedules anything: the engine's fallback guard
/// must still finish every query.
class LazyScheduler : public Scheduler {
 public:
  std::string name() const override { return "Lazy"; }
  SchedulingDecision Schedule(const SchedulingEvent&,
                              const SchedulingContext&) override {
    return {};
  }
};

TEST(SimEngineTest, FallbackGuardPreventsDeadlock) {
  SimEngineConfig config;
  config.num_threads = 4;
  SimEngine engine(config);
  LazyScheduler lazy;
  const EpisodeResult r = engine.Run(SmallWorkload(3, true), &lazy);
  EXPECT_EQ(r.query_latencies.size(), 3u);
  EXPECT_GT(r.num_fallback_decisions, 0);
}

TEST(SimEngineTest, DecisionLogMonotonicTimes) {
  SimEngineConfig config;
  config.num_threads = 8;
  SimEngine engine(config);
  SjfScheduler sjf;
  const EpisodeResult r = engine.Run(SmallWorkload(6, false), &sjf);
  for (size_t i = 1; i < r.decisions.size(); ++i) {
    EXPECT_GE(r.decisions[i].time, r.decisions[i - 1].time);
    EXPECT_GE(r.decisions[i].running_queries, 1);
  }
}

TEST(SimEngineTest, ParallelismCapLimitsConcurrency) {
  // A scheduler that caps every query at 1 thread; with one huge query the
  // makespan must be ~serial, far above the 8-thread fair run.
  class CappedFair : public FairScheduler {
   public:
    SchedulingDecision Schedule(const SchedulingEvent& e,
                                const SchedulingContext& ctx) override {
      SchedulingDecision d = FairScheduler::Schedule(e, ctx);
      for (auto& p : d.parallelism) p.max_threads = 1;
      return d;
    }
  };
  SimEngineConfig config;
  config.num_threads = 8;
  SimEngine engine(config);
  CappedFair capped;
  FairScheduler fair;
  const EpisodeResult r_capped = engine.Run(SmallWorkload(1, true), &capped);
  const EpisodeResult r_fair = engine.Run(SmallWorkload(1, true), &fair);
  EXPECT_GT(r_capped.makespan, r_fair.makespan * 1.5);
}

}  // namespace
}  // namespace lsched
