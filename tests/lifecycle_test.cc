#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exec/real_engine.h"
#include "exec/sim_engine.h"
#include "obs/decision_log.h"
#include "plan/plan_builder.h"
#include "sched/guarded_policy.h"
#include "sched/heuristics.h"
#include "storage/table_generator.h"
#include "testing/faultpoint.h"
#include "testing/invariants.h"

namespace lsched {
namespace {

Result<QueryPlan> SmallPlan(int64_t rows = 30000) {
  PlanBuilder b(nullptr);
  PlanBuilder::NodeOptions src;
  src.input_rows = rows;
  const int s = b.AddSource(OperatorType::kSelect, 0, src);
  const int agg = b.AddOp(OperatorType::kHashAggregate, {s});
  b.AddOp(OperatorType::kFinalizeAggregate, {agg});
  return b.Build();
}

std::vector<QuerySubmission> SmallWorkload(int n, double gap = 0.01) {
  std::vector<QuerySubmission> out;
  for (int i = 0; i < n; ++i) {
    auto plan = SmallPlan(20000 + 7000 * (i % 3));
    EXPECT_TRUE(plan.ok());
    QuerySubmission sub;
    sub.plan = std::move(plan).value();
    sub.arrival_time = gap * i;
    out.push_back(std::move(sub));
  }
  return out;
}

struct InjectorCleaner {
  ~InjectorCleaner() { FaultInjector::Global().Clear(); }
};

/// --- the query lifecycle state machine ------------------------------------

TEST(QueryStatusTest, TransitionMatrix) {
  auto plan = SmallPlan();
  ASSERT_TRUE(plan.ok());
  {
    QueryState q(0, *plan, 0.0);
    EXPECT_EQ(q.status(), QueryStatus::kAdmitted);
    EXPECT_TRUE(q.TransitionTo(QueryStatus::kAdmitted));  // same-state no-op
    EXPECT_TRUE(q.TransitionTo(QueryStatus::kRunning));
    EXPECT_FALSE(q.TransitionTo(QueryStatus::kAdmitted));  // no going back
    EXPECT_TRUE(q.TransitionTo(QueryStatus::kDone));
    // Terminal states are absorbing.
    EXPECT_FALSE(q.TransitionTo(QueryStatus::kCancelled));
    EXPECT_FALSE(q.TransitionTo(QueryStatus::kRunning));
    EXPECT_TRUE(q.TransitionTo(QueryStatus::kDone));  // same-state still ok
    EXPECT_EQ(q.status(), QueryStatus::kDone);
  }
  {
    // Cancellation straight out of ADMITTED (pre-run cancel).
    QueryState q(1, *plan, 0.0);
    EXPECT_TRUE(q.TransitionTo(QueryStatus::kCancelled));
    EXPECT_TRUE(IsTerminalStatus(q.status()));
    EXPECT_FALSE(q.TransitionTo(QueryStatus::kFailed));
  }
  EXPECT_STREQ(QueryStatusName(QueryStatus::kAdmitted), "ADMITTED");
  EXPECT_STREQ(QueryStatusName(QueryStatus::kCancelled), "CANCELLED");
}

/// --- cancellation in the simulator ----------------------------------------

TEST(SimCancelTest, MidRunCancelTearsDownPipelinesPromptly) {
  // Reference run: how long does the lone query take untouched?
  SimEngineConfig config;
  config.num_threads = 4;
  double makespan;
  {
    SimEngine engine(config);
    FifoScheduler fifo;
    makespan = engine.Run(SmallWorkload(1), &fifo).makespan;
    ASSERT_GT(makespan, 0.0);
  }

  // Same seed, same workload, but cancel mid-run: the query must be torn
  // down at the cancel time, dropping its remaining work.
  config.cancels.push_back({0, makespan * 0.5});
  SimEngine engine(config);
  FifoScheduler fifo;
  ValidatingScheduler validating(&fifo);
  const EpisodeResult r = engine.Run(SmallWorkload(1), &validating);

  EXPECT_TRUE(validating.violations().empty())
      << validating.violations().front();
  ASSERT_EQ(r.final_statuses.size(), 1u);
  EXPECT_EQ(r.final_statuses[0], QueryStatus::kCancelled);
  EXPECT_EQ(r.num_queries_cancelled, 1);
  EXPECT_EQ(r.query_latencies.size(), 0u);  // no latency for a dead query
  // The cancel drops planned-but-unfinished work orders; the engine ends
  // promptly instead of simulating the rest of the query.
  EXPECT_GT(r.num_work_orders_dropped, 0);
  EXPECT_LT(r.num_work_orders_completed, r.num_work_orders_planned);
  EXPECT_LE(r.makespan, makespan);
  const Status ok = ValidateEpisodeResult(r, 1, config.num_threads);
  EXPECT_TRUE(ok.ok()) << ok.ToString();
}

TEST(SimCancelTest, PreArrivalCancelNeverRuns) {
  SimEngineConfig config;
  config.num_threads = 4;
  // Query 1 arrives at t=0.01 but is cancelled at t=0: admit-and-cancel.
  config.cancels.push_back({1, 0.0});
  SimEngine engine(config);
  FifoScheduler fifo;
  ValidatingScheduler validating(&fifo);
  const EpisodeResult r = engine.Run(SmallWorkload(2), &validating);

  EXPECT_TRUE(validating.violations().empty());
  ASSERT_EQ(r.final_statuses.size(), 2u);
  EXPECT_EQ(r.final_statuses[0], QueryStatus::kDone);
  EXPECT_EQ(r.final_statuses[1], QueryStatus::kCancelled);
  // Never launched => nothing planned for it, nothing dropped or discarded.
  EXPECT_EQ(r.num_work_orders_dropped, 0);
  EXPECT_EQ(r.num_work_orders_discarded, 0);
  EXPECT_TRUE(ValidateEpisodeResult(r, 2, config.num_threads).ok());
}

TEST(SimCancelTest, DoubleCancelAndCancelAfterDoneAreNoOps) {
  SimEngineConfig config;
  config.num_threads = 4;
  // Two scripted cancels for the same query, plus a cancel for a query that
  // will long be DONE by then.
  config.cancels.push_back({0, 0.0});
  config.cancels.push_back({0, 0.005});
  config.cancels.push_back({1, 1e7});
  SimEngine engine(config);
  FifoScheduler fifo;
  ValidatingScheduler validating(&fifo);
  const EpisodeResult r = engine.Run(SmallWorkload(2), &validating);

  EXPECT_TRUE(validating.violations().empty());
  ASSERT_EQ(r.final_statuses.size(), 2u);
  EXPECT_EQ(r.final_statuses[0], QueryStatus::kCancelled);
  EXPECT_EQ(r.final_statuses[1], QueryStatus::kDone);
  EXPECT_EQ(r.num_queries_cancelled, 1);  // the double cancel counted once
  EXPECT_TRUE(ValidateEpisodeResult(r, 2, config.num_threads).ok());

  // Cancelling after Run() returned: the query is terminal, so this is a
  // structural no-op.
  EXPECT_FALSE(engine.CancelQuery(0));
  EXPECT_FALSE(engine.CancelQuery(1));
  EXPECT_FALSE(engine.CancelQuery(999));  // unknown query
}

/// --- deadlines and retries -------------------------------------------------

TEST(DeadlineRetryTest, ExpiredAttemptsRetryExactlyMaxRetriesThenFail) {
  // A deadline below any work-order duration: every attempt expires. With
  // one thread the counters are exact: 1 + max_retries attempts for the
  // first work order, then the query FAILs.
  SimEngineConfig config;
  config.num_threads = 1;
  config.work_order_deadline_seconds = 1e-9;
  config.retry.max_retries = 3;
  SimEngine engine(config);
  FifoScheduler fifo;
  ValidatingScheduler validating(&fifo);
  const EpisodeResult r = engine.Run(SmallWorkload(1), &validating);

  EXPECT_TRUE(validating.violations().empty());
  ASSERT_EQ(r.final_statuses.size(), 1u);
  EXPECT_EQ(r.final_statuses[0], QueryStatus::kFailed);
  EXPECT_EQ(r.num_retries, 3);
  EXPECT_EQ(r.num_work_orders_failed, 4);
  EXPECT_EQ(r.num_work_orders_expired, 4);
  EXPECT_EQ(r.num_work_orders_completed, 0);
  EXPECT_TRUE(ValidateEpisodeResult(r, 1, config.num_threads).ok());
}

TEST(DeadlineRetryTest, RetryBackoffDelaysRedispatch) {
  SimEngineConfig config;
  config.num_threads = 1;
  config.work_order_deadline_seconds = 1e-9;
  config.retry.max_retries = 2;
  config.retry.backoff_seconds = 0.5;
  config.retry.backoff_multiplier = 2.0;
  SimEngine engine(config);
  FifoScheduler fifo;
  const EpisodeResult r = engine.Run(SmallWorkload(1), &fifo);

  ASSERT_EQ(r.final_statuses.size(), 1u);
  EXPECT_EQ(r.final_statuses[0], QueryStatus::kFailed);
  // Two backoffs happened (0.5s then 1.0s) before the final failure, so
  // virtual time must have advanced past their sum.
  EXPECT_GE(r.makespan, 1.5);
}

TEST(DeadlineRetryTest, FailingQueryDoesNotWedgeThePool) {
  InjectorCleaner cleaner;
  // Query 0 fails every attempt; query 1 shares the pool and must still
  // finish normally.
  FaultSchedule schedule;
  schedule.seed = 4;
  FaultRule rule;
  rule.point = "work_order_exec";
  rule.query = 0;
  rule.probability = 1.0;
  rule.action = {FaultType::kError, 0.0};
  schedule.rules.push_back(rule);
  FaultInjector::Global().Install(schedule);

  SimEngineConfig config;
  config.num_threads = 2;
  SimEngine engine(config);
  FifoScheduler fifo;
  ValidatingScheduler validating(&fifo);
  const EpisodeResult r = engine.Run(SmallWorkload(2), &validating);

  EXPECT_TRUE(validating.violations().empty());
  ASSERT_EQ(r.final_statuses.size(), 2u);
  EXPECT_EQ(r.final_statuses[0], QueryStatus::kFailed);
  EXPECT_EQ(r.final_statuses[1], QueryStatus::kDone);
  ASSERT_EQ(r.query_latencies.size(), 1u);
  EXPECT_GT(r.query_latencies[0], 0.0);
  EXPECT_TRUE(ValidateEpisodeResult(r, 2, config.num_threads).ok());
}

/// --- GuardedPolicy ----------------------------------------------------------

class ThrowingScheduler : public Scheduler {
 public:
  std::string name() const override { return "Throwing"; }
  SchedulingDecision Schedule(const SchedulingEvent&,
                              const SchedulingContext&) override {
    throw std::runtime_error("model file went missing");
  }
};

/// Emits a parallelism choice for a query id that never existed.
class InvalidScheduler : public Scheduler {
 public:
  std::string name() const override { return "Invalid"; }
  SchedulingDecision Schedule(const SchedulingEvent&,
                              const SchedulingContext&) override {
    SchedulingDecision d;
    ParallelismChoice pc;
    pc.query = 424242;
    pc.max_threads = 4;
    d.parallelism.push_back(pc);
    return d;
  }
};

/// InvalidScheduler's choice, scored the way a learned policy scores its
/// decision.
class ScoredInvalidScheduler : public InvalidScheduler {
 public:
  std::string name() const override { return "ScoredInvalid"; }
  SchedulingDecision Schedule(const SchedulingEvent& event,
                              const SchedulingContext& ctx) override {
    SchedulingDecision d = InvalidScheduler::Schedule(event, ctx);
    d.score = -0.25;
    return d;
  }
};

/// Throws for the first `failures` calls, then behaves like FIFO.
class FlakyScheduler : public Scheduler {
 public:
  explicit FlakyScheduler(int failures) : failures_left_(failures) {}
  std::string name() const override { return "Flaky"; }
  void Reset() override { fifo_.Reset(); }
  SchedulingDecision Schedule(const SchedulingEvent& event,
                              const SchedulingContext& ctx) override {
    if (failures_left_ > 0) {
      --failures_left_;
      throw std::runtime_error("transient failure");
    }
    return fifo_.Schedule(event, ctx);
  }
  void OnQueryCompleted(QueryId query, double latency) override {
    fifo_.OnQueryCompleted(query, latency);
  }

 private:
  int failures_left_;
  FifoScheduler fifo_;
};

TEST(GuardedPolicyTest, ThrowingPolicyDegradesToFifoAndGoesSticky) {
  ThrowingScheduler inner;
  GuardedPolicy::Config gc;
  gc.sticky_after = 3;
  GuardedPolicy guarded(&inner, gc);
  EXPECT_EQ(guarded.name(), "Guarded(Throwing)");

  SimEngineConfig config;
  config.num_threads = 4;
  SimEngine engine(config);
  ValidatingScheduler validating(&guarded);
  const EpisodeResult r = engine.Run(SmallWorkload(3), &validating);

  // Every query completed even though the inner policy never answered once.
  EXPECT_TRUE(validating.violations().empty());
  ASSERT_EQ(r.final_statuses.size(), 3u);
  for (QueryStatus s : r.final_statuses) EXPECT_EQ(s, QueryStatus::kDone);
  EXPECT_GT(guarded.fallback_count(), 0);
  EXPECT_TRUE(guarded.sticky());
  EXPECT_TRUE(ValidateEpisodeResult(r, 3, config.num_threads).ok());
}

TEST(GuardedPolicyTest, InvalidDecisionIsCaughtAndReplaced) {
  InvalidScheduler inner;
  GuardedPolicy guarded(&inner);

  SimEngineConfig config;
  config.num_threads = 4;
  SimEngine engine(config);
  ValidatingScheduler validating(&guarded);
  const EpisodeResult r = engine.Run(SmallWorkload(2), &validating);

  // The invalid choice never reached the engine (the validator would have
  // flagged it), and FIFO kept the workload moving.
  EXPECT_TRUE(validating.violations().empty())
      << validating.violations().front();
  EXPECT_GT(guarded.fallback_count(), 0);
  ASSERT_EQ(r.final_statuses.size(), 2u);
  for (QueryStatus s : r.final_statuses) EXPECT_EQ(s, QueryStatus::kDone);
}

/// When the guard replaces a rejected decision with FIFO's, the decision
/// log must not credit FIFO's choice with the rejected policy's score. Each
/// guarded invocation is one row, marked as a fallback with its reason;
/// the only other rows are the engine's own deadlock-guard fallbacks.
TEST(GuardedPolicyTest, FallbackDecisionCarriesNoInnerScore) {
  obs::SetEnabled(true);
  obs::DecisionLog::Global().Clear();
  ScoredInvalidScheduler inner;
  GuardedPolicy guarded(&inner);

  SimEngineConfig config;
  config.num_threads = 4;
  SimEngine engine(config);
  const EpisodeResult r = engine.Run(SmallWorkload(2), &guarded);

  const std::vector<obs::DecisionRecord> rows =
      obs::DecisionLog::Global().Snapshot();
  EXPECT_EQ(static_cast<int64_t>(rows.size()),
            r.num_scheduler_invocations + r.num_fallback_decisions);
  int guard_rows = 0;
  for (const obs::DecisionRecord& rec : rows) {
    if (rec.event == "fallback") continue;  // the engine's deadlock guard
    ++guard_rows;
    EXPECT_TRUE(rec.fallback) << "decision " << rec.id;
    EXPECT_TRUE(rec.fallback_reason == "invalid_decision" ||
                rec.fallback_reason == "sticky")
        << "decision " << rec.id << " reason " << rec.fallback_reason;
    EXPECT_TRUE(std::isnan(rec.predicted_score))
        << "decision " << rec.id << " logged " << rec.predicted_score;
  }
  EXPECT_EQ(guard_rows, r.num_scheduler_invocations);
  EXPECT_GT(guarded.fallback_count(), 0);
  obs::DecisionLog::Global().Clear();
}

TEST(GuardedPolicyTest, SimulatedDecisionDelayExceedsBudget) {
  InjectorCleaner cleaner;
  // Deterministic slowness: every policy_decide hit injects 1.0s of
  // simulated latency against a 0.5s budget (no real sleeping, so the sim
  // stays deterministic).
  FaultSchedule schedule;
  schedule.seed = 6;
  FaultRule rule;
  rule.point = "policy_decide";
  rule.probability = 1.0;
  rule.action = {FaultType::kDelay, 1.0};
  schedule.rules.push_back(rule);
  FaultInjector::Global().Install(schedule);

  FifoScheduler inner;
  GuardedPolicy::Config gc;
  gc.decision_budget_seconds = 0.5;
  GuardedPolicy guarded(&inner, gc);

  SimEngineConfig config;
  config.num_threads = 4;
  SimEngine engine(config);
  const EpisodeResult r = engine.Run(SmallWorkload(2), &guarded);

  EXPECT_GT(guarded.fallback_count(), 0);
  ASSERT_EQ(r.final_statuses.size(), 2u);
  for (QueryStatus s : r.final_statuses) EXPECT_EQ(s, QueryStatus::kDone);
}

TEST(GuardedPolicyTest, StickyGuardRecoversViaProbe) {
  // Fails the first 6 events (going sticky after 2), then heals. With a
  // probe every 3rd sticky event the guard must eventually probe the healed
  // policy and leave degraded mode.
  FlakyScheduler inner(6);
  GuardedPolicy::Config gc;
  gc.sticky_after = 2;
  gc.probe_interval = 3;
  GuardedPolicy guarded(&inner, gc);

  SimEngineConfig config;
  config.num_threads = 4;
  SimEngine engine(config);
  ValidatingScheduler validating(&guarded);
  const EpisodeResult r = engine.Run(SmallWorkload(8), &validating);

  EXPECT_TRUE(validating.violations().empty());
  ASSERT_EQ(r.final_statuses.size(), 8u);
  for (QueryStatus s : r.final_statuses) EXPECT_EQ(s, QueryStatus::kDone);
  EXPECT_GT(guarded.fallback_count(), 0);
  EXPECT_FALSE(guarded.sticky()) << "guard never recovered from degradation";
  EXPECT_EQ(guarded.consecutive_failures(), 0);
}

/// --- ValidatingScheduler liveness regression (satellite fix) ---------------

/// Returns choices referencing whatever query the test wired in, dead or not.
class DeadPickScheduler : public Scheduler {
 public:
  std::string name() const override { return "DeadPick"; }
  SchedulingDecision Schedule(const SchedulingEvent&,
                              const SchedulingContext&) override {
    SchedulingDecision d;
    PipelineChoice pc;
    pc.query = 0;
    pc.root_op = 0;
    pc.degree = 1;
    d.pipelines.push_back(pc);
    ParallelismChoice par;
    par.query = 0;
    par.max_threads = 2;
    d.parallelism.push_back(par);
    return d;
  }
};

TEST(ValidatingSchedulerTest, FlagsChoicesForDeadQueries) {
  auto plan = SmallPlan();
  ASSERT_TRUE(plan.ok());
  QueryState q(0, *plan, 0.0);
  ASSERT_TRUE(q.TransitionTo(QueryStatus::kCancelled));

  SchedulingContext ctx;
  ctx.Reset(1.0);
  ctx.AddQuery(&q);
  ThreadInfo t;
  t.id = 0;
  ctx.AddThread(t);

  DeadPickScheduler inner;
  ValidatingScheduler validating(&inner);
  SchedulingEvent ev;
  ev.type = SchedulingEventType::kThreadIdle;
  ev.time = 1.0;
  validating.Schedule(ev, ctx);

  // Both the context (terminal query exposed) and the decision (choices
  // naming a dead query) must be flagged.
  bool context_flagged = false, pipeline_flagged = false,
       parallelism_flagged = false;
  for (const std::string& v : validating.violations()) {
    if (v.find("still in context") != std::string::npos &&
        v.find("terminal") != std::string::npos) {
      context_flagged = true;
    }
    if (v.find("pipeline choice for dead query") != std::string::npos) {
      pipeline_flagged = true;
    }
    if (v.find("parallelism choice for dead query") != std::string::npos) {
      parallelism_flagged = true;
    }
  }
  EXPECT_TRUE(context_flagged);
  EXPECT_TRUE(pipeline_flagged);
  EXPECT_TRUE(parallelism_flagged);
}

/// --- RealEngine lifecycle ---------------------------------------------------

std::unique_ptr<Catalog> TinyCatalog(uint64_t seed = 3) {
  auto catalog = std::make_unique<Catalog>();
  Rng rng(seed);
  TableSpec t;
  t.name = "t";
  t.num_rows = 4000;
  t.block_capacity = 256;
  t.columns = {
      {"id", DataType::kInt64, ColumnDistribution::kSequential, 0, 0, 0},
      {"val", DataType::kDouble, ColumnDistribution::kUniformReal, 0, 1, 0}};
  EXPECT_TRUE(catalog->AddRelation(GenerateTable(t, &rng)).ok());
  return catalog;
}

QueryPlan ScanCountPlan(const Catalog& catalog) {
  PlanBuilder b(&catalog);
  PlanBuilder::NodeOptions scan;
  scan.selectivity = 1.0;
  const int src = b.AddSource(OperatorType::kTableScan, 0, scan);
  PlanBuilder::NodeOptions agg;
  agg.kernel.agg_fn = AggFn::kCount;
  agg.kernel.group_by_column = -1;
  agg.kernel.agg_column = 0;
  b.AddOp(OperatorType::kHashAggregate, {src}, agg);
  auto plan = b.Build();
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  return std::move(plan).value();
}

TEST(RealLifecycleTest, CancelledQueryFreesResourcesOthersComplete) {
  auto catalog = TinyCatalog();
  RealEngineConfig cfg;
  cfg.num_threads = 4;
  cfg.chunk_rows = 128;
  // Query 0 is cancelled on admission; query 1 runs to completion. The
  // engine's own end-of-run invariant checks (and ASan/LSan in CI) verify
  // the cancelled query's blocks and execution state were reclaimed.
  cfg.cancels.push_back({0, 0.0});
  RealEngine engine(catalog.get(), cfg);
  std::vector<RealQuerySubmission> workload;
  workload.push_back({ScanCountPlan(*catalog), 0.0});
  workload.push_back({ScanCountPlan(*catalog), 0.0});
  FifoScheduler fifo;
  ValidatingScheduler validating(&fifo);
  const RealRunResult result = engine.Run(workload, &validating);

  EXPECT_TRUE(validating.violations().empty())
      << validating.violations().front();
  ASSERT_EQ(result.episode.final_statuses.size(), 2u);
  EXPECT_EQ(result.episode.final_statuses[0], QueryStatus::kCancelled);
  EXPECT_EQ(result.episode.final_statuses[1], QueryStatus::kDone);
  // Sink output exists only for the completed query.
  EXPECT_EQ(result.sink_row_counts[0], 0);
  EXPECT_EQ(result.sink_row_counts[1], 1);
  EXPECT_DOUBLE_EQ(result.sink_checksums[1], 4000.0);
  const Status ok =
      ValidateEpisodeResult(result.episode, 2, cfg.num_threads);
  EXPECT_TRUE(ok.ok()) << ok.ToString();
}

TEST(RealLifecycleTest, InjectedFaultFailsQueryWithoutWedgingPool) {
  InjectorCleaner cleaner;
  FaultSchedule schedule;
  schedule.seed = 8;
  FaultRule rule;
  rule.point = "work_order_exec";
  rule.query = 0;  // RealEngine probes with the query index
  rule.probability = 1.0;
  rule.action = {FaultType::kError, 0.0};
  schedule.rules.push_back(rule);
  FaultInjector::Global().Install(schedule);

  auto catalog = TinyCatalog();
  RealEngineConfig cfg;
  cfg.num_threads = 4;
  cfg.chunk_rows = 128;
  cfg.retry.max_retries = 1;
  RealEngine engine(catalog.get(), cfg);
  std::vector<RealQuerySubmission> workload;
  workload.push_back({ScanCountPlan(*catalog), 0.0});
  workload.push_back({ScanCountPlan(*catalog), 0.0});
  FifoScheduler fifo;
  ValidatingScheduler validating(&fifo);
  const RealRunResult result = engine.Run(workload, &validating);

  EXPECT_TRUE(validating.violations().empty())
      << validating.violations().front();
  ASSERT_EQ(result.episode.final_statuses.size(), 2u);
  EXPECT_EQ(result.episode.final_statuses[0], QueryStatus::kFailed);
  EXPECT_EQ(result.episode.final_statuses[1], QueryStatus::kDone);
  EXPECT_GT(result.episode.num_work_orders_failed, 0);
  EXPECT_DOUBLE_EQ(result.sink_checksums[1], 4000.0);
  const Status ok =
      ValidateEpisodeResult(result.episode, 2, cfg.num_threads);
  EXPECT_TRUE(ok.ok()) << ok.ToString();
}

TEST(RealLifecycleTest, ExternalCancelFromAnotherThreadIsSafe) {
  auto catalog = TinyCatalog();
  RealEngineConfig cfg;
  cfg.num_threads = 2;
  cfg.chunk_rows = 128;
  RealEngine engine(catalog.get(), cfg);
  std::vector<RealQuerySubmission> workload;
  for (int i = 0; i < 3; ++i) {
    workload.push_back({ScanCountPlan(*catalog), 0.0});
  }
  FifoScheduler fifo;
  // Fire CancelQuery(1) from a second thread while Run() is active. The
  // race is intentional: whichever way it lands, the run must finish with
  // every query terminal and pass the episode invariants.
  std::thread canceller([&engine] { engine.CancelQuery(1); });
  const RealRunResult result = engine.Run(workload, &fifo);
  canceller.join();

  ASSERT_EQ(result.episode.final_statuses.size(), 3u);
  for (QueryStatus s : result.episode.final_statuses) {
    EXPECT_TRUE(IsTerminalStatus(s));
  }
  const Status ok =
      ValidateEpisodeResult(result.episode, 3, cfg.num_threads);
  EXPECT_TRUE(ok.ok()) << ok.ToString();
}

}  // namespace
}  // namespace lsched
