#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "exec/sim_engine.h"
#include "obs/metrics.h"
#include "plan/plan_builder.h"
#include "sched/guarded_policy.h"
#include "sched/heuristics.h"
#include "testing/faultpoint.h"
#include "testing/fuzzer.h"
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

/// RAII guard: every test leaves the process-global injector disarmed.
struct InjectorCleaner {
  ~InjectorCleaner() { FaultInjector::Global().Clear(); }
};

TEST(FaultInjectorTest, NthHitAndEveryRulesFireDeterministically) {
  InjectorCleaner cleaner;
  FaultSchedule schedule;
  schedule.seed = 17;
  FaultRule nth;
  nth.point = "p";
  nth.nth_hit = 3;
  nth.action = {FaultType::kError, 0.0};
  schedule.rules.push_back(nth);
  FaultRule every;
  every.point = "q";
  every.every = 4;
  every.action = {FaultType::kDelay, 0.5};
  schedule.rules.push_back(every);

  for (int round = 0; round < 2; ++round) {
    FaultInjector::Global().Install(schedule);
    std::vector<FaultType> p_fires, q_fires;
    for (int i = 0; i < 10; ++i) {
      p_fires.push_back(FaultInjector::Global().Check("p", 0, 0.0).type);
      q_fires.push_back(FaultInjector::Global().Check("q", 0, 0.0).type);
    }
    // nth_hit=3: only the 3rd probe fires.
    for (int i = 0; i < 10; ++i) {
      EXPECT_EQ(p_fires[static_cast<size_t>(i)],
                i == 2 ? FaultType::kError : FaultType::kNone)
          << "round " << round << " probe " << i;
      // every=4: probes 4, 8, ... fire.
      EXPECT_EQ(q_fires[static_cast<size_t>(i)],
                (i + 1) % 4 == 0 ? FaultType::kDelay : FaultType::kNone)
          << "round " << round << " probe " << i;
    }
    EXPECT_EQ(FaultInjector::Global().hits("p"), 10);
    EXPECT_EQ(FaultInjector::Global().fires("p"), 1);
    EXPECT_EQ(FaultInjector::Global().fires("q"), 2);
  }
}

TEST(FaultInjectorTest, ProbabilityRuleReplaysIdentically) {
  InjectorCleaner cleaner;
  FaultSchedule schedule;
  schedule.seed = 99;
  FaultRule rule;
  rule.point = "p";
  rule.probability = 0.3;
  rule.action = {FaultType::kError, 0.0};
  schedule.rules.push_back(rule);

  std::vector<bool> first;
  for (int round = 0; round < 2; ++round) {
    FaultInjector::Global().Install(schedule);
    std::vector<bool> fired;
    for (int i = 0; i < 300; ++i) {
      fired.push_back(
          static_cast<bool>(FaultInjector::Global().Check("p", i, 0.0)));
    }
    if (round == 0) {
      first = fired;
      // Sanity: the rule is genuinely probabilistic at p=0.3 over 300 hits.
      const int64_t fires = FaultInjector::Global().fires("p");
      EXPECT_GT(fires, 0);
      EXPECT_LT(fires, 300);
    } else {
      EXPECT_EQ(first, fired) << "same (seed, schedule) must replay bit-equal";
    }
  }
}

TEST(FaultInjectorTest, QueryScopeWindowAndMaxFiresBound) {
  InjectorCleaner cleaner;
  FaultSchedule schedule;
  schedule.seed = 5;
  FaultRule rule;
  rule.point = "p";
  rule.query = 7;
  rule.probability = 1.0;
  rule.window_start = 1.0;
  rule.window_end = 2.0;
  rule.max_fires = 2;
  rule.action = {FaultType::kStall, 9.0};
  schedule.rules.push_back(rule);
  FaultInjector::Global().Install(schedule);

  // Wrong query / out-of-window probes never fire.
  EXPECT_FALSE(FaultInjector::Global().Check("p", 3, 1.5));
  EXPECT_FALSE(FaultInjector::Global().Check("p", 7, 0.5));
  EXPECT_FALSE(FaultInjector::Global().Check("p", 7, 2.5));
  // In-window probes fire until max_fires is exhausted.
  EXPECT_EQ(FaultInjector::Global().Check("p", 7, 1.1).type, FaultType::kStall);
  EXPECT_DOUBLE_EQ(FaultInjector::Global().Check("p", 7, 1.2).param, 9.0);
  EXPECT_FALSE(FaultInjector::Global().Check("p", 7, 1.3));
  EXPECT_EQ(FaultInjector::Global().total_fires(), 2);
  ASSERT_EQ(FaultInjector::Global().Log().size(), 2u);
  EXPECT_EQ(FaultInjector::Global().Log()[0].point, "p");
  EXPECT_EQ(FaultInjector::Global().Log()[0].query, 7);
}

TEST(FaultInjectorTest, DisarmedMacroReturnsNoFault) {
  FaultInjector::Global().Clear();
  EXPECT_FALSE(FaultInjector::Global().armed());
  const FaultAction a = LSCHED_FAULT("anything", 3, 1.0);
  EXPECT_EQ(a.type, FaultType::kNone);
  EXPECT_FALSE(a);
}

TEST(FaultPointTest, WorkOrderExecFaultFailsQuery) {
  InjectorCleaner cleaner;
  FaultSchedule schedule;
  schedule.seed = 1;
  FaultRule rule;
  rule.point = "work_order_exec";
  rule.query = 0;
  rule.probability = 1.0;
  rule.action = {FaultType::kError, 0.0};
  schedule.rules.push_back(rule);
  FaultInjector::Global().Install(schedule);

  // One thread => one attempt in flight at a time, so the failed/retry
  // counters are exact: wo0 fails, retries once, fails again, query dies.
  SimEngineConfig config;
  config.num_threads = 1;
  config.retry.max_retries = 1;
  SimEngine engine(config);
  FifoScheduler fifo;
  const EpisodeResult r = engine.Run(SmallWorkload(2), &fifo);

  ASSERT_EQ(r.final_statuses.size(), 2u);
  EXPECT_EQ(r.final_statuses[0], QueryStatus::kFailed);
  EXPECT_EQ(r.final_statuses[1], QueryStatus::kDone);
  EXPECT_EQ(r.num_queries_failed, 1);
  EXPECT_GT(FaultInjector::Global().fires("work_order_exec"), 0);
  EXPECT_EQ(r.num_retries, 1);
  EXPECT_EQ(r.num_work_orders_failed, 2);
  EXPECT_TRUE(ValidateEpisodeResult(r, 2, config.num_threads).ok());
}

TEST(FaultPointTest, QueryAdmitFaultRejectsQueryBeforeScheduling) {
  InjectorCleaner cleaner;
  FaultSchedule schedule;
  schedule.seed = 2;
  FaultRule rule;
  rule.point = "query_admit";
  rule.query = 1;
  rule.nth_hit = 1;
  rule.action = {FaultType::kError, 0.0};
  schedule.rules.push_back(rule);
  FaultInjector::Global().Install(schedule);

  SimEngineConfig config;
  config.num_threads = 4;
  SimEngine engine(config);
  FifoScheduler fifo;
  ValidatingScheduler validating(&fifo);
  const EpisodeResult r = engine.Run(SmallWorkload(3), &validating);

  ASSERT_EQ(r.final_statuses.size(), 3u);
  EXPECT_EQ(r.final_statuses[1], QueryStatus::kFailed);
  EXPECT_EQ(r.final_statuses[0], QueryStatus::kDone);
  EXPECT_EQ(r.final_statuses[2], QueryStatus::kDone);
  // The rejected query never entered the scheduling context.
  EXPECT_TRUE(validating.violations().empty());
  EXPECT_EQ(r.query_latencies.size(), 2u);
  EXPECT_TRUE(ValidateEpisodeResult(r, 3, config.num_threads).ok());
}

TEST(FaultPointTest, PolicyDecideFaultTriggersGuardFallback) {
  InjectorCleaner cleaner;
  FaultSchedule schedule;
  schedule.seed = 3;
  FaultRule rule;
  rule.point = "policy_decide";
  rule.probability = 1.0;
  rule.action = {FaultType::kError, 0.0};
  schedule.rules.push_back(rule);
  FaultInjector::Global().Install(schedule);

  SjfScheduler sjf;
  GuardedPolicy guarded(&sjf);
  SimEngineConfig config;
  config.num_threads = 4;
  SimEngine engine(config);
  const EpisodeResult r = engine.Run(SmallWorkload(3), &guarded);

  // Every decision failed by injection, yet FIFO answered them all.
  EXPECT_GT(guarded.fallback_count(), 0);
  EXPECT_TRUE(guarded.sticky());
  ASSERT_EQ(r.final_statuses.size(), 3u);
  for (QueryStatus s : r.final_statuses) EXPECT_EQ(s, QueryStatus::kDone);
  EXPECT_GT(FaultInjector::Global().fires("policy_decide"), 0);
}

TEST(FaultReplayTest, SameSeedAndScheduleYieldIdenticalEpisodes) {
  InjectorCleaner cleaner;
  FuzzerOptions opts;
  opts.chaos = true;
  opts.min_queries = 4;
  opts.max_queries = 6;
  WorkloadFuzzer fuzzer(20250806, opts);
  const FuzzedWorkload w = fuzzer.NextWorkload();
  ASSERT_FALSE(w.expected_statuses.empty());

  EpisodeResult episodes[2];
  for (int rep = 0; rep < 2; ++rep) {
    // Install before each run: resets rule-local RNGs and counters, so the
    // replay sees the exact same firing sequence.
    FaultInjector::Global().Install(w.faults);
    SimEngineConfig config;
    config.num_threads = 4;
    config.cancels = w.cancels;
    SimEngine engine(config);
    FifoScheduler fifo;
    episodes[rep] = engine.Run(w.sim_queries, &fifo);
  }
  EXPECT_EQ(DiffEpisodeResults(episodes[0], episodes[1]), "");
  ASSERT_EQ(episodes[0].final_statuses.size(), w.expected_statuses.size());
  for (size_t i = 0; i < w.expected_statuses.size(); ++i) {
    EXPECT_EQ(episodes[0].final_statuses[i], w.expected_statuses[i])
        << "query " << i;
  }
}

/// The disarmed guarantee: a fault point with no schedule installed returns a
/// no-fault action, so a run is bit-identical to one that never armed the
/// injector. (a) A run after Install+Clear — armed machinery exercised, then
/// disarmed — and (b) a run with an armed schedule whose rules match no
/// probe must both equal a run that never touched the injector.
TEST(FaultReplayTest, DisarmedRunMatchesNeverArmedRunBitForBit) {
  InjectorCleaner cleaner;
  auto run_once = [] {
    SimEngineConfig config;
    config.num_threads = 4;
    SimEngine engine(config);
    FifoScheduler fifo;
    return engine.Run(SmallWorkload(4), &fifo);
  };

  FaultInjector::Global().Clear();
  const EpisodeResult baseline = run_once();

  // (a) installed, then disarmed before the run.
  FaultSchedule schedule;
  schedule.seed = 11;
  FaultRule rule;
  rule.point = "work_order_exec";
  rule.probability = 1.0;
  rule.action = {FaultType::kError, 0.0};
  schedule.rules.push_back(rule);
  FaultInjector::Global().Install(schedule);
  FaultInjector::Global().Clear();
  const EpisodeResult disarmed = run_once();
  EXPECT_EQ(DiffEpisodeResults(baseline, disarmed), "");

  // (b) armed the whole run, but no rule matches any probed point: the
  // probes hit the injector's slow path and still change nothing.
  FaultSchedule inert;
  inert.seed = 12;
  FaultRule never;
  never.point = "no_such_point";
  never.probability = 1.0;
  inert.rules.push_back(never);
  FaultInjector::Global().Install(inert);
  const EpisodeResult armed_inert = run_once();
  FaultInjector::Global().Clear();
  EXPECT_EQ(DiffEpisodeResults(baseline, armed_inert), "");
  EXPECT_EQ(FaultInjector::Global().total_fires(), 0);
}

/// Acceptance episode (ISSUE): a 1000-query fuzzed chaos run — cancels,
/// always-fail queries, work-order delays, and injected policy failures —
/// must complete with every query terminal, zero invariant violations, and
/// the guard visibly falling back while still emitting valid decisions.
TEST(ChaosAcceptanceTest, ThousandQueryFuzzedEpisodeStaysConsistent) {
  InjectorCleaner cleaner;
  constexpr int kQueries = 1000;
  Rng rng(424242);
  WorkloadFuzzer fuzzer(424242);
  const std::unique_ptr<Catalog> catalog = fuzzer.FuzzCatalog();

  std::vector<QuerySubmission> workload;
  std::vector<QueryStatus> expected(kQueries, QueryStatus::kDone);
  FaultSchedule schedule;
  schedule.seed = 424242;
  SimEngineConfig config;
  config.num_threads = 16;
  double at = 0.0;
  for (int i = 0; i < kQueries; ++i) {
    QuerySubmission sub;
    sub.plan = fuzzer.FuzzPlan(*catalog);
    sub.arrival_time = at;
    at += rng.Exponential(0.02);
    workload.push_back(std::move(sub));

    const double r = rng.Uniform();
    if (r < 0.10) {  // ~10% cancelled, half up-front and half mid-run
      CancelRequest cancel;
      cancel.query = i;
      cancel.time = rng.Uniform() < 0.5 ? 0.0 : at + rng.Uniform(0.0, 2.0);
      config.cancels.push_back(cancel);
      // A mid-run cancel can land after the query already finished or
      // failed; only the t=0 flavour pins the terminal status exactly.
      expected[static_cast<size_t>(i)] =
          cancel.time == 0.0 ? QueryStatus::kCancelled : QueryStatus::kRunning;
    } else if (r < 0.15) {  // ~5% fail every work-order attempt
      FaultRule rule;
      rule.point = "work_order_exec";
      rule.query = i;
      rule.probability = 1.0;
      rule.action = {FaultType::kError, 0.0};
      schedule.rules.push_back(rule);
      expected[static_cast<size_t>(i)] = QueryStatus::kFailed;
    }
  }
  FaultRule stall;  // global timing noise
  stall.point = "work_order_exec";
  stall.probability = 0.05;
  stall.action = {FaultType::kDelay, 0.002};
  schedule.rules.push_back(stall);
  FaultRule decide;  // sporadic policy failures exercise the guard
  decide.point = "policy_decide";
  decide.probability = 0.02;
  decide.action = {FaultType::kError, 0.0};
  schedule.rules.push_back(decide);
  FaultInjector::Global().Install(schedule);

  obs::Counter* fallback_total =
      obs::MetricsRegistry::Global().GetCounter("sched.fallback_total");
  const int64_t fallback_before = fallback_total->Value();

  SjfScheduler sjf;
  GuardedPolicy guarded(&sjf);
  ValidatingScheduler validating(&guarded);
  SimEngine engine(config);
  const EpisodeResult r = engine.Run(workload, &validating);

  EXPECT_TRUE(validating.violations().empty())
      << validating.violations().front();
  const Status ok = ValidateEpisodeResult(r, kQueries, config.num_threads);
  EXPECT_TRUE(ok.ok()) << ok.ToString();
  ASSERT_EQ(r.final_statuses.size(), static_cast<size_t>(kQueries));
  for (int i = 0; i < kQueries; ++i) {
    const QueryStatus got = r.final_statuses[static_cast<size_t>(i)];
    EXPECT_TRUE(IsTerminalStatus(got)) << "query " << i;
    // kRunning marks "any terminal state acceptable" (mid-run cancels).
    if (expected[static_cast<size_t>(i)] != QueryStatus::kRunning) {
      EXPECT_EQ(got, expected[static_cast<size_t>(i)]) << "query " << i;
    }
  }
  EXPECT_GT(guarded.fallback_count(), 0);
  if (obs::Enabled()) {
    EXPECT_GT(fallback_total->Value(), fallback_before);
  }
  EXPECT_GT(FaultInjector::Global().total_fires(), 0);
}

}  // namespace
}  // namespace lsched
