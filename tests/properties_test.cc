// Property-style parameterized tests: invariants that must hold across
// benchmarks, schedulers, seeds, and engine configurations.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "core/online.h"
#include "core/reward.h"
#include "exec/sim_engine.h"
#include "sched/heuristics.h"
#include "workload/workload.h"

namespace lsched {
namespace {

// ---------------------------------------------------------------------------
// Workload invariants across (benchmark, split, seed).
class WorkloadProperties
    : public ::testing::TestWithParam<std::tuple<Benchmark, int>> {};

TEST_P(WorkloadProperties, GeneratedPlansHaveConsistentEdgeInvariants) {
  const auto [bench, seed] = GetParam();
  WorkloadConfig cfg;
  cfg.benchmark = bench;
  cfg.num_queries = 12;
  Rng rng(static_cast<uint64_t>(seed));
  for (const QuerySubmission& sub : GenerateWorkload(cfg, &rng)) {
    const QueryPlan& plan = sub.plan;
    ASSERT_TRUE(plan.Validate().ok());
    for (const PlanEdge& e : plan.edges()) {
      // Edge breaking status must agree with the producer's trait unless
      // the builder overrode it (templates never override).
      EXPECT_EQ(e.pipeline_breaking,
                !ProducesIncrementally(plan.node(e.producer).type));
    }
    // Every non-source node is reachable from a source (lineage non-empty).
    for (const PlanNode& n : plan.nodes()) {
      EXPECT_FALSE(n.base_inputs.empty())
          << OperatorTypeName(n.type) << " without base lineage";
    }
    // Pipelines bounded by plan size.
    for (const PlanNode& n : plan.nodes()) {
      EXPECT_LE(plan.LongestPipelineFrom(n.id).size(), plan.num_nodes());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, WorkloadProperties,
    ::testing::Combine(::testing::Values(Benchmark::kTpch, Benchmark::kSsb,
                                         Benchmark::kJob),
                       ::testing::Values(1, 2, 3)));

// ---------------------------------------------------------------------------
// Engine conservation laws across schedulers and seeds.
class EngineProperties : public ::testing::TestWithParam<std::tuple<int, int>> {
};

TEST_P(EngineProperties, EveryQueryCompletesExactlyOnceAndOnTime) {
  const auto [sched_kind, seed] = GetParam();
  std::unique_ptr<Scheduler> sched;
  switch (sched_kind) {
    case 0:
      sched = std::make_unique<FairScheduler>();
      break;
    case 1:
      sched = std::make_unique<SjfScheduler>();
      break;
    case 2:
      sched = std::make_unique<CriticalPathScheduler>();
      break;
    default:
      sched = std::make_unique<QuickstepScheduler>();
      break;
  }
  WorkloadConfig cfg;
  cfg.benchmark = Benchmark::kSsb;
  cfg.num_queries = 10;
  cfg.scale_factors = {2, 5};
  Rng rng(static_cast<uint64_t>(1000 + seed));
  const auto workload = GenerateWorkload(cfg, &rng);

  SimEngineConfig ecfg;
  ecfg.num_threads = 8;
  ecfg.seed = static_cast<uint64_t>(seed);
  SimEngine engine(ecfg);
  const EpisodeResult r = engine.Run(workload, sched.get());

  // Conservation: one latency per submitted query, all positive; makespan
  // bounds every latency + arrival; monotone decision log.
  ASSERT_EQ(r.query_latencies.size(), workload.size());
  for (size_t i = 0; i < workload.size(); ++i) {
    EXPECT_GT(r.query_latencies[i], 0.0);
  }
  double max_completion = 0.0;
  for (size_t i = 0; i < r.query_latencies.size(); ++i) {
    max_completion = std::max(max_completion, r.query_latencies[i]);
  }
  EXPECT_LE(max_completion, r.makespan + 1e-9);
  EXPECT_GE(r.p90_latency, 0.0);
  EXPECT_LE(r.p90_latency,
            *std::max_element(r.query_latencies.begin(),
                              r.query_latencies.end()) +
                1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sweep, EngineProperties,
                         ::testing::Combine(::testing::Range(0, 4),
                                            ::testing::Values(1, 2)));

// ---------------------------------------------------------------------------
// Reward identities.
TEST(RewardProperties, AvgOnlyRewardSumsToNegativeIntegralOfQueueSize) {
  // With w_tail = 0, sum of rewards == -sum H_d == -(integral of #running
  // over time sampled at decisions + terminal interval).
  std::vector<DecisionStamp> eps(4);
  const double times[] = {0.5, 1.0, 2.0, 2.5};
  const int running[] = {1, 3, 2, 4};
  double expected = 0.0;
  double prev = 0.0;
  for (int i = 0; i < 4; ++i) {
    eps[static_cast<size_t>(i)].time = times[i];
    eps[static_cast<size_t>(i)].num_running_queries = running[i];
    expected += (times[i] - prev) * running[i];
    prev = times[i];
  }
  const double end = 3.25;
  expected += (end - prev) * running[3];
  RewardConfig cfg;
  cfg.w_avg = 1.0;
  cfg.w_tail = 0.0;
  const std::vector<double> r = ComputeRewards(eps, cfg, 0.0, end);
  double total = 0.0;
  for (double x : r) total += x;
  EXPECT_NEAR(total, -expected, 1e-12);
}

TEST(RewardProperties, TailTermOnlyPenalizes) {
  // Adding tail weight can only make each reward weakly smaller in
  // magnitude-or-equal... precisely: r(w_tail) >= pure-average reward,
  // since the one-sided tail penalty is 0 for below-percentile decisions
  // and the mixture halves the average weight.
  std::vector<DecisionStamp> eps(5);
  Rng rng(3);
  double t = 0.0;
  for (auto& e : eps) {
    t += rng.Exponential(0.5);
    e.time = t;
    e.num_running_queries = 1 + static_cast<int>(rng.UniformInt(uint64_t{4}));
  }
  RewardConfig avg_only;
  avg_only.w_avg = 1.0;
  avg_only.w_tail = 0.0;
  RewardConfig mixed;
  const auto r_avg = ComputeRewards(eps, avg_only, 0.0, t + 1.0);
  const auto r_mix = ComputeRewards(eps, mixed, 0.0, t + 1.0);
  for (size_t i = 0; i < eps.size(); ++i) {
    EXPECT_LE(r_mix[i], 1e-12);      // rewards are penalties
    EXPECT_GE(r_mix[i], r_avg[i]);   // tail-mix never doubles the penalty
  }
}

// ---------------------------------------------------------------------------
// Dynamic thread pool events.
TEST(ThreadPoolProperties, GrowingThePoolSpeedsUpTheBatch) {
  WorkloadConfig cfg;
  cfg.benchmark = Benchmark::kSsb;
  cfg.num_queries = 8;
  cfg.scale_factors = {5};
  cfg.batch = true;
  Rng rng(9);
  const auto workload = GenerateWorkload(cfg, &rng);

  SimEngineConfig base;
  base.num_threads = 4;
  SimEngineConfig grown = base;
  grown.thread_events = {{0.2, +8}};
  SimEngine e1(base), e2(grown);
  FairScheduler f1, f2;
  const EpisodeResult r_small = e1.Run(workload, &f1);
  const EpisodeResult r_grown = e2.Run(workload, &f2);
  EXPECT_EQ(r_grown.query_latencies.size(), workload.size());
  EXPECT_LT(r_grown.makespan, r_small.makespan);
}

TEST(ThreadPoolProperties, ShrinkingThePoolStillCompletesEverything) {
  WorkloadConfig cfg;
  cfg.benchmark = Benchmark::kSsb;
  cfg.num_queries = 6;
  cfg.scale_factors = {2};
  cfg.batch = true;
  Rng rng(10);
  const auto workload = GenerateWorkload(cfg, &rng);

  SimEngineConfig shrunk;
  shrunk.num_threads = 8;
  shrunk.thread_events = {{0.05, -6}};
  SimEngine engine(shrunk);
  QuickstepScheduler sched;
  const EpisodeResult r = engine.Run(workload, &sched);
  EXPECT_EQ(r.query_latencies.size(), workload.size());
  // With only 2 threads surviving, it must still be slower than an
  // untouched 8-thread pool.
  SimEngineConfig full;
  full.num_threads = 8;
  SimEngine engine_full(full);
  QuickstepScheduler sched2;
  const EpisodeResult r_full = engine_full.Run(workload, &sched2);
  EXPECT_GT(r.makespan, r_full.makespan);
}

// ---------------------------------------------------------------------------
// Online self-correction.
TEST(OnlineProperties, OnlineAgentUpdatesWhileServing) {
  LSchedConfig mcfg;
  mcfg.hidden_dim = 8;
  mcfg.summary_dim = 8;
  mcfg.head_hidden = 8;
  LSchedModel model(mcfg);
  const AlignedVector before =
      model.params()->Find("head/root/l1/w")->value.raw();

  OnlineConfig ocfg;
  ocfg.update_every_queries = 2;
  OnlineLSched online(&model, ocfg);

  WorkloadConfig cfg;
  cfg.benchmark = Benchmark::kSsb;
  cfg.num_queries = 8;
  cfg.scale_factors = {2};
  Rng rng(11);
  SimEngineConfig ecfg;
  ecfg.num_threads = 6;
  SimEngine engine(ecfg);
  const EpisodeResult r = engine.Run(GenerateWorkload(cfg, &rng), &online);
  EXPECT_EQ(r.query_latencies.size(), 8u);
  EXPECT_GE(online.num_updates(), 2);
  EXPECT_NE(before, model.params()->Find("head/root/l1/w")->value.raw());
}


/// Forwards to an OnlineLSched and keeps, for every update, the window's
/// stored decisions and returns, with the window's end: the last
/// scheduling time before the update, which the scheduler charges to.
class UpdateWindowRecorder : public Scheduler {
 public:
  struct Window {
    double end = 0.0;
    std::vector<DecisionStamp> stamps;
    std::vector<double> returns;
  };

  explicit UpdateWindowRecorder(OnlineLSched* online) : online_(online) {}
  std::string name() const override { return "window-recorder"; }
  void Reset() override { online_->Reset(); }
  SchedulingDecision Schedule(const SchedulingEvent& event,
                              const SchedulingContext& ctx) override {
    now_ = ctx.now();
    return online_->Schedule(event, ctx);
  }
  void OnQueryCompleted(QueryId query, double latency) override {
    const int before = online_->num_updates();
    online_->OnQueryCompleted(query, latency);
    if (online_->num_updates() == before) return;
    const auto& ep = online_->experience_manager()->latest();
    Window w;
    w.end = now_;
    for (const Experience& e : ep.experiences) {
      w.stamps.push_back({e.time, e.num_running_queries});
    }
    w.returns = ep.returns;
    windows.push_back(std::move(w));
  }

  std::vector<Window> windows;

 private:
  OnlineLSched* online_;
  double now_ = 0.0;
};

TEST(OnlineProperties, UpdateWindowsTileTheRun) {
  // With w_tail = 0 a window's return G_0 is minus the queries-in-system
  // integral over the window, sampled at its decisions. Each window must
  // start where the previous update ended, not at t = 0, or its first
  // decision is charged for the whole run before it.
  LSchedConfig mcfg;
  mcfg.hidden_dim = 8;
  mcfg.summary_dim = 8;
  mcfg.head_hidden = 8;
  LSchedModel model(mcfg);
  OnlineConfig ocfg;
  ocfg.update_every_queries = 4;
  ocfg.reward.w_avg = 1.0;
  ocfg.reward.w_tail = 0.0;
  OnlineLSched online(&model, ocfg);
  UpdateWindowRecorder recorder(&online);

  WorkloadConfig cfg;
  cfg.benchmark = Benchmark::kTpch;
  cfg.num_queries = 12;
  Rng rng(2024);
  SimEngineConfig ecfg;
  ecfg.num_threads = 16;
  SimEngine engine(ecfg);
  engine.Run(GenerateWorkload(cfg, &rng), &recorder);
  ASSERT_GE(recorder.windows.size(), 3u);

  double start = 0.0;
  for (const UpdateWindowRecorder::Window& w : recorder.windows) {
    double charged = 0.0;
    double prev = start;
    for (const DecisionStamp& s : w.stamps) {
      charged += (s.time - prev) * s.num_running_queries;
      prev = s.time;
    }
    charged += (w.end - prev) * w.stamps.back().num_running_queries;
    EXPECT_NEAR(-w.returns[0], charged, 1e-9 * charged)
        << "window starting at " << start;
    start = w.end;
  }
}

}  // namespace
}  // namespace lsched
