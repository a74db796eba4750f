// Verifies the scheduling-trigger discipline of §5.2: the engine consults
// the policy exactly on the major events (query arrival, operator
// completion, idle thread, pool changes) — never per work order — and
// honors the "no decisions when all threads busy / nothing schedulable"
// rule.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "exec/sim_engine.h"
#include "plan/plan_builder.h"
#include "sched/heuristics.h"

namespace lsched {
namespace {

/// Wraps a policy and records every invocation's event type + state.
class RecordingScheduler : public Scheduler {
 public:
  explicit RecordingScheduler(Scheduler* inner) : inner_(inner) {}
  std::string name() const override { return "Recording"; }
  void Reset() override {
    inner_->Reset();
    by_type_.clear();
    had_free_thread_and_candidate_ = true;
    total_ = 0;
  }
  SchedulingDecision Schedule(const SchedulingEvent& event,
                              const SchedulingContext& ctx) override {
    ++total_;
    ++by_type_[event.type];
    bool any_candidate = false;
    for (QueryState* q : ctx.queries()) {
      any_candidate |= !q->SchedulableOps().empty();
    }
    if (ctx.num_free_threads() == 0 || !any_candidate) {
      had_free_thread_and_candidate_ = false;
    }
    return inner_->Schedule(event, ctx);
  }

  int total() const { return total_; }
  int count(SchedulingEventType t) const {
    auto it = by_type_.find(t);
    return it == by_type_.end() ? 0 : it->second;
  }
  bool invariant_held() const { return had_free_thread_and_candidate_; }

 private:
  Scheduler* inner_;
  std::map<SchedulingEventType, int> by_type_;
  bool had_free_thread_and_candidate_ = true;
  int total_ = 0;
};

std::vector<QuerySubmission> Workload(int n) {
  std::vector<QuerySubmission> out;
  for (int i = 0; i < n; ++i) {
    PlanBuilder b(nullptr);
    PlanBuilder::NodeOptions opts;
    opts.input_rows = 60000;  // ~15 work orders
    const int scan = b.AddSource(OperatorType::kSelect, 0, opts);
    const int sel = b.AddOp(OperatorType::kSelect, {scan});
    const int agg = b.AddOp(OperatorType::kHashAggregate, {sel});
    b.AddOp(OperatorType::kFinalizeAggregate, {agg});
    auto plan = b.Build();
    EXPECT_TRUE(plan.ok());
    out.push_back({std::move(plan).value(), 0.02 * i});
  }
  return out;
}

TEST(EventsTest, SchedulerInvokedOnlyOnMajorEvents) {
  SimEngineConfig cfg;
  cfg.num_threads = 4;
  SimEngine engine(cfg);
  FairScheduler fair;
  RecordingScheduler rec(&fair);
  const EpisodeResult r = engine.Run(Workload(5), &rec);
  ASSERT_EQ(r.query_latencies.size(), 5u);

  // 5 queries x 4 operators = 20 operator completions, ~75 work orders.
  // Invocations must be far below the work-order count: the scheduler is
  // event-driven, not per-work-order.
  int total_wos = 0;
  for (const QuerySubmission& q : Workload(5)) {
    for (const PlanNode& n : q.plan.nodes()) total_wos += n.num_work_orders;
  }
  EXPECT_LT(rec.total(), total_wos);
  EXPECT_GT(rec.count(SchedulingEventType::kQueryArrival), 0);
  EXPECT_GT(rec.count(SchedulingEventType::kOperatorCompleted), 0);
  // §5.2: never invoked with zero free threads or nothing to schedule.
  EXPECT_TRUE(rec.invariant_held());
}

TEST(EventsTest, PoolGrowthRaisesThreadAddedEvent) {
  SimEngineConfig cfg;
  cfg.num_threads = 2;
  cfg.thread_events = {{0.05, +2}};
  SimEngine engine(cfg);
  QuickstepScheduler qs;
  RecordingScheduler rec(&qs);
  const EpisodeResult r = engine.Run(Workload(4), &rec);
  ASSERT_EQ(r.query_latencies.size(), 4u);
  // Growth always produces free threads, so the §5.2 gate lets the
  // ThreadAdded invocation through.
  EXPECT_GE(rec.count(SchedulingEventType::kThreadAdded), 1);
}

TEST(EventsTest, PoolShrinkReducesVisibleThreads) {
  // A ThreadRemoved invocation may legitimately be gated away (§5.2: no
  // decisions while all threads are busy), but the scheduler must observe
  // the smaller pool in subsequent snapshots.
  SimEngineConfig cfg;
  cfg.num_threads = 6;
  cfg.thread_events = {{0.1, -3}};
  SimEngine engine(cfg);

  class PoolSizeProbe : public QuickstepScheduler {
   public:
    SchedulingDecision Schedule(const SchedulingEvent& event,
                                const SchedulingContext& ctx) override {
      if (ctx.now() < 0.1) {
        before = std::max(before, ctx.threads().size());
      } else {
        after_min = std::min(after_min, ctx.threads().size());
      }
      return QuickstepScheduler::Schedule(event, ctx);
    }
    size_t before = 0;
    size_t after_min = 1000;
  };
  PoolSizeProbe probe;
  const EpisodeResult r = engine.Run(Workload(6), &probe);
  ASSERT_EQ(r.query_latencies.size(), 6u);
  EXPECT_EQ(probe.before, 6u);
  EXPECT_LE(probe.after_min, 3u);
}

TEST(EventsTest, ArrivalEventCarriesQueryId) {
  SimEngineConfig cfg;
  // Enough threads that the §5.2 all-busy gate never swallows an arrival.
  cfg.num_threads = 16;
  SimEngine engine(cfg);

  class ArrivalChecker : public FairScheduler {
   public:
    SchedulingDecision Schedule(const SchedulingEvent& event,
                                const SchedulingContext& ctx) override {
      if (event.type == SchedulingEventType::kQueryArrival) {
        ids.push_back(event.query);
        EXPECT_NE(ctx.FindQuery(event.query), nullptr);
      }
      return FairScheduler::Schedule(event, ctx);
    }
    std::vector<QueryId> ids;
  };
  ArrivalChecker checker;
  engine.Run(Workload(3), &checker);
  EXPECT_EQ(checker.ids, (std::vector<QueryId>{0, 1, 2}));
}

}  // namespace
}  // namespace lsched
