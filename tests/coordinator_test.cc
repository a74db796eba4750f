// The shared Coordinator against a fake executor backend: attempts complete
// in a scripted order, with no threads and no wall clock, so every rule the
// coordinator applies to both engines is pinned down deterministically.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <deque>
#include <functional>
#include <thread>
#include <utility>
#include <vector>

#include "exec/coordinator.h"
#include "plan/plan_builder.h"
#include "sched/heuristics.h"

namespace lsched {
namespace {

/// A started attempt, as the fake backend saw it.
struct Started {
  int slot = -1;
  int64_t pipeline = -1;
  QueryId query = kInvalidQuery;
  int wo_index = -1;
  Pipeline* lease = nullptr;
};

/// Records dispatches instead of running them; sizes pipelines from the
/// plan like the simulator.
class FakeBackend : public ExecutorBackend {
 public:
  bool need_producers = false;
  std::deque<Started> outstanding;  ///< started, not yet completed
  std::vector<Started> started;
  std::vector<std::pair<int64_t, double>> backoffs;
  std::vector<QueryId> released;
  std::vector<int> retired;  ///< slots, in retirement order

  bool roots_need_complete_producers() const override {
    return need_producers;
  }
  void PreparePipeline(const QueryState& q, Pipeline* p) override {
    p->total_fused = std::max(q.plan().node(p->chain[0]).num_work_orders, 1);
  }
  void Dispatch(Pipeline& p, const QueryState& q, int slot, int wo_index,
                double now) override {
    (void)now;
    const Started s{slot, p.id, q.id(), wo_index, &p};
    started.push_back(s);
    outstanding.push_back(s);
  }
  double OperatorMemory(const QueryState& q, const Pipeline& p, int op,
                        double amount) override {
    (void)q;
    (void)p;
    (void)op;
    (void)amount;
    return 0.0;
  }
  void ReleaseQuery(const QueryState& q) override {
    released.push_back(q.id());
  }
  void OnRetryBackoff(int64_t pipeline, double ready_at) override {
    backoffs.emplace_back(pipeline, ready_at);
  }
  void OnSlotRetired(int slot, double now) override {
    (void)now;
    retired.push_back(slot);
  }
};

/// Answers every event with a scripted decision and logs the events.
class ScriptedScheduler : public Scheduler {
 public:
  using Decide = std::function<SchedulingDecision(const SchedulingEvent&,
                                                  const SchedulingContext&)>;
  explicit ScriptedScheduler(Decide decide) : decide_(std::move(decide)) {}

  std::string name() const override { return "scripted"; }
  SchedulingDecision Schedule(const SchedulingEvent& event,
                              const SchedulingContext& ctx) override {
    events.push_back(event);
    return decide_(event, ctx);
  }

  std::vector<SchedulingEvent> events;

 private:
  Decide decide_;
};

/// select(rows) → hash aggregate → finalize. One select work order per
/// 4096-row block.
QueryPlan ScanAggPlan(int64_t rows) {
  PlanBuilder b(nullptr);
  PlanBuilder::NodeOptions src;
  src.input_rows = rows;
  const int s = b.AddSource(OperatorType::kSelect, 0, src);
  const int agg = b.AddOp(OperatorType::kHashAggregate, {s});
  b.AddOp(OperatorType::kFinalizeAggregate, {agg});
  auto plan = b.Build();
  EXPECT_TRUE(plan.ok());
  return std::move(plan).value();
}

/// One select over `rows` rows: a single operator with one work order per
/// 4096-row block.
QueryPlan ScanPlan(int64_t rows) {
  PlanBuilder b(nullptr);
  PlanBuilder::NodeOptions src;
  src.input_rows = rows;
  b.AddSource(OperatorType::kSelect, 0, src);
  auto plan = b.Build();
  EXPECT_TRUE(plan.ok());
  return std::move(plan).value();
}

/// `n` independent single-work-order scans.
QueryPlan ManyScansPlan(int n) {
  PlanBuilder b(nullptr);
  PlanBuilder::NodeOptions src;
  src.input_rows = 16;
  for (int i = 0; i < n; ++i) b.AddSource(OperatorType::kSelect, 0, src);
  auto plan = b.Build();
  EXPECT_TRUE(plan.ok());
  return std::move(plan).value();
}

SchedulingDecision Launch(QueryId query, int root, int max_threads = 0) {
  SchedulingDecision d;
  d.pipelines.push_back(PipelineChoice{query, root, 1});
  if (max_threads > 0) d.parallelism.push_back({query, max_threads});
  return d;
}

AttemptResult Outcome(const Started& s, bool ok = true) {
  AttemptResult r;
  r.slot = s.slot;
  r.pipeline = s.pipeline;
  r.wo_index = s.wo_index;
  if (!ok) r.status = Status::Internal("scripted failure");
  r.seconds = 0.001;
  r.service_seconds = 0.001;
  return r;
}

struct Harness {
  explicit Harness(int threads) {
    config.num_threads = threads;
    coordinator.Begin("test", &scheduler, /*virtual_time=*/true, 0);
  }
  /// Removes and returns the attempt running on `slot`.
  Started Take(int slot) {
    auto it = std::find_if(backend.outstanding.begin(),
                           backend.outstanding.end(),
                           [&](const Started& s) { return s.slot == slot; });
    EXPECT_NE(it, backend.outstanding.end()) << "slot " << slot << " idle";
    if (it == backend.outstanding.end()) return Started{};
    const Started s = *it;
    backend.outstanding.erase(it);
    return s;
  }
  /// Completes the attempt running on `slot`; the slot hands its lease
  /// back.
  void CompleteSlot(int slot, double now, bool ok = true) {
    coordinator.Complete(Outcome(Take(slot), ok), now);
  }
  /// The outcome of `s` after its slot claimed the lease's next work order
  /// as a worker does; a continuation becomes the slot's running attempt.
  AttemptResult Claim(const Started& s, bool ok = true) {
    AttemptResult r = Outcome(s, ok);
    r.continued_wo = s.lease->ClaimContinuation(r);
    if (r.continued_wo >= 0) {
      Started next = s;
      next.wo_index = r.continued_wo;
      backend.started.push_back(next);
      backend.outstanding.push_back(next);
    }
    return r;
  }
  /// Completes the attempt on `slot` the way a lease holder does; returns
  /// the work order the slot continued with, or -1.
  int FinishSlot(int slot, double now, bool ok = true) {
    const AttemptResult r = Claim(Take(slot), ok);
    coordinator.Complete(r, now);
    return r.continued_wo;
  }
  EpisodeResult Result(double now) {
    return coordinator.recorder().SnapshotResult(now);
  }

  std::function<SchedulingDecision(const SchedulingEvent&,
                                   const SchedulingContext&)>
      decide = [](const SchedulingEvent&, const SchedulingContext&) {
        return SchedulingDecision{};
      };
  ScriptedScheduler scheduler{
      [this](const SchedulingEvent& e, const SchedulingContext& c) {
        return decide(e, c);
      }};
  EngineConfig config;
  FakeBackend backend;
  Coordinator coordinator{&config, &backend};
};

// --- dispatch rule ----------------------------------------------------------

/// A free slot goes to a candidate its last query has locality with, even
/// when an older pipeline of another query is also dispatchable.
TEST(CoordinatorDispatchTest, LocalityBeatsLaunchOrder) {
  Harness h(2);
  h.decide = [](const SchedulingEvent& e, const SchedulingContext& ctx) {
    (void)ctx;
    if (e.type == SchedulingEventType::kQueryArrival) {
      return Launch(e.query, 0, /*max_threads=*/1);
    }
    if (e.type == SchedulingEventType::kOperatorCompleted && e.query == 1 &&
        e.op == 0) {
      // Lift query 0's cap and launch query 1's next operator: both are
      // now dispatchable when slot 1 (last ran query 1) is free.
      SchedulingDecision d = Launch(1, 1);
      d.parallelism.push_back({0, 2});
      return d;
    }
    return SchedulingDecision{};
  };
  h.coordinator.Admit(0, ScanAggPlan(40 * 4096), QueryTag{}, 0.0);
  h.coordinator.Admit(1, ScanAggPlan(100), QueryTag{}, 0.1);  // 1 select WO
  ASSERT_EQ(h.backend.started.size(), 2u);
  EXPECT_EQ(h.backend.started[0].query, 0);
  EXPECT_EQ(h.backend.started[0].slot, 0);
  EXPECT_EQ(h.backend.started[1].query, 1);
  EXPECT_EQ(h.backend.started[1].slot, 1);

  h.CompleteSlot(1, 0.2);  // query 1's select completes
  ASSERT_EQ(h.backend.started.size(), 3u);
  const Started& next = h.backend.started.back();
  EXPECT_EQ(next.slot, 1);
  EXPECT_EQ(next.query, 1) << "the older query-0 pipeline must not win";
  EXPECT_LT(h.coordinator.pipelines().front()->id, next.pipeline);
}

/// Without locality, the least-loaded query's pipeline wins, even when an
/// older pipeline is also dispatchable.
TEST(CoordinatorDispatchTest, LeastLoadedQueryWithoutLocality) {
  Harness h(2);
  h.decide = [](const SchedulingEvent& e, const SchedulingContext& ctx) {
    (void)ctx;
    if (e.type == SchedulingEventType::kQueryArrival) {
      return Launch(e.query, 0, /*max_threads=*/10);
    }
    if (e.type == SchedulingEventType::kThreadAdded) return Launch(1, 0);
    return SchedulingDecision{};
  };
  h.coordinator.Admit(0, ScanAggPlan(40 * 4096), QueryTag{}, 0.0);
  ASSERT_EQ(h.backend.started.size(), 2u);  // query 0 takes both slots
  h.coordinator.Admit(1, ScanAggPlan(40 * 4096), QueryTag{}, 0.1);
  ASSERT_EQ(h.backend.started.size(), 2u);  // no free slot to decide on
  h.coordinator.ChangePool(+1, 0.2);  // fresh slot 2, no locality
  ASSERT_EQ(h.backend.started.size(), 3u);
  EXPECT_EQ(h.backend.started.back().slot, 2);
  EXPECT_EQ(h.backend.started.back().query, 1);  // load 0 vs query 0's 2
}

// --- retry backoff boundary -------------------------------------------------

TEST(CoordinatorBackoffTest, RetryDispatchesAtTheBackoffBoundary) {
  Harness h(1);
  h.config.retry.backoff_seconds = 0.5;
  h.decide = [](const SchedulingEvent& e, const SchedulingContext& ctx) {
    (void)ctx;
    if (e.type == SchedulingEventType::kQueryArrival) return Launch(e.query, 0);
    return SchedulingDecision{};
  };
  h.coordinator.Admit(0, ScanAggPlan(100), QueryTag{}, 0.0);
  ASSERT_EQ(h.backend.started.size(), 1u);
  h.CompleteSlot(0, 1.0, /*ok=*/false);
  ASSERT_EQ(h.backend.backoffs.size(), 1u);
  EXPECT_EQ(h.backend.backoffs[0].second, 1.5);
  EXPECT_EQ(h.backend.started.size(), 1u);  // backing off

  EXPECT_EQ(h.coordinator.AssignThreads(1.5 - 1e-9), 0);
  // Within the clock-rounding tolerance counts as elapsed.
  EXPECT_EQ(h.coordinator.AssignThreads(1.5 - 1e-13), 1);
  EXPECT_EQ(h.backend.started.back().wo_index, 0);  // the retried order
}

// --- deferred slot retirement ----------------------------------------------

/// A busy slot that a pool shrink retires on completion leaves the context
/// as a retirement, not a free slot, and its final idle event reaches no
/// policy: a retirement is pending only while every live slot is busy, so
/// no slot is left to schedule on.
TEST(CoordinatorPoolTest, RetiredSlotRaisesNoIdleEvent) {
  Harness h(2);
  h.decide = [](const SchedulingEvent& e, const SchedulingContext& ctx) {
    (void)ctx;
    if (e.type == SchedulingEventType::kQueryArrival && e.query == 0) {
      return Launch(0, 0);
    }
    return SchedulingDecision{};  // query 1 stays schedulable
  };
  h.coordinator.Admit(0, ScanAggPlan(40 * 4096), QueryTag{}, 0.0);
  h.coordinator.Admit(1, ScanAggPlan(40 * 4096), QueryTag{}, 0.05);
  ASSERT_EQ(h.backend.outstanding.size(), 2u);
  h.coordinator.ChangePool(-1, 0.1);  // both busy: a slot retires later
  EXPECT_EQ(h.coordinator.context().total_threads(), 2);
  EXPECT_TRUE(h.backend.retired.empty());

  h.scheduler.events.clear();
  h.CompleteSlot(1, 0.2);
  EXPECT_EQ(h.coordinator.context().thread(1), nullptr);
  EXPECT_EQ(h.coordinator.context().total_threads(), 1);
  EXPECT_EQ(h.backend.retired, std::vector<int>{1});
  EXPECT_TRUE(h.scheduler.events.empty());
}

/// A grow applied while a shrink still waits on busy slots first cancels
/// those retirements, and only the remainder adds slots. With four busy
/// slots, -2 then +1 keeps four live slots and four attempts in flight.
TEST(CoordinatorPoolTest, GrowCancelsPendingRetirementsFirst) {
  Harness h(4);
  h.decide = [](const SchedulingEvent& e, const SchedulingContext& ctx) {
    (void)ctx;
    if (e.type == SchedulingEventType::kQueryArrival && e.query == 0) {
      return Launch(0, 0);
    }
    return SchedulingDecision{};  // query 1 stays schedulable
  };
  h.coordinator.Admit(0, ScanPlan(40 * 4096), QueryTag{}, 0.0);
  h.coordinator.Admit(1, ScanPlan(40 * 4096), QueryTag{}, 0.05);
  ASSERT_EQ(h.backend.outstanding.size(), 4u);
  h.coordinator.ChangePool(-2, 0.1);
  h.coordinator.ChangePool(+1, 0.2);
  EXPECT_EQ(h.coordinator.context().total_threads(), 4);
  EXPECT_EQ(h.backend.outstanding.size(), 4u);

  // One retirement is still pending: the next lease to end retires.
  EXPECT_EQ(h.FinishSlot(0, 0.3), -1);
  EXPECT_EQ(h.backend.retired, std::vector<int>{0});
  EXPECT_EQ(h.coordinator.context().total_threads(), 3);
  EXPECT_GE(h.FinishSlot(1, 0.4), 0);  // the others keep their leases
  EXPECT_LE(h.backend.outstanding.size(), 3u);
  EXPECT_LE(h.Result(0.4).max_inflight_work_orders, 4);

  // A grow larger than the pending retirements cancels them and adds the
  // rest as fresh slots; the policy still hears kThreadAdded.
  h.coordinator.ChangePool(-1, 0.5);
  h.scheduler.events.clear();
  h.coordinator.ChangePool(+2, 0.6);
  EXPECT_EQ(h.coordinator.context().total_threads(), 4);
  EXPECT_EQ(h.backend.retired, std::vector<int>{0});
  ASSERT_FALSE(h.scheduler.events.empty());
  EXPECT_EQ(h.scheduler.events.front().type,
            SchedulingEventType::kThreadAdded);
  EXPECT_LE(h.Result(0.6).max_inflight_work_orders, 4);
}

// --- scheduler rounds cap ---------------------------------------------------

TEST(CoordinatorSchedulerTest, ReinvocationStopsAtTheRoundsCap) {
  constexpr int kOps = Coordinator::kMaxRoundsPerEvent + 40;
  Harness h(kOps);
  h.decide = [](const SchedulingEvent& e, const SchedulingContext& ctx) {
    (void)e;
    // One new launch per round, so the coordinator keeps asking.
    for (const QueryState* q : ctx.queries()) {
      const std::vector<int> ops = q->SchedulableOps();
      if (!ops.empty()) return Launch(q->id(), ops[0]);
    }
    return SchedulingDecision{};
  };
  h.coordinator.Admit(0, ManyScansPlan(kOps), QueryTag{}, 0.0);
  EXPECT_EQ(static_cast<int>(h.scheduler.events.size()),
            Coordinator::kMaxRoundsPerEvent);
  EXPECT_EQ(static_cast<int>(h.backend.started.size()),
            Coordinator::kMaxRoundsPerEvent);
}

// --- producers-complete capability -----------------------------------------

void LaunchSelectAndAggregate(bool need_producers, size_t expect_pipelines) {
  Harness h(4);
  h.backend.need_producers = need_producers;
  h.decide = [](const SchedulingEvent& e, const SchedulingContext& ctx) {
    (void)ctx;
    SchedulingDecision d;
    if (e.type == SchedulingEventType::kQueryArrival) {
      d.pipelines.push_back(PipelineChoice{e.query, 0, 1});
      d.pipelines.push_back(PipelineChoice{e.query, 1, 1});
    }
    return d;
  };
  h.coordinator.Admit(0, ScanAggPlan(40 * 4096), QueryTag{}, 0.0);
  EXPECT_EQ(h.coordinator.pipelines().size(), expect_pipelines);
  EXPECT_EQ(h.coordinator.pipelines().front()->chain.front(), 0);
}

TEST(CoordinatorCapabilityTest, StreamingBackendLaunchesConsumerEarly) {
  LaunchSelectAndAggregate(/*need_producers=*/false, 2u);
}

TEST(CoordinatorCapabilityTest, ProducersCompleteFlagHoldsConsumerBack) {
  LaunchSelectAndAggregate(/*need_producers=*/true, 1u);
}

void FallbackWhileProducerRuns(bool need_producers, size_t expect_pipelines) {
  Harness h(2);
  h.backend.need_producers = need_producers;
  h.decide = [](const SchedulingEvent& e, const SchedulingContext& ctx) {
    (void)ctx;
    if (e.type == SchedulingEventType::kQueryArrival) {
      return Launch(e.query, 0, /*max_threads=*/1);
    }
    return SchedulingDecision{};
  };
  // The select runs on one slot; the aggregate is schedulable (its
  // producer is scheduled) but that producer has not completed.
  h.coordinator.Admit(0, ScanAggPlan(40 * 4096), QueryTag{}, 0.0);
  h.coordinator.ForceFallback(0.1);
  EXPECT_EQ(h.coordinator.pipelines().size(), expect_pipelines);
}

TEST(CoordinatorCapabilityTest, FallbackLaunchesStreamingConsumer) {
  FallbackWhileProducerRuns(/*need_producers=*/false, 2u);
}

TEST(CoordinatorCapabilityTest, FallbackSkipsRootsWithOpenProducers) {
  FallbackWhileProducerRuns(/*need_producers=*/true, 1u);
}

// --- pipeline retirement ----------------------------------------------------

/// A 1,000-query stream with cancels and failed attempts under FIFO: the
/// pipeline table stays bounded while it runs and is empty once drained.
TEST(CoordinatorRetirementTest, DrainedStreamHoldsNoPipelines) {
  constexpr int kQueries = 1000;
  EngineConfig config;
  config.num_threads = 4;
  FakeBackend backend;
  FifoScheduler fifo;
  Coordinator coordinator(&config, &backend);
  coordinator.Begin("test", &fifo, /*virtual_time=*/true, 0);

  double now = 0.0;
  int completions = 0;
  size_t max_pipelines = 0;
  const auto complete_one = [&] {
    const Started s = backend.outstanding.front();
    backend.outstanding.pop_front();
    now += 0.001;
    coordinator.Complete(Outcome(s, /*ok=*/++completions % 13 != 0), now);
    max_pipelines = std::max(max_pipelines, coordinator.pipelines().size());
  };
  for (int i = 0; i < kQueries; ++i) {
    now += 0.001;
    coordinator.Admit(i, ScanAggPlan(4096 * (1 + i % 5)), QueryTag{}, now);
    if (i % 7 == 3) coordinator.Cancel(i - 1, now);
    while (backend.outstanding.size() > 3) complete_one();
    if (coordinator.Stranded()) coordinator.ForceFallback(now);
  }
  while (coordinator.terminal_queries() < kQueries) {
    if (backend.outstanding.empty()) {
      ASSERT_TRUE(coordinator.Stranded());
      coordinator.ForceFallback(now);
      ASSERT_FALSE(backend.outstanding.empty());
    }
    complete_one();
  }

  EXPECT_TRUE(backend.outstanding.empty());
  EXPECT_EQ(coordinator.InflightAttempts(), 0);
  EXPECT_EQ(coordinator.pipelines().size(), 0u);
  EXPECT_LT(max_pipelines, 64u);
  // Every admitted query was released exactly once.
  std::vector<QueryId> released = backend.released;
  std::sort(released.begin(), released.end());
  EXPECT_EQ(std::unique(released.begin(), released.end()), released.end());
  EXPECT_EQ(released.size(), static_cast<size_t>(kQueries));
}

// --- pipeline leases --------------------------------------------------------

SchedulingDecision LaunchOnArrival(const SchedulingEvent& e,
                                   const SchedulingContext& ctx) {
  (void)ctx;
  if (e.type == SchedulingEventType::kQueryArrival) return Launch(e.query, 0);
  return SchedulingDecision{};
}

/// dispatched == completed + failed + discarded, with nothing in flight.
void ExpectConserved(Harness& h, double now) {
  const EpisodeResult r = h.Result(now);
  EXPECT_EQ(r.num_work_orders_dispatched,
            r.num_work_orders_completed + r.num_work_orders_failed +
                r.num_work_orders_discarded);
  EXPECT_EQ(r.num_work_orders_planned,
            r.num_work_orders_completed + r.num_work_orders_dropped);
  EXPECT_EQ(h.coordinator.InflightAttempts(), 0);
}

/// A continuation is booked as a dispatch onto a slot that stays busy: no
/// kThreadIdle fires until the lease ends, and conservation holds.
TEST(CoordinatorLeaseTest, ContinuationIsADispatchOnABusySlot) {
  Harness h(1);
  h.decide = LaunchOnArrival;
  h.coordinator.Admit(0, ScanPlan(4 * 4096), QueryTag{}, 0.0);
  ASSERT_EQ(h.backend.started.size(), 1u);
  h.scheduler.events.clear();

  for (int wo = 1; wo < 4; ++wo) {
    EXPECT_EQ(h.FinishSlot(0, 0.1 * wo), wo);
    EXPECT_TRUE(h.coordinator.context().thread(0)->busy);
    EXPECT_EQ(h.coordinator.context().num_free_threads(), 0);
    EXPECT_EQ(h.coordinator.query(0)->assigned_threads(), 1);
    EXPECT_TRUE(h.scheduler.events.empty()) << "no event while leased";
    const EpisodeResult r = h.Result(0.1 * wo);
    EXPECT_EQ(r.num_work_orders_dispatched, wo + 1);
    EXPECT_EQ(r.num_work_orders_completed, wo);
    EXPECT_EQ(h.coordinator.pipelines().front()->inflight, 1);
  }
  EXPECT_EQ(h.FinishSlot(0, 0.5), -1);  // cursor exhausted: slot back
  for (const SchedulingEvent& e : h.scheduler.events) {
    EXPECT_NE(e.type, SchedulingEventType::kThreadIdle);
  }
  EXPECT_EQ(h.coordinator.query(0), nullptr);  // done and released
  EXPECT_EQ(h.backend.released, std::vector<QueryId>{0});
  EXPECT_EQ(h.backend.started.size(), 4u);
  EXPECT_EQ(h.Result(0.5).num_work_orders_completed, 4);
  ExpectConserved(h, 0.5);
}

/// Terminate closes the query's leases. A continuation the worker claimed
/// before the cancel landed still runs, is discarded, and the query is
/// released exactly once, after it.
TEST(CoordinatorLeaseTest, TerminateStopsLeasesAndReleasesOnce) {
  Harness h(1);
  h.decide = LaunchOnArrival;
  h.coordinator.Admit(0, ScanPlan(8 * 4096), QueryTag{}, 0.0);
  const AttemptResult first = h.Claim(h.Take(0));  // worker claims wo 1
  ASSERT_EQ(first.continued_wo, 1);
  ASSERT_TRUE(h.coordinator.Cancel(0, 0.1));
  EXPECT_TRUE(h.backend.released.empty()) << "wo 1 still runs";
  h.coordinator.Complete(first, 0.2);
  EXPECT_TRUE(h.backend.released.empty());
  EXPECT_TRUE(h.coordinator.context().thread(0)->busy);

  EXPECT_EQ(h.FinishSlot(0, 0.3), -1);  // the closed lease ends
  EXPECT_EQ(h.backend.released, std::vector<QueryId>{0});
  const EpisodeResult r = h.Result(0.3);
  EXPECT_EQ(r.num_work_orders_discarded, 2);
  EXPECT_EQ(r.num_work_orders_completed, 0);
  EXPECT_EQ(r.num_work_orders_dropped, 8);
  ExpectConserved(h, 0.3);
  EXPECT_TRUE(h.coordinator.pipelines().empty());
}

/// A lowered parallelism cap ends a lease at its next claim; once the query
/// is back under the cap the remaining lease continues.
TEST(CoordinatorLeaseTest, LoweredCapEndsALeaseAtItsNextClaim) {
  Harness h(3);
  h.decide = [](const SchedulingEvent& e, const SchedulingContext& ctx) {
    (void)ctx;
    SchedulingDecision d;
    if (e.type == SchedulingEventType::kQueryArrival && e.query == 0) {
      d = Launch(0, 0, /*max_threads=*/2);
    } else if (e.type == SchedulingEventType::kQueryArrival) {
      d.parallelism.push_back({0, 1});  // query 0 down to one slot
    }
    return d;
  };
  h.coordinator.Admit(0, ScanPlan(40 * 4096), QueryTag{}, 0.0);
  ASSERT_EQ(h.backend.outstanding.size(), 2u);
  h.coordinator.Admit(1, ScanPlan(4096), QueryTag{}, 0.1);  // slot 2 free
  EXPECT_EQ(h.coordinator.query(0)->max_threads(), 1);
  EXPECT_EQ(h.FinishSlot(0, 0.2), -1);
  EXPECT_FALSE(h.coordinator.context().thread(0)->busy);
  EXPECT_GE(h.FinishSlot(1, 0.3), 0) << "at the cap the lease goes on";
  EXPECT_EQ(h.coordinator.query(0)->assigned_threads(), 1);
}

/// A pending retry ends its pipeline's leases at their next claim (retries
/// go first); after the retry is dispatched the leases continue.
TEST(CoordinatorLeaseTest, PendingRetryEndsLeasesUntilItIsDispatched) {
  Harness h(2);
  h.config.retry.backoff_seconds = 0.5;
  h.decide = LaunchOnArrival;
  h.coordinator.Admit(0, ScanPlan(40 * 4096), QueryTag{}, 0.0);
  ASSERT_EQ(h.backend.outstanding.size(), 2u);
  const int failed_wo = h.backend.outstanding.front().wo_index;
  EXPECT_EQ(h.FinishSlot(0, 1.0, /*ok=*/false), -1);
  EXPECT_EQ(h.FinishSlot(1, 1.1), -1) << "backing off: no continuation";
  EXPECT_TRUE(h.backend.outstanding.empty());

  EXPECT_EQ(h.coordinator.AssignThreads(1.5), 2);  // backoff elapsed
  ASSERT_EQ(h.backend.outstanding.size(), 2u);
  EXPECT_EQ(h.backend.outstanding.front().wo_index, failed_wo);
  EXPECT_GE(h.FinishSlot(h.backend.outstanding.front().slot, 1.6), 0);
}

/// A pool shrink that finds every slot busy ends the next lease to claim;
/// that slot retires and the other lease continues.
TEST(CoordinatorLeaseTest, PoolShrinkEndsALeaseAtItsNextClaim) {
  Harness h(2);
  h.decide = LaunchOnArrival;
  h.coordinator.Admit(0, ScanPlan(40 * 4096), QueryTag{}, 0.0);
  ASSERT_EQ(h.backend.outstanding.size(), 2u);
  h.coordinator.ChangePool(-1, 0.1);
  EXPECT_EQ(h.FinishSlot(0, 0.2), -1);
  EXPECT_EQ(h.coordinator.context().thread(0), nullptr);
  EXPECT_EQ(h.coordinator.context().total_threads(), 1);
  EXPECT_GE(h.FinishSlot(1, 0.3), 0);
}

/// AssignThreads and a lease holder on another thread race for a
/// pipeline's last fresh work order: exactly one of them gets it. The
/// worker's claim is delayed by a varying spin so that across trials it
/// lands before, inside and after the coordinator's candidate scan.
TEST(CoordinatorLeaseTest, LastIndexRunsOnceWhenDispatchAndLeaseRace) {
  for (int trial = 0; trial < 2000; ++trial) {
    Harness h(1);
    h.decide = [](const SchedulingEvent& e, const SchedulingContext& ctx) {
      (void)ctx;
      if (e.type != SchedulingEventType::kQueryArrival) {
        return SchedulingDecision{};
      }
      return Launch(e.query, 0, /*max_threads=*/2);  // room for slot 1
    };
    h.coordinator.Admit(0, ScanPlan(2 * 4096), QueryTag{}, 0.0);
    const Started first = h.Take(0);
    AttemptResult r = Outcome(first);
    std::atomic<bool> ready{false};
    std::atomic<bool> go{false};
    std::thread worker([&] {
      ready = true;
      while (!go.load()) {
      }
      std::atomic<int> spin{0};
      for (int i = trial % 64; i > 0; --i) spin.fetch_add(1);
      r.continued_wo = first.lease->ClaimContinuation(r);
    });
    while (!ready.load()) {
    }
    go = true;
    h.coordinator.ChangePool(+1, 0.1);  // slot 1 dispatches if it wins
    worker.join();

    const bool coordinator_won = h.backend.started.size() == 2;
    ASSERT_NE(coordinator_won, r.continued_wo == 1) << "trial " << trial;
    if (coordinator_won) {
      ASSERT_EQ(h.backend.started[1].wo_index, 1);
    }
    h.coordinator.Complete(r, 0.2);
    if (r.continued_wo >= 0) {
      h.coordinator.Complete(Outcome(Started{0, first.pipeline, 0, 1}), 0.3);
    } else {
      h.CompleteSlot(1, 0.3);
    }
    const EpisodeResult result = h.Result(0.3);
    EXPECT_EQ(result.num_work_orders_dispatched, 2);
    EXPECT_EQ(result.num_work_orders_completed, 2);
    ExpectConserved(h, 0.3);
    EXPECT_EQ(h.backend.released, std::vector<QueryId>{0});
  }
}

}  // namespace
}  // namespace lsched
