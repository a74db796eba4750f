// Tests for the long-running multi-tenant serving stack (DESIGN.md §11):
// ScriptedIngress packaging, the ServingPolicy admission/fairness/priority
// hooks through both engines, byte-identical deterministic replays of long
// streams, shed-count conservation, priority-inversion absence, weighted
// fair-share convergence, graceful drain with zero work-order loss, chaos
// Sim==Real terminal-status agreement, rolling-window snapshot exactness,
// and the /healthz draining flip.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "exec/real_engine.h"
#include "exec/sim_engine.h"
#include "obs/exporter.h"
#include "plan/plan_builder.h"
#include "sched/heuristics.h"
#include "serve/scripted_ingress.h"
#include "serve/serving_daemon.h"
#include "serve/serving_policy.h"
#include "testing/faultpoint.h"
#include "testing/fuzzer.h"
#include "testing/invariants.h"

namespace lsched {
namespace {

QueryPlan TinyPlan(int64_t rows = 20000) {
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

int CountTerminal(const EpisodeResult& e) {
  return static_cast<int>(e.query_latencies.size()) + e.num_queries_cancelled +
         e.num_queries_failed + e.num_queries_shed;
}

struct InjectorCleaner {
  ~InjectorCleaner() { FaultInjector::Global().Clear(); }
};

// ---------------------------------------------------------------------------
// ScriptedIngress
// ---------------------------------------------------------------------------

TEST(ScriptedIngressTest, SortsEventsAndPackagesBothEngines) {
  std::vector<QueryPlan> plans;
  plans.push_back(TinyPlan(10000));
  plans.push_back(TinyPlan(30000));

  QueryTag hi;
  hi.tenant = 2;
  hi.priority = QueryPriority::kHigh;
  std::vector<IngressEvent> events;
  events.push_back(IngressEvent::Submit(0.5, 1));          // ordinal 1
  events.push_back(IngressEvent::Submit(0.1, 0, hi));      // ordinal 0
  events.push_back(IngressEvent::Cancel(0.3, 1));          // cancels ordinal 1
  ScriptedIngress ingress(std::move(events), std::move(plans));

  EXPECT_EQ(ingress.num_submissions(), 2);
  ASSERT_EQ(ingress.events().size(), 3u);
  // Stable-sorted by time: submit@0.1, cancel@0.3, submit@0.5.
  EXPECT_EQ(ingress.events()[0].kind, IngressEvent::Kind::kSubmit);
  EXPECT_EQ(ingress.events()[1].kind, IngressEvent::Kind::kCancel);
  EXPECT_EQ(ingress.events()[2].kind, IngressEvent::Kind::kSubmit);

  const auto sim = ingress.SimWorkload();
  ASSERT_EQ(sim.size(), 2u);
  EXPECT_DOUBLE_EQ(sim[0].arrival_time, 0.1);
  EXPECT_EQ(sim[0].tag.tenant, 2);
  EXPECT_EQ(sim[0].tag.priority, QueryPriority::kHigh);
  EXPECT_DOUBLE_EQ(sim[1].arrival_time, 0.5);

  const auto cancels = ingress.SimCancels();
  ASSERT_EQ(cancels.size(), 1u);
  EXPECT_EQ(cancels[0].query, 1);  // submission ordinal == sim QueryId
  EXPECT_DOUBLE_EQ(cancels[0].time, 0.3);

  // Real packaging scales times; a cancel-before-arrival stays before it.
  const auto real = ingress.RealWorkload(0.01);
  ASSERT_EQ(real.size(), 2u);
  EXPECT_DOUBLE_EQ(real[1].arrival_offset_seconds, 0.005);
  EXPECT_DOUBLE_EQ(ingress.RealCancels(0.01)[0].time, 0.003);
}

// ---------------------------------------------------------------------------
// ServingPolicy unit behaviour (hand-built context)
// ---------------------------------------------------------------------------

TEST(ServingPolicyTest, AdmissionBoundShedsAndDisplaces) {
  ServingPolicyConfig cfg;
  cfg.max_live_queries = 2;
  ServingPolicy policy(cfg);

  QueryPlan plan = TinyPlan();
  QueryState low0(0, plan, 0.0), low1(1, plan, 0.0), low2(2, plan, 1.0),
      high(3, plan, 2.0), high2(4, plan, 3.0);
  QueryTag low_tag;
  low_tag.priority = QueryPriority::kLow;
  low0.set_tag(low_tag);
  low1.set_tag(low_tag);
  low2.set_tag(low_tag);
  QueryTag high_tag;
  high_tag.priority = QueryPriority::kHigh;
  high.set_tag(high_tag);
  high2.set_tag(high_tag);

  SchedulingContext ctx;
  ctx.Reset();
  // Below the bound: everything is admitted.
  EXPECT_TRUE(policy.OnAdmission(low0, ctx, 0.0).admit);
  ctx.AddQuery(&low0);
  EXPECT_TRUE(policy.OnAdmission(low1, ctx, 0.0).admit);
  ctx.AddQuery(&low1);

  // At the bound, same priority: no strictly-lower victim exists, so shed.
  const AdmissionVerdict shed = policy.OnAdmission(low2, ctx, 1.0);
  EXPECT_FALSE(shed.admit);
  EXPECT_EQ(policy.num_shed(), 1);

  // At the bound, higher priority: admit by displacing the NEWEST pending
  // query of the lowest class (id 1, still ADMITTED).
  const AdmissionVerdict disp = policy.OnAdmission(high, ctx, 2.0);
  EXPECT_TRUE(disp.admit);
  EXPECT_EQ(disp.displace, 1);
  EXPECT_EQ(policy.num_displacements(), 1);
  // Mirror what the engine does with that verdict: the victim leaves the
  // live set and the arrival joins it.
  ctx.RemoveQuery(low1.id());
  ctx.AddQuery(&high);

  // A RUNNING query is never displaced (drain-don't-preempt), and a pending
  // query of the same class is not displaced either: shed.
  EXPECT_TRUE(low0.TransitionTo(QueryStatus::kRunning));
  const AdmissionVerdict shed2 = policy.OnAdmission(high2, ctx, 3.0);
  EXPECT_FALSE(shed2.admit);
  EXPECT_EQ(policy.num_shed(), 2);

  // Tenant accounting saw every consultation.
  const TenantStats* t0 = policy.tenants().stats(kDefaultTenant);
  ASSERT_NE(t0, nullptr);
  EXPECT_EQ(t0->arrived, 5);
  EXPECT_EQ(t0->admitted, 3);
}

TEST(ServingPolicyTest, FilterOrdersByPriorityThenWeightedDeficit) {
  ServingPolicyConfig cfg;
  cfg.tenant_weights = {{1, 4.0}};  // tenant 1 is entitled to 4x
  ServingPolicy policy(cfg);

  QueryPlan plan = TinyPlan();
  QueryState a(0, plan, 0.0), b(1, plan, 0.0), c(2, plan, 0.0);
  QueryTag t1;
  t1.tenant = 1;
  a.set_tag(t1);  // tenant 1, normal priority
  QueryTag t0_high;
  t0_high.priority = QueryPriority::kHigh;
  b.set_tag(t0_high);  // tenant 0, high priority
  // c: tenant 0, normal priority.
  a.AddAttainedService(4.0);  // weighted: 4/4 = 1.0
  c.AddAttainedService(2.0);  // weighted: 2/1 = 2.0

  SchedulingContext ctx;
  ctx.Reset();
  ctx.AddQuery(&a);
  ctx.AddQuery(&b);
  ctx.AddQuery(&c);

  SchedulingDecision d;
  d.pipelines.push_back(PipelineChoice{2, 0, 1});
  d.pipelines.push_back(PipelineChoice{0, 0, 1});
  d.pipelines.push_back(PipelineChoice{1, 0, 1});
  policy.FilterDecision(&d, ctx);

  ASSERT_EQ(d.pipelines.size(), 3u);
  // High priority first; then within kNormal the smaller weighted-service
  // (tenant 1's query a at 1.0 vs tenant 0's query c at 2.0).
  EXPECT_EQ(d.pipelines[0].query, 1);
  EXPECT_EQ(d.pipelines[1].query, 0);
  EXPECT_EQ(d.pipelines[2].query, 2);

  // Weighted thread caps appended for every live query (4:1 split of the
  // context's threads when two tenants are live).
  for (int i = 0; i < 5; ++i) {
    ThreadInfo t;
    t.id = i;
    ctx.AddThread(t);
  }
  d.parallelism.clear();
  policy.FilterDecision(&d, ctx);
  ASSERT_EQ(d.parallelism.size(), 3u);
  for (const ParallelismChoice& p : d.parallelism) {
    const QueryState* q = ctx.FindQuery(p.query);
    ASSERT_NE(q, nullptr);
    EXPECT_EQ(p.max_threads, q->tag().tenant == 1 ? 4 : 1);
  }
}

// ---------------------------------------------------------------------------
// Deterministic simulated serving
// ---------------------------------------------------------------------------

TEST(SimServingTest, ByteIdenticalThousandQueryReplay) {
  FuzzerOptions opts;
  opts.num_tenants = 3;
  opts.high_priority_fraction = 0.2;
  opts.low_priority_fraction = 0.3;
  opts.script_queries = 1000;
  opts.script_arrival_mean_seconds = 0.002;  // overload: force real sheds
  opts.script_cancel_fraction = 0.08;
  WorkloadFuzzer fuzzer(1234, opts);
  const auto catalog = fuzzer.FuzzCatalog();
  const ScriptedIngress ingress = fuzzer.FuzzIngress(*catalog);
  ASSERT_EQ(ingress.num_submissions(), 1000);

  auto run = [&ingress]() {
    ServingDaemonConfig cfg;
    cfg.policy.max_live_queries = 8;
    cfg.policy.tenant_weights = {{0, 1.0}, {1, 2.0}, {2, 4.0}};
    cfg.sim.num_threads = 4;
    cfg.sim.seed = 99;
    ServingDaemon daemon(cfg);
    FifoScheduler fifo;
    return daemon.RunScript(ingress, &fifo);
  };

  const EpisodeResult a = run();
  const EpisodeResult b = run();
  EXPECT_EQ(DiffEpisodeResults(a, b), "") << "serving replay diverged";

  // Every submission reached exactly one terminal state.
  ASSERT_EQ(a.final_statuses.size(), 1000u);
  for (QueryStatus s : a.final_statuses) EXPECT_TRUE(IsTerminalStatus(s));
  EXPECT_EQ(CountTerminal(a), 1000);
  // The stream genuinely exercised the serving machinery.
  EXPECT_GT(a.num_queries_shed, 0);
  EXPECT_GT(static_cast<int>(a.query_latencies.size()), 0);
}

TEST(SimServingTest, ShedConservationUnderOverload) {
  ServingDaemonConfig cfg;
  cfg.policy.max_live_queries = 8;
  cfg.policy.displace_on_priority = false;  // pure shedding
  cfg.sim.num_threads = 2;
  ServingDaemon daemon(cfg);

  std::vector<QueryPlan> plans;
  plans.push_back(TinyPlan(40000));
  std::vector<IngressEvent> events;
  for (int i = 0; i < 60; ++i) {
    QueryTag tag;
    tag.tenant = i % 2;
    events.push_back(IngressEvent::Submit(0.001 * i, 0, tag));
  }
  ScriptedIngress ingress(std::move(events), std::move(plans));

  FifoScheduler fifo;
  const EpisodeResult result = daemon.RunScript(ingress, &fifo);

  ASSERT_EQ(result.final_statuses.size(), 60u);
  // admitted == completed + cancelled + failed + shed, with real shedding.
  EXPECT_EQ(CountTerminal(result), 60);
  EXPECT_GT(result.num_queries_shed, 0);
  EXPECT_GT(static_cast<int>(result.query_latencies.size()), 0);
  // The policy's door-shed count is the engine's shed count (displacement
  // off, so no other path sheds).
  EXPECT_EQ(daemon.policy().num_shed(), result.num_queries_shed);

  // Per-tenant conservation: every consultation ended in a terminal state.
  int64_t arrived = 0, terminal = 0;
  for (TenantId t : daemon.tenants().ids()) {
    const TenantStats* s = daemon.tenants().stats(t);
    ASSERT_NE(s, nullptr);
    arrived += s->arrived;
    terminal += s->Terminal();
  }
  EXPECT_EQ(arrived, 60);
  EXPECT_EQ(terminal, 60);
}

TEST(SimServingTest, NoPriorityInversionUnderLowPriorityFlood) {
  ServingDaemonConfig cfg;
  cfg.policy.max_live_queries = 8;
  cfg.sim.num_threads = 4;
  ServingDaemon daemon(cfg);

  std::vector<QueryPlan> plans;
  plans.push_back(TinyPlan(40000));
  std::vector<IngressEvent> events;
  QueryTag low;
  low.tenant = 0;
  low.priority = QueryPriority::kLow;
  for (int i = 0; i < 48; ++i) {
    events.push_back(IngressEvent::Submit(0.01 * i, 0, low));
  }
  QueryTag high;
  high.tenant = 1;
  high.priority = QueryPriority::kHigh;
  for (int i = 0; i < 6; ++i) {
    events.push_back(IngressEvent::Submit(0.2 + 0.05 * i, 0, high));
  }
  ScriptedIngress ingress(std::move(events), std::move(plans));

  FifoScheduler fifo;
  const EpisodeResult result = daemon.RunScript(ingress, &fifo);
  EXPECT_EQ(CountTerminal(result), 54);

  // Every high-priority query completed — the flood never shed or starved
  // one (displacement at the admission door + decision-filter ordering).
  const TenantStats* hi = daemon.tenants().stats(1);
  ASSERT_NE(hi, nullptr);
  EXPECT_EQ(hi->completed, 6);
  EXPECT_EQ(hi->shed, 0);
  EXPECT_GT(daemon.policy().num_displacements(), 0);

  // And they completed faster than the flood's survivors.
  const TenantStats* lo = daemon.tenants().stats(0);
  ASSERT_NE(lo, nullptr);
  ASSERT_GT(lo->completed, 0);
  EXPECT_LT(hi->latency_p50.Value(), lo->latency_p50.Value());
}

/// Observes per-tenant attained-service shares at the moment the weighted
/// tenant finishes its stream (while contention is still live).
class ShareProbe : public ServingPolicy {
 public:
  ShareProbe(ServingPolicyConfig cfg, int heavy_tenant, int64_t heavy_total)
      : ServingPolicy(std::move(cfg)),
        heavy_tenant_(heavy_tenant),
        heavy_total_(heavy_total) {}

  void OnQueryTerminal(const QueryState& q, double now) override {
    ServingPolicy::OnQueryTerminal(q, now);
    if (heavy_service_ < 0.0) {
      const TenantStats* heavy = tenants().stats(heavy_tenant_);
      if (heavy != nullptr && heavy->completed == heavy_total_) {
        heavy_service_ = heavy->service_seconds;
        const TenantStats* light = tenants().stats(1 - heavy_tenant_);
        light_service_ = light != nullptr ? light->service_seconds : 0.0;
      }
    }
  }

  double heavy_service() const { return heavy_service_; }
  double light_service() const { return light_service_; }

 private:
  int heavy_tenant_;
  int64_t heavy_total_;
  double heavy_service_ = -1.0;
  double light_service_ = -1.0;
};

TEST(SimServingTest, WeightedFairShareConverges) {
  ServingPolicyConfig pcfg;
  pcfg.max_live_queries = 0;  // unbounded: fairness, not admission
  pcfg.tenant_weights = {{0, 1.0}, {1, 3.0}};
  ShareProbe probe(pcfg, /*heavy_tenant=*/1, /*heavy_total=*/20);

  SimEngineConfig cfg;
  cfg.num_threads = 4;
  cfg.hooks = &probe;
  SimEngine engine(cfg);

  std::vector<QuerySubmission> workload;
  for (int i = 0; i < 40; ++i) {
    QuerySubmission sub;
    sub.plan = TinyPlan(40000);
    sub.arrival_time = 1e-4 * i;
    sub.tag.tenant = i % 2;  // interleaved equal load per tenant
    workload.push_back(std::move(sub));
  }
  FifoScheduler fifo;
  const EpisodeResult result = engine.Run(workload, &fifo);
  EXPECT_EQ(static_cast<int>(result.query_latencies.size()), 40);

  // When the weight-3 tenant finished its 20 queries, it must have attained
  // clearly more service than the weight-1 tenant — the shares track the
  // 3:1 weights during contention (exact ratio depends on quantization of
  // 4 threads, hence the loose bound).
  ASSERT_GE(probe.heavy_service(), 0.0) << "probe never triggered";
  EXPECT_GT(probe.heavy_service(), 1.5 * probe.light_service())
      << "heavy=" << probe.heavy_service()
      << " light=" << probe.light_service();
}

// ---------------------------------------------------------------------------
// Chaos: Sim == Real terminal statuses with the serving stack installed
// ---------------------------------------------------------------------------

TEST(ChaosServingTest, SimAndRealAgreeOnTerminalStatuses) {
  FuzzerOptions opts;
  opts.chaos = true;
  opts.min_queries = 6;
  opts.max_queries = 10;
  opts.num_tenants = 3;
  opts.high_priority_fraction = 0.25;
  opts.low_priority_fraction = 0.25;
  WorkloadFuzzer fuzzer(77, opts);
  InjectorCleaner cleaner;

  for (int round = 0; round < 3; ++round) {
    FuzzedWorkload w = fuzzer.NextWorkload();
    const size_t n = w.sim_queries.size();

    // Unbounded admission: chaos terminal statuses must stay timing-
    // independent, so the serving layer must not shed based on load here.
    ServingPolicyConfig pcfg;
    pcfg.max_live_queries = 0;

    ServingPolicy sim_policy(pcfg);
    FaultInjector::Global().Install(w.faults);
    SimEngineConfig scfg;
    scfg.num_threads = 4;
    scfg.cancels = w.cancels;
    scfg.hooks = &sim_policy;
    SimEngine sim(scfg);
    FifoScheduler sim_fifo;
    const EpisodeResult sim_result = sim.Run(w.sim_queries, &sim_fifo);

    ServingPolicy real_policy(pcfg);
    FaultInjector::Global().Install(w.faults);  // fresh per-rule RNG state
    RealEngineConfig rcfg;
    rcfg.num_threads = 4;
    rcfg.chunk_rows = 128;
    rcfg.cancels = w.cancels;
    rcfg.hooks = &real_policy;
    RealEngine real(w.catalog.get(), rcfg);
    FifoScheduler real_fifo;
    const RealRunResult real_result = real.Run(w.real_queries, &real_fifo);

    ASSERT_EQ(sim_result.final_statuses.size(), n);
    ASSERT_EQ(real_result.episode.final_statuses.size(), n);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(sim_result.final_statuses[i], w.expected_statuses[i])
          << "sim query " << i << " (seed " << w.seed << ")";
      EXPECT_EQ(real_result.episode.final_statuses[i], w.expected_statuses[i])
          << "real query " << i << " (seed " << w.seed << ")";
    }

    // Tenant accounting agrees across engines (same tags, same statuses).
    for (TenantId t : sim_policy.tenants().ids()) {
      const TenantStats* s = sim_policy.tenants().stats(t);
      const TenantStats* r = real_policy.tenants().stats(t);
      ASSERT_NE(r, nullptr) << "tenant " << t << " missing on real";
      EXPECT_EQ(s->completed, r->completed) << "tenant " << t;
      EXPECT_EQ(s->cancelled, r->cancelled) << "tenant " << t;
      EXPECT_EQ(s->failed, r->failed) << "tenant " << t;
      EXPECT_EQ(s->shed, r->shed) << "tenant " << t;
    }
    FaultInjector::Global().Clear();
  }
}

// ---------------------------------------------------------------------------
// Live serving (RealEngine daemon mode)
// ---------------------------------------------------------------------------

TEST(RealServingTest, ReplayedStreamDrainsWithFullAccounting) {
  FuzzerOptions opts;
  opts.num_tenants = 2;
  opts.high_priority_fraction = 0.2;
  opts.low_priority_fraction = 0.2;
  opts.script_queries = 40;
  opts.script_cancel_fraction = 0.1;
  WorkloadFuzzer fuzzer(5, opts);
  const auto catalog = fuzzer.FuzzCatalog();
  const ScriptedIngress ingress = fuzzer.FuzzIngress(*catalog);

  ServingDaemonConfig cfg;
  cfg.policy.max_live_queries = 64;
  cfg.real.num_threads = 4;
  cfg.real.chunk_rows = 256;
  cfg.real.flush_window_queries = 4;
  ServingDaemon daemon(cfg);
  FifoScheduler fifo;
  daemon.Start(catalog.get(), &fifo);
  EXPECT_TRUE(daemon.serving());

  const std::vector<QueryId> ids = daemon.Replay(ingress, /*time_scale=*/0.0);
  ASSERT_EQ(static_cast<int>(ids.size()), ingress.num_submissions());
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(ids[i], static_cast<QueryId>(i)) << "ids must be contiguous";
  }

  // Let the stream run to completion before draining: Stop() sheds
  // queued-but-unadmitted work by design, and this test is about the
  // zero-loss completion path, not the drain-shed path.
  {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (std::chrono::steady_clock::now() < deadline &&
           CountTerminal(daemon.Snapshot()) < static_cast<int>(ids.size())) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

  const RealRunResult result = daemon.Stop();
  EXPECT_FALSE(daemon.serving());

  // Zero-loss: every submission terminal, conservation exact.
  ASSERT_EQ(result.episode.final_statuses.size(), ids.size());
  for (QueryStatus s : result.episode.final_statuses) {
    EXPECT_TRUE(IsTerminalStatus(s));
  }
  EXPECT_EQ(CountTerminal(result.episode), static_cast<int>(ids.size()));
  EXPECT_GT(static_cast<int>(result.episode.query_latencies.size()), 0);

  int64_t arrived = 0, terminal = 0;
  for (TenantId t : daemon.tenants().ids()) {
    const TenantStats* s = daemon.tenants().stats(t);
    arrived += s->arrived;
    terminal += s->Terminal();
  }
  EXPECT_EQ(arrived, static_cast<int64_t>(ids.size()));
  EXPECT_EQ(terminal, static_cast<int64_t>(ids.size()));
}

TEST(RealServingTest, GracefulDrainRacingSubmittersLosesNothing) {
  FuzzerOptions opts;
  WorkloadFuzzer fuzzer(11, opts);
  const auto catalog = fuzzer.FuzzCatalog();
  std::vector<QueryPlan> plans;
  for (int i = 0; i < 3; ++i) plans.push_back(fuzzer.FuzzPlan(*catalog));

  ServingDaemonConfig cfg;
  cfg.policy.max_live_queries = 16;
  cfg.real.num_threads = 3;
  cfg.real.chunk_rows = 256;
  ServingDaemon daemon(cfg);
  FifoScheduler fifo;
  daemon.Start(catalog.get(), &fifo);

  constexpr int kSubmitters = 3;
  std::vector<std::vector<QueryId>> accepted(kSubmitters);
  std::vector<std::thread> submitters;
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&, s] {
      for (int i = 0; i < 400; ++i) {
        QueryTag tag;
        tag.tenant = s;
        const QueryId id = daemon.Submit(plans[i % plans.size()], tag);
        if (id == kInvalidQuery) break;  // draining: ingress closed
        accepted[s].push_back(id);
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  const RealRunResult result = daemon.Stop();  // races the submitters
  for (std::thread& t : submitters) t.join();

  std::vector<QueryId> all;
  for (const auto& ids : accepted) {
    all.insert(all.end(), ids.begin(), ids.end());
  }
  std::sort(all.begin(), all.end());

  // Every accepted id exists, exactly once, and reached a terminal state:
  // nothing lost, nothing double-counted when Stop() raced dispatch.
  ASSERT_EQ(result.episode.final_statuses.size(), all.size());
  for (size_t i = 0; i < all.size(); ++i) {
    ASSERT_EQ(all[i], static_cast<QueryId>(i))
        << "accepted ids must be exactly 0..N-1";
    EXPECT_TRUE(IsTerminalStatus(result.episode.final_statuses[i]));
  }
  EXPECT_EQ(CountTerminal(result.episode), static_cast<int>(all.size()));
}

TEST(RealServingTest, RollingSnapshotIsExactMidStream) {
  FuzzerOptions opts;
  WorkloadFuzzer fuzzer(21, opts);
  const auto catalog = fuzzer.FuzzCatalog();
  QueryPlan plan = fuzzer.FuzzPlan(*catalog);

  ServingDaemonConfig cfg;
  cfg.real.num_threads = 2;
  cfg.real.chunk_rows = 256;
  cfg.real.flush_window_queries = 1;  // refresh the snapshot every terminal
  ServingDaemon daemon(cfg);
  FifoScheduler fifo;
  daemon.Start(catalog.get(), &fifo);

  auto wait_for_terminal = [&](int target) {
    EpisodeResult snap;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (std::chrono::steady_clock::now() < deadline) {
      snap = daemon.Snapshot();
      if (CountTerminal(snap) >= target) return snap;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ADD_FAILURE() << "timed out waiting for " << target
                  << " terminal queries in the snapshot";
    return snap;
  };

  // Mid-stream snapshots must be internally exact without any episode-end
  // flush: one query at a time, assert after each.
  for (int i = 0; i < 3; ++i) {
    ASSERT_NE(daemon.Submit(plan), kInvalidQuery);
    const EpisodeResult snap = wait_for_terminal(i + 1);
    EXPECT_EQ(CountTerminal(snap), i + 1);
    ASSERT_EQ(snap.query_latencies.size(), snap.query_arrivals.size());
    ASSERT_EQ(snap.query_latencies.size(), snap.query_completions.size());
    double sum = 0.0;
    for (size_t k = 0; k < snap.query_latencies.size(); ++k) {
      EXPECT_NEAR(snap.query_latencies[k],
                  snap.query_completions[k] - snap.query_arrivals[k], 1e-12);
      sum += snap.query_latencies[k];
    }
    if (!snap.query_latencies.empty()) {
      EXPECT_NEAR(snap.avg_latency, sum / snap.query_latencies.size(), 1e-12)
          << "snapshot aggregates must be recomputed per window";
    }
  }

  const RealRunResult result = daemon.Stop();
  EXPECT_EQ(CountTerminal(result.episode), 3);
}

// ---------------------------------------------------------------------------
// /healthz draining flip
// ---------------------------------------------------------------------------

std::string HttpGet(int port, const std::string& target) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  const std::string req = "GET " + target + " HTTP/1.0\r\n\r\n";
  ::send(fd, req.data(), req.size(), 0);
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST(ServingHealthzTest, DrainWindowAnswers503) {
  obs::MetricsExporter exporter;
  ASSERT_TRUE(exporter.Start(0));
  obs::SetDraining(false);
  const std::string healthy = HttpGet(exporter.port(), "/healthz");
  EXPECT_NE(healthy.find("200 OK"), std::string::npos);
  EXPECT_NE(healthy.find("ok"), std::string::npos);

  obs::SetDraining(true);
  const std::string draining = HttpGet(exporter.port(), "/healthz");
  EXPECT_NE(draining.find("503"), std::string::npos);
  EXPECT_NE(draining.find("draining"), std::string::npos);

  obs::SetDraining(false);
  const std::string recovered = HttpGet(exporter.port(), "/healthz");
  EXPECT_NE(recovered.find("200 OK"), std::string::npos);
  exporter.Stop();
}

}  // namespace
}  // namespace lsched
