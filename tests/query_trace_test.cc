// Tests for the per-query lifetime trace subsystem (DESIGN.md §8.2): the
// exact-sum latency-decomposition invariant over seeded multi-tenant
// serving runs, bitwise Sim replay determinism, the Sim/Real differential
// (identical structural decompositions and the shared DeriveBreakdown
// round-trip both engines must satisfy), exact breakdowns past the
// per-query edge cap, guard-fallback edges, trace CSV round-trip, the
// `lsched_cli explain` renderer golden, and the TenantTable SLO/burn-rate
// and refused-latency ledgers the traces feed.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "exec/real_engine.h"
#include "exec/sim_engine.h"
#include "obs/decision_log.h"
#include "obs/obs.h"
#include "obs/query_trace.h"
#include "plan/plan_builder.h"
#include "sched/guarded_policy.h"
#include "sched/heuristics.h"
#include "serve/scripted_ingress.h"
#include "serve/serving_daemon.h"
#include "serve/serving_policy.h"
#include "testing/fuzzer.h"

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

/// A seeded multi-tenant overload script: enough concurrent arrivals that
/// the admission bound sheds and displaces, with mixed priorities so the
/// fairness machinery runs too.
ScriptedIngress OverloadScript(int num_queries) {
  std::vector<QueryPlan> plans;
  std::vector<IngressEvent> events;
  for (int i = 0; i < num_queries; ++i) {
    QueryTag tag;
    tag.tenant = static_cast<TenantId>(i % 3);
    if (i % 7 == 3) tag.priority = QueryPriority::kHigh;
    if (i % 3 == 1) tag.priority = QueryPriority::kLow;
    plans.push_back(TinyPlan(20000 + 1000 * (i % 5)));
    events.push_back(IngressEvent::Submit(0.001 * i, i, tag));
  }
  return ScriptedIngress(std::move(events), std::move(plans));
}

EpisodeResult RunOverload(int num_queries, int max_live) {
  const ScriptedIngress script = OverloadScript(num_queries);
  ServingDaemonConfig cfg;
  cfg.policy.max_live_queries = max_live;
  cfg.policy.tenant_weights = {{0, 1.0}, {1, 2.0}, {2, 3.0}};
  cfg.policy.tenant_slos = {{0, {0.05, 0.9}}, {1, {0.05, 0.9}},
                            {2, {0.05, 0.9}}};
  cfg.sim.num_threads = 4;
  cfg.sim.seed = 17;
  ServingDaemon daemon(cfg);
  SjfScheduler sjf;
  return daemon.RunScript(script, &sjf);
}

// ---------------------------------------------------------------------------
// Exact-sum decomposition invariant
// ---------------------------------------------------------------------------

TEST(LatencyDecompositionTest, SegmentsSumExactlyToEndToEndLatency) {
  const EpisodeResult r = RunOverload(/*num_queries=*/40, /*max_live=*/8);
  ASSERT_EQ(r.final_statuses.size(), 40u);
  ASSERT_EQ(r.query_breakdowns.size(), 40u);

  int64_t admission = 0, queue = 0, service = 0, stall = 0, total = 0;
  int decomposed = 0;
  for (size_t i = 0; i < r.query_breakdowns.size(); ++i) {
    const LatencyBreakdown& b = r.query_breakdowns[i];
    ASSERT_TRUE(b.valid) << "query " << i << " has no decomposition";
    // The invariant: integer-nanosecond segments telescope exactly — no
    // epsilon, no remainder bucket.
    EXPECT_EQ(b.SumNs(), b.total_ns) << "query " << i;
    EXPECT_GE(b.admission_ns, 0) << "query " << i;
    EXPECT_GE(b.queue_ns, 0) << "query " << i;
    EXPECT_GE(b.service_ns, 0) << "query " << i;
    EXPECT_GE(b.stall_ns, 0) << "query " << i;
    if (r.final_statuses[i] == QueryStatus::kDone) {
      EXPECT_GT(b.dispatches, 0) << "query " << i;
      EXPECT_GT(b.service_ns, 0) << "query " << i;
    }
    if (r.final_statuses[i] == QueryStatus::kShed) {
      // Shed covers both door-refusals (refused at the arrival instant,
      // so possibly a zero-length lifetime) and displacement victims,
      // which may have launched pipelines and accrued queue/service time
      // before a higher-priority arrival evicted them.  Either way the
      // segments must telescope (checked above via SumNs == total_ns).
      EXPECT_GE(b.total_ns, 0) << "query " << i;
    }
    admission += b.admission_ns;
    queue += b.queue_ns;
    service += b.service_ns;
    stall += b.stall_ns;
    total += b.total_ns;
    ++decomposed;
  }
  // The episode aggregates are exactly the per-query sums.
  EXPECT_EQ(r.num_queries_decomposed, decomposed);
  EXPECT_EQ(r.sum_admission_wait_ns, admission);
  EXPECT_EQ(r.sum_queue_wait_ns, queue);
  EXPECT_EQ(r.sum_service_time_ns, service);
  EXPECT_EQ(r.sum_stall_time_ns, stall);
  EXPECT_EQ(r.sum_latency_ns, total);
  // The overload bound actually bit (otherwise this test is a no-op).
  EXPECT_GT(r.num_queries_shed, 0);
}

TEST(LatencyDecompositionTest, SimReplayIsBitIdentical) {
  const EpisodeResult a = RunOverload(/*num_queries=*/30, /*max_live=*/8);
  const EpisodeResult b = RunOverload(/*num_queries=*/30, /*max_live=*/8);
  ASSERT_EQ(a.query_breakdowns.size(), b.query_breakdowns.size());
  for (size_t i = 0; i < a.query_breakdowns.size(); ++i) {
    const LatencyBreakdown& x = a.query_breakdowns[i];
    const LatencyBreakdown& y = b.query_breakdowns[i];
    EXPECT_EQ(x.admission_ns, y.admission_ns) << i;
    EXPECT_EQ(x.queue_ns, y.queue_ns) << i;
    EXPECT_EQ(x.service_ns, y.service_ns) << i;
    EXPECT_EQ(x.stall_ns, y.stall_ns) << i;
    EXPECT_EQ(x.total_ns, y.total_ns) << i;
    EXPECT_EQ(x.dispatches, y.dispatches) << i;
    EXPECT_EQ(x.retries, y.retries) << i;
  }
}

// ---------------------------------------------------------------------------
// Sim == Real differential
// ---------------------------------------------------------------------------

// Both engines run the same seeded multi-tenant workload through the same
// ServingPolicy. Real wall-clock timings differ from Sim's virtual clock,
// so the *values* of the segments differ — what must agree is the
// structure: the same terminal statuses, the exact-sum invariant on every
// decomposition, and (below) the engine-independent
// DeriveBreakdown round-trip that defines "bit-identical decomposition".
TEST(SimRealDifferentialTest, DecompositionsAgreeStructurally) {
  FuzzerOptions opts;
  opts.min_queries = 8;
  opts.max_queries = 12;
  opts.num_tenants = 3;
  opts.high_priority_fraction = 0.25;
  opts.low_priority_fraction = 0.25;
  WorkloadFuzzer fuzzer(1234, opts);

  for (int round = 0; round < 3; ++round) {
    FuzzedWorkload w = fuzzer.NextWorkload();
    const size_t n = w.sim_queries.size();

    ServingPolicyConfig pcfg;
    pcfg.max_live_queries = 0;  // unbounded: statuses timing-independent

    ServingPolicy sim_policy(pcfg);
    SimEngineConfig scfg;
    scfg.num_threads = 4;
    scfg.cancels = w.cancels;
    scfg.hooks = &sim_policy;
    SimEngine sim(scfg);
    FifoScheduler sim_fifo;
    const EpisodeResult sim_r = sim.Run(w.sim_queries, &sim_fifo);

    ServingPolicy real_policy(pcfg);
    RealEngineConfig rcfg;
    rcfg.num_threads = 4;
    rcfg.chunk_rows = 128;
    rcfg.cancels = w.cancels;
    rcfg.hooks = &real_policy;
    RealEngine real(w.catalog.get(), rcfg);
    FifoScheduler real_fifo;
    const RealRunResult real_r = real.Run(w.real_queries, &real_fifo);

    ASSERT_EQ(sim_r.query_breakdowns.size(), n);
    ASSERT_EQ(real_r.episode.query_breakdowns.size(), n);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(sim_r.final_statuses[i], real_r.episode.final_statuses[i])
          << "query " << i << " (seed " << w.seed << ")";
      const LatencyBreakdown& s = sim_r.query_breakdowns[i];
      const LatencyBreakdown& r = real_r.episode.query_breakdowns[i];
      ASSERT_TRUE(s.valid) << "sim query " << i;
      ASSERT_TRUE(r.valid) << "real query " << i;
      EXPECT_EQ(s.SumNs(), s.total_ns) << "sim query " << i;
      EXPECT_EQ(r.SumNs(), r.total_ns) << "real query " << i;
      if (sim_r.final_statuses[i] == QueryStatus::kDone) {
        EXPECT_GT(s.dispatches, 0) << "sim query " << i;
        EXPECT_GT(r.dispatches, 0) << "real query " << i;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// DeriveBreakdown round-trip: the bit-identity both engines must satisfy
// ---------------------------------------------------------------------------

// DeriveBreakdown replays a published trace's edge stream through the same
// integer-nanosecond state machine the engines run online. For every
// record with no dropped edges — from EITHER engine — the result must
// reproduce the engine-computed breakdown bit-for-bit. This is the
// differential that makes "Sim and Real decompose identically" precise
// without comparing virtual seconds to wall seconds.
TEST(DeriveBreakdownTest, RoundTripsBitIdenticalOnBothEngines) {
  obs::SetEnabled(true);
  obs::QueryTraceLog::Global().SetCapture(true);
  obs::QueryTraceLog::Global().Clear();

  // Sim side: the overload script (sheds + displacements in the stream).
  RunOverload(/*num_queries=*/30, /*max_live=*/8);
  const auto sim_records = obs::QueryTraceLog::Global().Snapshot();
  ASSERT_GE(sim_records.size(), 30u);

  // Real side: a fuzzed workload on real threads.
  obs::QueryTraceLog::Global().Clear();
  FuzzerOptions opts;
  opts.min_queries = 8;
  opts.max_queries = 10;
  opts.num_tenants = 3;
  WorkloadFuzzer fuzzer(99, opts);
  FuzzedWorkload w = fuzzer.NextWorkload();
  ServingPolicyConfig pcfg;
  pcfg.max_live_queries = 0;
  ServingPolicy policy(pcfg);
  RealEngineConfig rcfg;
  rcfg.num_threads = 4;
  rcfg.chunk_rows = 128;
  rcfg.cancels = w.cancels;
  rcfg.hooks = &policy;
  RealEngine real(w.catalog.get(), rcfg);
  FifoScheduler fifo;
  real.Run(w.real_queries, &fifo);
  const auto real_records = obs::QueryTraceLog::Global().Snapshot();
  ASSERT_GE(real_records.size(), w.real_queries.size());

  int checked = 0;
  for (const auto* records : {&sim_records, &real_records}) {
    for (const obs::QueryTraceRecord& rec : *records) {
      if (rec.dropped_edges > 0) continue;
      ASSERT_FALSE(rec.edges.empty()) << "query " << rec.query;
      const LatencyBreakdown derived = obs::DeriveBreakdown(rec);
      EXPECT_EQ(derived.admission_ns, rec.breakdown.admission_ns)
          << rec.engine << " query " << rec.query;
      EXPECT_EQ(derived.queue_ns, rec.breakdown.queue_ns)
          << rec.engine << " query " << rec.query;
      EXPECT_EQ(derived.service_ns, rec.breakdown.service_ns)
          << rec.engine << " query " << rec.query;
      EXPECT_EQ(derived.stall_ns, rec.breakdown.stall_ns)
          << rec.engine << " query " << rec.query;
      EXPECT_EQ(derived.total_ns, rec.breakdown.total_ns)
          << rec.engine << " query " << rec.query;
      EXPECT_EQ(derived.dispatches, rec.breakdown.dispatches)
          << rec.engine << " query " << rec.query;
      EXPECT_EQ(derived.retries, rec.breakdown.retries)
          << rec.engine << " query " << rec.query;
      ++checked;
    }
  }
  EXPECT_GT(checked, 30) << "cap must not have swallowed every record";
  obs::QueryTraceLog::Global().Clear();
}

// ---------------------------------------------------------------------------
// Past the per-query edge cap
// ---------------------------------------------------------------------------

/// Checks every published record of one run: each breakdown telescopes
/// exactly and spans the query's lifetime, and the per-query dispatch
/// counts add up to the episode's, which holds only if the decomposition
/// saw the edges the cap kept out of the trace. Returns how many records
/// went past the cap.
int CheckCappedRecords(const std::vector<obs::QueryTraceRecord>& records,
                       const EpisodeResult& r) {
  int capped = 0;
  int64_t dispatches = 0;
  for (const obs::QueryTraceRecord& rec : records) {
    const LatencyBreakdown& b = rec.breakdown;
    EXPECT_EQ(b.SumNs(), b.total_ns) << rec.engine << " query " << rec.query;
    EXPECT_EQ(b.total_ns,
              LatencyNs(rec.terminal_time) - LatencyNs(rec.arrival_time))
        << rec.engine << " query " << rec.query;
    dispatches += b.dispatches;
    if (rec.dropped_edges == 0) continue;
    ++capped;
    EXPECT_EQ(rec.edges.size(),
              static_cast<size_t>(obs::kMaxTraceEdgesPerQuery) + 1);
    EXPECT_EQ(rec.edges.back().kind, obs::TraceEdgeKind::kTerminal);
    const auto stored = std::count_if(
        rec.edges.begin(), rec.edges.end(), [](const obs::TraceEdge& e) {
          return e.kind == obs::TraceEdgeKind::kDispatch;
        });
    EXPECT_GT(b.dispatches, stored) << rec.engine << " query " << rec.query;
  }
  EXPECT_EQ(dispatches, r.num_work_orders_dispatched);
  return capped;
}

TEST(QueryTraceCapTest, CappedQueriesKeepAnExactBreakdown) {
  obs::SetEnabled(true);
  obs::QueryTraceLog::Global().SetCapture(true);

  // Sim: one query over 8M input rows beside a small one.
  obs::QueryTraceLog::Global().Clear();
  std::vector<QuerySubmission> workload(2);
  workload[0].plan = TinyPlan(400 * 20000);
  workload[1].plan = TinyPlan();
  workload[1].arrival_time = 0.001;
  SimEngineConfig scfg;
  scfg.num_threads = 4;
  SimEngine sim(scfg);
  FifoScheduler sim_fifo;
  const EpisodeResult sim_r = sim.Run(workload, &sim_fifo);
  const auto sim_records = obs::QueryTraceLog::Global().Snapshot();
  ASSERT_EQ(sim_records.size(), workload.size());
  EXPECT_GT(CheckCappedRecords(sim_records, sim_r), 0);

  // Real: fuzzed queries over tables of 12k-16k rows, cut into 128-row
  // chunks.
  obs::QueryTraceLog::Global().Clear();
  FuzzerOptions opts;
  opts.min_rows = 12000;
  opts.max_rows = 16000;
  opts.min_queries = 3;
  opts.max_queries = 3;
  WorkloadFuzzer fuzzer(7, opts);
  FuzzedWorkload w = fuzzer.NextWorkload();
  RealEngineConfig rcfg;
  rcfg.num_threads = 4;
  rcfg.chunk_rows = 128;
  RealEngine real(w.catalog.get(), rcfg);
  FifoScheduler real_fifo;
  const RealRunResult real_r = real.Run(w.real_queries, &real_fifo);
  const auto real_records = obs::QueryTraceLog::Global().Snapshot();
  ASSERT_EQ(real_records.size(), w.real_queries.size());
  EXPECT_GT(CheckCappedRecords(real_records, real_r.episode), 0);
  obs::QueryTraceLog::Global().Clear();
}

// ---------------------------------------------------------------------------
// Guard fallbacks in the trace
// ---------------------------------------------------------------------------

/// Throws on every other invocation, so GuardedPolicy answers half the
/// events with FIFO.
class AlternatingThrower : public Scheduler {
 public:
  std::string name() const override { return "AlternatingThrower"; }
  SchedulingDecision Schedule(const SchedulingEvent& event,
                              const SchedulingContext& ctx) override {
    if (calls_++ % 2 == 0) throw std::runtime_error("odd call");
    return fifo_.Schedule(event, ctx);
  }

 private:
  int64_t calls_ = 0;
  FifoScheduler fifo_;
};

/// A guarded decision that fell back is one fallback row in the decision
/// log, and the queries it passed over carry kFallback edges naming it.
TEST(QueryTraceGuardTest, GuardFallbacksBecomeFallbackEdges) {
  obs::SetEnabled(true);
  obs::QueryTraceLog::Global().SetCapture(true);
  obs::QueryTraceLog::Global().Clear();
  obs::DecisionLog::Global().Clear();

  std::vector<QuerySubmission> workload;
  for (int i = 0; i < 12; ++i) {
    QuerySubmission sub;
    sub.plan = TinyPlan(20000 + 1000 * (i % 5));
    sub.arrival_time = 1e-4 * i;
    workload.push_back(std::move(sub));
  }
  AlternatingThrower inner;
  GuardedPolicy::Config gc;
  gc.sticky_after = 1000;  // never sticky: inner and FIFO alternate
  GuardedPolicy guarded(&inner, gc);
  SimEngineConfig cfg;
  cfg.num_threads = 2;
  SimEngine engine(cfg);
  const EpisodeResult r = engine.Run(workload, &guarded);
  ASSERT_EQ(r.query_latencies.size(), workload.size());
  EXPECT_GT(guarded.fallback_count(), 0);

  std::map<int64_t, obs::DecisionRecord> rows;
  for (const obs::DecisionRecord& rec :
       obs::DecisionLog::Global().Snapshot()) {
    rows[rec.id] = rec;
  }
  EXPECT_EQ(static_cast<int64_t>(rows.size()),
            r.num_scheduler_invocations + r.num_fallback_decisions);

  int fallback_edges = 0;
  int skipped_edges = 0;
  int checked = 0;
  for (const obs::QueryTraceRecord& rec :
       obs::QueryTraceLog::Global().Snapshot()) {
    for (const obs::TraceEdge& e : rec.edges) {
      if (e.kind != obs::TraceEdgeKind::kFallback &&
          e.kind != obs::TraceEdgeKind::kConsideredSkipped) {
        continue;
      }
      const bool fallback = e.kind == obs::TraceEdgeKind::kFallback;
      ++(fallback ? fallback_edges : skipped_edges);
      ASSERT_EQ(rows.count(e.a), 1u) << "edge names decision " << e.a;
      const obs::DecisionRecord& row = rows[e.a];
      EXPECT_EQ(row.fallback, fallback) << "decision " << e.a;
      EXPECT_NE(e.b, rec.query);
      if (fallback && row.event != "fallback") {
        EXPECT_EQ(row.fallback_reason, "exception");
        EXPECT_EQ(row.chosen_query, e.b);
      }
    }
    if (rec.dropped_edges > 0) continue;
    const LatencyBreakdown derived = obs::DeriveBreakdown(rec);
    EXPECT_EQ(derived.admission_ns, rec.breakdown.admission_ns);
    EXPECT_EQ(derived.queue_ns, rec.breakdown.queue_ns);
    EXPECT_EQ(derived.service_ns, rec.breakdown.service_ns);
    EXPECT_EQ(derived.stall_ns, rec.breakdown.stall_ns);
    EXPECT_EQ(derived.total_ns, rec.breakdown.total_ns);
    EXPECT_EQ(derived.dispatches, rec.breakdown.dispatches);
    EXPECT_EQ(derived.retries, rec.breakdown.retries);
    ++checked;
  }
  EXPECT_GT(fallback_edges, 0);
  EXPECT_GT(skipped_edges, 0);
  EXPECT_GT(checked, 0);
  obs::QueryTraceLog::Global().Clear();
  obs::DecisionLog::Global().Clear();
}

// ---------------------------------------------------------------------------
// Trace CSV round-trip
// ---------------------------------------------------------------------------

TEST(QueryTraceCsvTest, RoundTripsEveryFieldAndEdge) {
  obs::SetEnabled(true);
  obs::QueryTraceLog::Global().SetCapture(true);
  obs::QueryTraceLog::Global().Clear();
  RunOverload(/*num_queries=*/20, /*max_live=*/6);
  const auto records = obs::QueryTraceLog::Global().Snapshot();
  ASSERT_GE(records.size(), 20u);

  std::ostringstream out;
  obs::WriteQueryTraceCsv(records, out);
  std::istringstream in(out.str());
  std::vector<obs::QueryTraceRecord> parsed;
  ASSERT_TRUE(obs::ParseQueryTraceCsv(in, &parsed));
  ASSERT_EQ(parsed.size(), records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    const obs::QueryTraceRecord& a = records[i];
    const obs::QueryTraceRecord& b = parsed[i];
    EXPECT_EQ(a.query, b.query);
    EXPECT_EQ(a.tenant, b.tenant);
    EXPECT_EQ(a.priority, b.priority);
    EXPECT_EQ(a.engine, b.engine);
    EXPECT_EQ(a.final_status, b.final_status);
    EXPECT_EQ(a.dropped_edges, b.dropped_edges);
    EXPECT_EQ(a.breakdown.admission_ns, b.breakdown.admission_ns);
    EXPECT_EQ(a.breakdown.queue_ns, b.breakdown.queue_ns);
    EXPECT_EQ(a.breakdown.service_ns, b.breakdown.service_ns);
    EXPECT_EQ(a.breakdown.stall_ns, b.breakdown.stall_ns);
    EXPECT_EQ(a.breakdown.total_ns, b.breakdown.total_ns);
    ASSERT_EQ(a.edges.size(), b.edges.size());
    for (size_t j = 0; j < a.edges.size(); ++j) {
      EXPECT_EQ(a.edges[j].kind, b.edges[j].kind) << i << "/" << j;
      EXPECT_EQ(a.edges[j].a, b.edges[j].a) << i << "/" << j;
      EXPECT_EQ(a.edges[j].b, b.edges[j].b) << i << "/" << j;
    }
  }

  std::istringstream garbage("this,is,not,a,trace\n1,2,3\n");
  std::vector<obs::QueryTraceRecord> rejected;
  EXPECT_FALSE(obs::ParseQueryTraceCsv(garbage, &rejected));
  obs::QueryTraceLog::Global().Clear();
}

// ---------------------------------------------------------------------------
// `lsched_cli explain` renderer golden
// ---------------------------------------------------------------------------

// A synthetic trace with one of everything the attributor names: a
// considered-but-skipped decision, a fairness redirection, a displacement
// threat survived, a retry, and a terminal DONE. The golden is the full
// renderer output; a change here is a user-visible CLI change and should
// be reviewed as one.
TEST(RenderExplainTest, GoldenTimeline) {
  obs::QueryTraceRecord r;
  r.query = 42;
  r.tenant = 1;
  r.priority = 2;  // kHigh
  r.engine = "sim";
  r.final_status = static_cast<int32_t>(QueryStatus::kDone);
  r.arrival_time = 10.0;
  r.terminal_time = 10.005;
  r.breakdown.admission_ns = 1000000;   // 1 ms
  r.breakdown.queue_ns = 1500000;       // 1.5 ms
  r.breakdown.service_ns = 2000000;     // 2 ms
  r.breakdown.stall_ns = 500000;        // 0.5 ms
  r.breakdown.total_ns = 5000000;       // exact sum
  r.breakdown.dispatches = 2;
  r.breakdown.retries = 1;
  r.breakdown.valid = true;

  auto edge = [](double t, obs::TraceEdgeKind k, int64_t a, int64_t b,
                 double v) {
    obs::TraceEdge e;
    e.time = t;
    e.kind = k;
    e.a = a;
    e.b = b;
    e.value = v;
    return e;
  };
  r.edges = {
      edge(10.0, obs::TraceEdgeKind::kArrival, 1, 2, 0),
      edge(10.0, obs::TraceEdgeKind::kAdmit, 0, -1, 0),
      edge(10.0005, obs::TraceEdgeKind::kConsideredSkipped, 7, 9, 0.25),
      edge(10.001, obs::TraceEdgeKind::kScheduled, 8, 0, 2),
      edge(10.001, obs::TraceEdgeKind::kRedirected, 11, -1, 0),
      edge(10.0025, obs::TraceEdgeKind::kDispatch, -1, -1, 0),
      edge(10.003, obs::TraceEdgeKind::kFailed, -1, -1, 0),
      edge(10.003, obs::TraceEdgeKind::kRetry, -1, -1, 0),
      edge(10.0035, obs::TraceEdgeKind::kDispatch, -1, -1, 1),
      edge(10.0045, obs::TraceEdgeKind::kComplete, -1, -1, 0.001),
      edge(10.005, obs::TraceEdgeKind::kTerminal,
           static_cast<int64_t>(QueryStatus::kDone), -1, 0.005),
  };

  const std::string golden =
      "query 42 — DONE (tenant 1, HIGH priority, sim engine)\n"
      "  end-to-end latency: 5.000 ms (arrival t=10.000000s, terminal "
      "t=10.005000s)\n"
      "  decomposition: admission 1.000 ms | queue 1.500 ms | service "
      "2.000 ms | stall 0.500 ms  [segments sum exactly to total]\n"
      "  timeline:\n"
      "    +    0.000 ms  arrival (tenant 1, HIGH priority)\n"
      "    +    0.000 ms  admission verdict: admit\n"
      "    +    0.500 ms  considered by decision #7 but skipped (chose "
      "query 9, predicted score 0.2500)\n"
      "    +    1.000 ms  pipeline launched by decision #8 (root op 0, "
      "degree 2)\n"
      "    +    1.000 ms  launch redirected to query 11 by "
      "weighted-fairness post-processing\n"
      "    +    2.500 ms  work order dispatched\n"
      "    +    3.000 ms  work-order attempt failed\n"
      "    +    3.000 ms  failed attempt queued for retry\n"
      "    +    3.500 ms  work-order retry dispatched\n"
      "    +    4.500 ms  work order completed (1.000 ms)\n"
      "    +    5.000 ms  terminal: DONE\n"
      "  attribution:\n"
      "    admission wait (1.000 ms): waiting in the admitted set for the "
      "first pipeline launch; passed over by 1 decision(s)\n"
      "    queue wait (1.500 ms): launch redirected away 1 time(s) by "
      "weighted fairness\n"
      "    service (2.000 ms): 2 work-order dispatch(es)\n"
      "    stall (0.500 ms): 1 failed attempt(s) retried\n";
  EXPECT_EQ(obs::RenderExplain(r), golden);
}

// ---------------------------------------------------------------------------
// TenantTable: SLO burn rate and refused-latency ledger
// ---------------------------------------------------------------------------

QueryState TerminalQuery(QueryId id, double arrival, double now,
                         QueryStatus status, TenantId tenant) {
  QueryState q(id, TinyPlan(), arrival);
  QueryTag tag;
  tag.tenant = tenant;
  q.set_tag(tag);
  // kShed is only reachable from kAdmitted (a shed query never started);
  // the other terminals pass through kRunning first.
  if (status != QueryStatus::kShed) q.TransitionTo(QueryStatus::kRunning);
  q.TransitionTo(status);
  LatencyBreakdown b;
  b.total_ns = static_cast<int64_t>((now - arrival) * 1e9 + 0.5);
  b.service_ns = b.total_ns;
  b.valid = true;
  q.set_breakdown(b);
  return q;
}

TEST(TenantSloTest, BurnRateCountsSlowDoneAndRefusedQueries) {
  TenantTable table;
  TenantSlo slo;
  slo.target_seconds = 0.1;
  slo.percentile = 0.9;  // error budget: 10%
  table.SetSlo(0, slo);

  // 8 fast DONE + 1 slow DONE + 1 SHED: 2 violations out of 10 eligible.
  for (int i = 0; i < 8; ++i) {
    QueryState q = TerminalQuery(i, 0.0, 0.05, QueryStatus::kDone, 0);
    table.OnArrival(q.tag(), /*admitted=*/true);
    table.OnTerminal(q, 0.05);
  }
  QueryState slow = TerminalQuery(8, 0.0, 0.5, QueryStatus::kDone, 0);
  table.OnArrival(slow.tag(), true);
  table.OnTerminal(slow, 0.5);
  QueryState shed = TerminalQuery(9, 0.0, 0.01, QueryStatus::kShed, 0);
  table.OnArrival(shed.tag(), /*admitted=*/false);
  table.OnTerminal(shed, 0.01);

  const TenantStats* s = table.stats(0);
  ASSERT_NE(s, nullptr);
  EXPECT_TRUE(s->has_slo);
  EXPECT_EQ(s->slo_total, 10);
  EXPECT_EQ(s->slo_violations, 2);
  // (2/10) observed bad fraction / 0.1 budget = burn rate 2.
  EXPECT_NEAR(s->BurnRate(), 2.0, 1e-12);

  // A cancel is the client's own doing: refused ledger yes, SLO no.
  QueryState cancel = TerminalQuery(10, 0.0, 0.2, QueryStatus::kCancelled, 0);
  table.OnArrival(cancel.tag(), true);
  table.OnTerminal(cancel, 0.2);
  EXPECT_EQ(table.stats(0)->slo_total, 10);
  EXPECT_EQ(table.stats(0)->slo_violations, 2);
  EXPECT_EQ(table.stats(0)->refused, 2);  // the shed + the cancel

  // No SLO configured -> burn rate identically 0.
  QueryState other = TerminalQuery(11, 0.0, 9.9, QueryStatus::kShed, 5);
  table.OnArrival(other.tag(), false);
  table.OnTerminal(other, 9.9);
  EXPECT_DOUBLE_EQ(table.stats(5)->BurnRate(), 0.0);

  // The SLO survives Reset (like weights) and re-applies to the tenant.
  table.Reset();
  QueryState late = TerminalQuery(12, 0.0, 0.5, QueryStatus::kDone, 0);
  table.OnArrival(late.tag(), true);
  table.OnTerminal(late, 0.5);
  EXPECT_TRUE(table.stats(0)->has_slo);
  EXPECT_EQ(table.stats(0)->slo_total, 1);
  EXPECT_EQ(table.stats(0)->slo_violations, 1);
  EXPECT_NEAR(table.stats(0)->BurnRate(), 10.0, 1e-12);
}

TEST(TenantSloTest, RefusedLatencyLedgerSeparatesShedPain) {
  TenantTable table;
  // Tenant 0: every query refused after a long admission wait. The
  // DONE-only quantiles never observe anything, but the refused ledger
  // records the pain.
  for (int i = 0; i < 50; ++i) {
    QueryState q = TerminalQuery(i, 0.0, 2.0, QueryStatus::kShed, 0);
    table.OnArrival(q.tag(), false);
    table.OnTerminal(q, 2.0);
  }
  const TenantStats* s = table.stats(0);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->refused, 50);
  EXPECT_EQ(s->completed, 0);
  EXPECT_NEAR(s->refused_latency_p50.Value(), 2.0, 0.1);
  // Decomposition sums accumulated from the breakdowns.
  EXPECT_NEAR(s->service_time_seconds, 100.0, 1e-6);
}

TEST(TenantSloTest, SetSloValidatesAndExposesConfig) {
  TenantTable table;
  TenantSlo slo;
  slo.target_seconds = 1.5;
  slo.percentile = 0.95;
  table.SetSlo(3, slo);
  ASSERT_NE(table.slo(3), nullptr);
  EXPECT_DOUBLE_EQ(table.slo(3)->target_seconds, 1.5);
  EXPECT_DOUBLE_EQ(table.slo(3)->percentile, 0.95);
  EXPECT_EQ(table.slo(4), nullptr);
}

// ---------------------------------------------------------------------------
// Serving daemon end-to-end: per-tenant decomposition sums
// ---------------------------------------------------------------------------

TEST(ServingDecompositionTest, PerTenantSumsMatchEpisodeAggregates) {
  const ScriptedIngress script = OverloadScript(30);
  ServingDaemonConfig cfg;
  cfg.policy.max_live_queries = 8;
  cfg.policy.tenant_weights = {{0, 1.0}, {1, 2.0}, {2, 3.0}};
  cfg.sim.num_threads = 4;
  cfg.sim.seed = 17;
  ServingDaemon daemon(cfg);
  SjfScheduler sjf;
  const EpisodeResult r = daemon.RunScript(script, &sjf);

  double admission = 0, queue = 0, service = 0, stall = 0;
  for (TenantId t : daemon.tenants().ids()) {
    const TenantStats* s = daemon.tenants().stats(t);
    admission += s->admission_wait_seconds;
    queue += s->queue_wait_seconds;
    service += s->service_time_seconds;
    stall += s->stall_time_seconds;
  }
  // The per-tenant accumulators partition the episode totals (double
  // accumulation of exact integer-ns values: tolerance is rounding only).
  EXPECT_NEAR(admission, r.sum_admission_wait_ns * 1e-9, 1e-6);
  EXPECT_NEAR(queue, r.sum_queue_wait_ns * 1e-9, 1e-6);
  EXPECT_NEAR(service, r.sum_service_time_ns * 1e-9, 1e-6);
  EXPECT_NEAR(stall, r.sum_stall_time_ns * 1e-9, 1e-6);
}

// ---------------------------------------------------------------------------
// Serving actions in the trace
// ---------------------------------------------------------------------------

/// Forwards to a ServingPolicy and counts the actions its FilterDecision
/// applies.
class CountingHooks : public ServingHooks {
 public:
  explicit CountingHooks(ServingPolicy* policy) : policy_(policy) {}

  AdmissionVerdict OnAdmission(const QueryState& q,
                               const SchedulingContext& ctx,
                               double now) override {
    return policy_->OnAdmission(q, ctx, now);
  }
  void FilterDecision(SchedulingDecision* decision,
                      const SchedulingContext& ctx) override {
    policy_->FilterDecision(decision, ctx);
    max_actions = std::max(max_actions, decision->serving_actions.size());
    total_actions += decision->serving_actions.size();
  }
  void OnQueryTerminal(const QueryState& q, double now) override {
    policy_->OnQueryTerminal(q, now);
  }
  void OnEngineRefused(const QueryState& q, double now) override {
    policy_->OnEngineRefused(q, now);
  }

  size_t max_actions = 0;    ///< most actions in one FilterDecision
  size_t total_actions = 0;

 private:
  ServingPolicy* policy_;
};

/// Every redirection and injection the serving policy applies puts one
/// kInjected edge on the query that gets the launch, however many one
/// FilterDecision applies. Here a pool grown from one slot to 60 finds 48
/// queued queries of four tenants and fills their shares in one decision.
TEST(ServingTraceTest, EveryInjectionBecomesAnEdge) {
  obs::SetEnabled(true);
  obs::QueryTraceLog::Global().SetCapture(true);
  obs::QueryTraceLog::Global().Clear();

  std::vector<QuerySubmission> workload;
  for (int i = 0; i < 48; ++i) {
    QuerySubmission sub;
    sub.plan = TinyPlan();
    sub.arrival_time = 1e-4 * i;
    sub.tag.tenant = static_cast<TenantId>(i % 4);
    workload.push_back(std::move(sub));
  }
  ServingPolicyConfig pcfg;
  pcfg.max_live_queries = 0;
  ServingPolicy policy(pcfg);
  CountingHooks hooks(&policy);
  SimEngineConfig cfg;
  cfg.num_threads = 1;
  cfg.thread_events = {{0.005, 59}};
  cfg.hooks = &hooks;
  SimEngine engine(cfg);
  FifoScheduler fifo;
  const EpisodeResult r = engine.Run(workload, &fifo);
  ASSERT_EQ(r.query_latencies.size(), workload.size());
  EXPECT_GT(hooks.max_actions, 32u);

  // A priority or share injection is one kInjected edge with no donor
  // (a = -1). A redirect is a kRedirected edge on the query that lost the
  // launch plus a kInjected edge, donor a, on the query that gained it.
  int64_t injected_edges = 0;
  int64_t redirect_gain_edges = 0;
  int64_t redirected_edges = 0;
  int64_t dropped_edges = 0;
  for (const obs::QueryTraceRecord& rec :
       obs::QueryTraceLog::Global().Snapshot()) {
    dropped_edges += rec.dropped_edges;
    for (const obs::TraceEdge& e : rec.edges) {
      if (e.kind == obs::TraceEdgeKind::kInjected) {
        ++(e.a < 0 ? injected_edges : redirect_gain_edges);
      }
      if (e.kind == obs::TraceEdgeKind::kRedirected) ++redirected_edges;
    }
  }
  ASSERT_EQ(dropped_edges, 0);
  EXPECT_EQ(static_cast<int64_t>(hooks.total_actions),
            policy.num_injections() + policy.num_redirects());
  EXPECT_GT(policy.num_redirects(), 0);
  EXPECT_EQ(injected_edges, policy.num_injections());
  EXPECT_EQ(redirected_edges, policy.num_redirects());
  EXPECT_EQ(redirect_gain_edges, policy.num_redirects());
  obs::QueryTraceLog::Global().Clear();
}

// ---------------------------------------------------------------------------
// Name tables
// ---------------------------------------------------------------------------

TEST(TraceEdgeKindTest, NamesAreStable) {
  EXPECT_STREQ(obs::TraceEdgeKindName(obs::TraceEdgeKind::kArrival),
               "arrival");
  EXPECT_STREQ(obs::TraceEdgeKindName(obs::TraceEdgeKind::kTerminal),
               "terminal");
  EXPECT_STREQ(
      obs::TraceEdgeKindName(obs::TraceEdgeKind::kConsideredSkipped),
      "considered_skipped");
}

}  // namespace
}  // namespace lsched
