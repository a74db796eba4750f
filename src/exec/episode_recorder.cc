#include "exec/episode_recorder.h"

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <string>

#include "exec/query_state.h"
#include "obs/trace.h"
#include "plan/operator_type.h"
#include "util/math_util.h"

namespace lsched {

namespace {

/// One walk over every currently-schedulable operator: returns their
/// count, collects into `schedulable` (when non-null) the id of every query
/// with at least one (the passed-over set of a decision), and writes their
/// "q:op" pairs, truncated to kMaxLoggedCandidates, into `pairs` (when
/// non-null).
int WalkCandidates(const SchedulingContext& ctx,
                   std::vector<QueryId>* schedulable, std::string* pairs) {
  if (pairs != nullptr) pairs->reserve(128);
  int n = 0;
  char buf[48];
  for (const QueryState* q : ctx.queries()) {
    // Probe IsOpSchedulable directly: SchedulableOps() allocates a vector
    // per query, too hot for a path run on every scheduler invocation.
    const int ops = static_cast<int>(q->plan().num_nodes());
    bool any = false;
    for (int op = 0; op < ops; ++op) {
      if (!q->IsOpSchedulable(op)) continue;
      if (!any && schedulable != nullptr) schedulable->push_back(q->id());
      any = true;
      ++n;
      if (pairs != nullptr && n <= obs::kMaxLoggedCandidates) {
        std::snprintf(buf, sizeof(buf), "%s%lld:%d",
                      pairs->empty() ? "" : ";",
                      static_cast<long long>(q->id()), op);
        *pairs += buf;
      }
    }
  }
  if (pairs != nullptr && n > obs::kMaxLoggedCandidates) {
    std::snprintf(buf, sizeof(buf), "+%d", n - obs::kMaxLoggedCandidates);
    *pairs += buf;
  }
  return n;
}

/// Registry names of the counters derived from EpisodeResult, in the order
/// of EpisodeRecorder::Totals().
constexpr const char* kDerivedCounterNames[] = {
    "sched.invocations",
    "sched.pipelines_launched",
    "sched.fallback_decisions",
    "exec.work_orders_dispatched",
    "exec.work_orders_completed",
    "exec.queries_completed",
    "exec.cancel_total",
    "exec.retry_total",
    "exec.fail_total",
    "exec.shed_total",
};

}  // namespace

EpisodeRecorder::EpisodeRecorder() {
  static_assert(std::size(kDerivedCounterNames) == kNumDerivedCounters);
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  for (size_t i = 0; i < kNumDerivedCounters; ++i) {
    counters_[i] = reg.GetCounter(kDerivedCounterNames[i]);
  }
  inflight_high_water_ = reg.GetGauge("exec.inflight_high_water");
  sched_overhead_fraction_ = reg.GetGauge("exec.sched_overhead_fraction");
  decision_seconds_ = reg.GetHistogram("sched.decision_seconds");
  pipeline_degree_ = reg.GetHistogram("sched.pipeline_degree");
  queue_wait_seconds_ = reg.GetHistogram("sched.queue_wait_seconds");
  work_order_seconds_ = reg.GetHistogram("exec.work_order_seconds");
  query_latency_seconds_ = reg.GetHistogram("exec.query_latency_seconds");
}

EpisodeRecorder::CounterTotals EpisodeRecorder::Totals() const {
  return {result_.num_scheduler_invocations,
          result_.num_actions,
          result_.num_fallback_decisions,
          result_.num_work_orders_dispatched,
          result_.num_work_orders_completed,
          static_cast<int64_t>(result_.query_latencies.size()),
          result_.num_queries_cancelled,
          result_.num_retries,
          result_.num_queries_failed,
          result_.num_queries_shed};
}

void EpisodeRecorder::Begin(const char* engine_name, Scheduler* scheduler,
                            bool virtual_time, size_t num_queries) {
  result_ = EpisodeResult{};
  result_.final_statuses.assign(num_queries, QueryStatus::kAdmitted);
  result_.query_breakdowns.assign(num_queries, LatencyBreakdown{});
  timelines_.clear();
  timelines_.resize(num_queries);
  timeline_base_ = 0;
  trace_on_ =
      obs::Enabled() && obs::QueryTraceLog::Global().capture_enabled();
  engine_name_ = engine_name;
  scheduler_ = scheduler;
  virtual_time_ = virtual_time;
  realized_base_ = -1;
  realized_seconds_.clear();
  flushed_totals_ = {};
  flushed_latencies_ = 0;
  flushed_inflight_high_water_ = 0;
  lh_decision_seconds_.Reset();
  lh_pipeline_degree_.Reset();
  lh_queue_wait_seconds_.Reset();
  lh_work_order_seconds_.Reset();
}

EpisodeRecorder::QueryTimeline* EpisodeRecorder::Record(QueryId qid,
                                                        obs::TraceEdge edge) {
  if (qid < timeline_base_) return nullptr;  // finished and retired
  const size_t idx = static_cast<size_t>(qid - timeline_base_);
  if (timelines_.size() <= idx) timelines_.resize(idx + 1);
  QueryTimeline* t = &timelines_[idx];
  if (t->finished()) return nullptr;
  obs::ApplyEdge(&t->state, edge);
  const bool terminal = edge.kind == obs::TraceEdgeKind::kTerminal;
  if (terminal) edge.value = t->state.breakdown.total_seconds();
  if (trace_on_) {
    if (terminal ||
        t->edges.size() < static_cast<size_t>(obs::kMaxTraceEdgesPerQuery)) {
      t->edges.push_back(edge);  // the terminal edge is kept past the cap
    } else {
      ++t->dropped_edges;
    }
  }
  // Chrome instants of launches and terminal transitions, on the calling
  // (coordinator) thread, in the engine's timebase: virtual seconds for
  // Sim, the wall clock for Real.
  const bool launch = edge.kind == obs::TraceEdgeKind::kScheduled;
  if ((launch || terminal) && obs::Enabled()) {
    const double ts_us = virtual_time_ ? edge.time * 1e6 : obs::NowMicros();
    if (launch) {
      obs::Tracer::Global().RecordInstant("sched.pipeline_launch", "sched",
                                          ts_us, obs::ThreadId(), "query",
                                          qid, "root_op", edge.b);
    } else if (edge.a == static_cast<int64_t>(QueryStatus::kDone)) {
      obs::Tracer::Global().RecordInstant("exec.query_completed", "exec",
                                          ts_us, obs::ThreadId(), "query",
                                          qid);
    } else {
      obs::Tracer::Global().RecordInstant("exec.query_terminated", "exec",
                                          ts_us, obs::ThreadId(), "query",
                                          qid, "status", edge.a);
    }
  }
  return t;
}

void EpisodeRecorder::RecordPassedOver(const obs::TraceEdge& edge) {
  for (const QueryId qid : considered_scratch_) {
    if (qid != edge.b) Record(qid, edge);
  }
}

void EpisodeRecorder::FinishTimeline(QueryState* query, double now) {
  QueryTimeline* t = Record(query->id(),
                            {now, obs::TraceEdgeKind::kTerminal,
                             static_cast<int64_t>(query->status())});
  if (t == nullptr) return;
  const LatencyBreakdown& b = t->state.breakdown;
  query->set_breakdown(b);

  const size_t idx = static_cast<size_t>(query->id());
  if (result_.query_breakdowns.size() <= idx) {
    result_.query_breakdowns.resize(idx + 1);
  }
  result_.query_breakdowns[idx] = b;
  result_.sum_admission_wait_ns += b.admission_ns;
  result_.sum_queue_wait_ns += b.queue_ns;
  result_.sum_service_time_ns += b.service_ns;
  result_.sum_stall_time_ns += b.stall_ns;
  result_.sum_latency_ns += b.total_ns;
  ++result_.num_queries_decomposed;

  if (trace_on_) {
    obs::QueryTraceRecord rec;
    rec.query = query->id();
    rec.tenant = query->tag().tenant;
    rec.priority = static_cast<int32_t>(query->tag().priority);
    rec.engine = engine_name_;
    rec.final_status = static_cast<int32_t>(query->status());
    rec.arrival_time = query->arrival_time();
    rec.terminal_time = now;
    rec.breakdown = b;
    // A query at the cap pushed its terminal edge into a full vector and
    // doubled its capacity; the ring keeps thousands of these records.
    t->edges.shrink_to_fit();
    rec.edges = std::move(t->edges);
    rec.dropped_edges = t->dropped_edges;
    obs::QueryTraceLog::Global().Record(std::move(rec));
  }
  // Retire the finished prefix: no later event reads those timelines.
  while (!timelines_.empty() && timelines_.front().finished()) {
    timelines_.pop_front();
    ++timeline_base_;
  }
}

void EpisodeRecorder::OnQueryArrival(const QueryState& query) {
  const size_t n = static_cast<size_t>(query.id()) + 1;
  if (result_.final_statuses.size() < n) {
    result_.final_statuses.resize(n, QueryStatus::kAdmitted);
  }
  Record(query.id(),
         {query.arrival_time(), obs::TraceEdgeKind::kArrival,
          query.tag().tenant, static_cast<int64_t>(query.tag().priority)});
}

void EpisodeRecorder::OnAdmissionVerdict(QueryId qid, double now,
                                         bool admitted, QueryId displaced) {
  if (!admitted) {
    Record(qid, {now, obs::TraceEdgeKind::kShed});
    return;
  }
  Record(qid, {now, obs::TraceEdgeKind::kAdmit,
               displaced != kInvalidQuery ? 1 : 0});
  if (displaced != kInvalidQuery) {
    Record(qid, {now, obs::TraceEdgeKind::kDisplace, displaced});
  }
}

void EpisodeRecorder::OnQueryDisplaced(QueryId victim, QueryId newcomer,
                                       double now) {
  Record(victim, {now, obs::TraceEdgeKind::kDisplacedBy, newcomer});
}

int64_t EpisodeRecorder::OnSchedulerInvocation(
    const SchedulingEvent& event, const SchedulingContext& ctx,
    const SchedulingDecision& decision, double wall_seconds) {
  result_.scheduler_wall_seconds += wall_seconds;
  ++result_.num_scheduler_invocations;
  result_.decisions.push_back(
      {ctx.now(), static_cast<int>(ctx.queries().size())});

  if (!obs::Enabled()) return -1;
  lh_decision_seconds_.Observe(wall_seconds);
  const QueryId chosen_query = decision.pipelines.empty()
                                   ? kInvalidQuery
                                   : decision.pipelines.front().query;
  const bool fallback = decision.fallback_reason != nullptr;

  obs::DecisionRecord rec;
  rec.time = ctx.now();
  rec.engine = engine_name_;
  rec.event = SchedulingEventTypeName(event.type);
  rec.policy = scheduler_ != nullptr ? scheduler_->name() : "";
  considered_scratch_.clear();
  rec.num_candidates = WalkCandidates(
      ctx, trace_on_ ? &considered_scratch_ : nullptr, &rec.candidates);
  rec.running_queries = static_cast<int>(ctx.queries().size());
  rec.free_threads = ctx.num_free_threads();
  if (!decision.pipelines.empty()) {
    rec.chosen_query = decision.pipelines.front().query;
    rec.chosen_root = decision.pipelines.front().root_op;
    rec.degree = decision.pipelines.front().degree;
    // Operator type of the chosen root: the per-key attribution the drift
    // monitor groups prediction errors by.
    if (const QueryState* q = ctx.FindQuery(rec.chosen_query)) {
      if (rec.chosen_root >= 0 &&
          rec.chosen_root < static_cast<int>(q->plan().num_nodes())) {
        rec.op_type = OperatorTypeName(q->plan().node(rec.chosen_root).type);
      }
    }
  }
  if (!decision.parallelism.empty()) {
    rec.max_threads = decision.parallelism.front().max_threads;
  }
  rec.predicted_score = decision.score;
  rec.schedule_wall_us = wall_seconds * 1e6;
  rec.fallback = fallback;
  if (fallback) rec.fallback_reason = decision.fallback_reason;
  // Tenant of the chosen query: keys the per-tenant drift shards.
  if (chosen_query >= 0) {
    if (const QueryState* q = ctx.FindQuery(chosen_query)) {
      rec.tenant = q->tag().tenant;
    }
  }
  const int64_t decision_id = obs::DecisionLog::Global().Add(std::move(rec));
  // Every query with a schedulable operator that this decision did not
  // launch gets an edge tying its wait to the decision (and the policy's
  // predicted score for what it chose instead), collected by the walk
  // above.
  RecordPassedOver({ctx.now(),
                    fallback ? obs::TraceEdgeKind::kFallback
                             : obs::TraceEdgeKind::kConsideredSkipped,
                    decision_id, chosen_query,
                    fallback ? 0.0 : decision.score});
  // Fairness redirections / injections the serving layer's FilterDecision
  // applied to this decision.
  for (const ServingAction& a : decision.serving_actions) {
    if (a.kind == ServingAction::kRedirect) {
      Record(a.query, {ctx.now(), obs::TraceEdgeKind::kRedirected, a.other});
      Record(a.other,
             {ctx.now(), obs::TraceEdgeKind::kInjected, a.query, -1, 2.0});
    } else {
      Record(a.query,
             {ctx.now(), obs::TraceEdgeKind::kInjected, a.other, -1,
              a.kind == ServingAction::kInjectPriority ? 1.0 : 2.0});
    }
  }
  return decision_id;
}

void EpisodeRecorder::OnPipelineLaunched(int64_t decision_id, QueryId query,
                                         int root_op, int degree,
                                         int64_t planned_work_orders,
                                         double now) {
  ++result_.num_actions;
  result_.num_work_orders_planned += planned_work_orders;
  Record(query, {now, obs::TraceEdgeKind::kScheduled, decision_id, root_op,
                 static_cast<double>(degree)});

  if (!obs::Enabled()) return;
  lh_pipeline_degree_.Observe(static_cast<double>(degree));
  obs::DecisionLog::Global().AddPipeline(decision_id, planned_work_orders);
}

void EpisodeRecorder::OnWorkOrderDispatched(QueryId query, bool retry,
                                            int inflight_now,
                                            double queue_wait_seconds,
                                            double now) {
  ++result_.num_work_orders_dispatched;
  result_.max_inflight_work_orders =
      std::max(result_.max_inflight_work_orders, inflight_now);
  Record(query,
         {now, obs::TraceEdgeKind::kDispatch, -1, -1, retry ? 1.0 : 0.0});

  if (!obs::Enabled()) return;
  lh_queue_wait_seconds_.Observe(std::max(0.0, queue_wait_seconds));
}

void EpisodeRecorder::OnWorkOrderCompleted(QueryId query, int64_t decision_id,
                                           double seconds, double now) {
  ++result_.num_work_orders_completed;
  Record(query, {now, obs::TraceEdgeKind::kComplete, -1, -1, seconds});

  if (!obs::Enabled()) return;
  lh_work_order_seconds_.Observe(seconds);
  if (decision_id >= 0) {
    // Coordinator-local accumulation; handed to the decision log (one
    // mutex acquisition per decision, not per work order) by FlushRealized.
    if (realized_base_ < 0) realized_base_ = decision_id;
    if (decision_id < realized_base_) {
      obs::DecisionLog::Global().AddRealized(decision_id, seconds);
    } else {
      const size_t idx = static_cast<size_t>(decision_id - realized_base_);
      if (idx >= realized_seconds_.size()) {
        realized_seconds_.resize(idx + 1, 0.0);
      }
      realized_seconds_[idx] += seconds;
      if (realized_seconds_.size() >= kRealizedFlushSpan) FlushRealized();
    }
  }
}

void EpisodeRecorder::OnWorkOrderFailed(QueryId query, double now) {
  ++result_.num_work_orders_failed;
  Record(query, {now, obs::TraceEdgeKind::kFailed});
}

void EpisodeRecorder::OnWorkOrderRetried(QueryId query, double now) {
  ++result_.num_retries;
  Record(query, {now, obs::TraceEdgeKind::kRetry});
}

void EpisodeRecorder::OnWorkOrderDiscarded() {
  ++result_.num_work_orders_discarded;
}

void EpisodeRecorder::OnWorkOrderExpired() {
  ++result_.num_work_orders_expired;
}

double EpisodeRecorder::OnQueryCompleted(QueryState* query, double now) {
  query->TransitionTo(QueryStatus::kDone);
  FinishTimeline(query, now);
  const QueryId qid = query->id();
  if (qid >= 0 &&
      static_cast<size_t>(qid) < result_.final_statuses.size()) {
    result_.final_statuses[static_cast<size_t>(qid)] = QueryStatus::kDone;
  }
  query->set_completion_time(now);
  const double latency = now - query->arrival_time();
  result_.query_arrivals.push_back(query->arrival_time());
  result_.query_completions.push_back(now);
  result_.query_latencies.push_back(latency);
  if (scheduler_ != nullptr) scheduler_->OnQueryCompleted(query->id(), latency);
  return latency;
}

void EpisodeRecorder::OnQueryTerminated(QueryState* query, double now,
                                        int64_t dropped_work_orders) {
  FinishTimeline(query, now);
  const QueryStatus status = query->status();
  const QueryId qid = query->id();
  if (qid >= 0 &&
      static_cast<size_t>(qid) < result_.final_statuses.size()) {
    result_.final_statuses[static_cast<size_t>(qid)] = status;
  }
  result_.num_work_orders_dropped += dropped_work_orders;
  if (status == QueryStatus::kCancelled) ++result_.num_queries_cancelled;
  if (status == QueryStatus::kFailed) ++result_.num_queries_failed;
  if (status == QueryStatus::kShed) ++result_.num_queries_shed;
}

int64_t EpisodeRecorder::OnFallback(double now, const SchedulingContext& ctx,
                                    QueryId chosen) {
  ++result_.num_fallback_decisions;

  if (!obs::Enabled()) return -1;
  obs::DecisionRecord rec;
  rec.time = now;
  rec.engine = engine_name_;
  rec.event = "fallback";
  rec.policy = scheduler_ != nullptr ? scheduler_->name() : "";
  rec.fallback = true;
  if (chosen >= 0) {
    rec.chosen_query = chosen;
    if (const QueryState* q = ctx.FindQuery(chosen)) {
      rec.tenant = q->tag().tenant;
    }
  }
  const int64_t decision_id = obs::DecisionLog::Global().Add(std::move(rec));
  considered_scratch_.clear();
  if (trace_on_) WalkCandidates(ctx, &considered_scratch_, nullptr);
  RecordPassedOver({now, obs::TraceEdgeKind::kFallback, decision_id, chosen});
  return decision_id;
}

void EpisodeRecorder::OnWorkerStates(
    std::vector<prof::WorkerStateBuckets> buckets) {
  result_.worker_states = std::move(buckets);
  int64_t dispatch_ns = 0;
  int64_t wall_ns = 0;
  for (const prof::WorkerStateBuckets& b : result_.worker_states) {
    dispatch_ns += b.ns[static_cast<int>(prof::WorkerState::kDispatch)];
    wall_ns += b.wall_ns;
  }
  const double sched_seconds = result_.scheduler_wall_seconds;
  const double denom = sched_seconds + static_cast<double>(wall_ns) * 1e-9;
  result_.sched_overhead_fraction =
      denom > 0.0
          ? (sched_seconds + static_cast<double>(dispatch_ns) * 1e-9) / denom
          : 0.0;
  if (!obs::Enabled()) return;
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  while (worker_gauges_.size() < result_.worker_states.size()) {
    const size_t i = worker_gauges_.size();
    std::array<obs::Gauge*, prof::kNumWorkerStates> gauges{};
    for (int s = 0; s < prof::kNumWorkerStates; ++s) {
      char name[64];
      std::snprintf(name, sizeof(name), "exec.worker%zu.%s_seconds", i,
                    prof::WorkerStateName(static_cast<prof::WorkerState>(s)));
      gauges[static_cast<size_t>(s)] = reg.GetGauge(name);
    }
    worker_gauges_.push_back(gauges);
  }
  for (size_t i = 0; i < result_.worker_states.size(); ++i) {
    const prof::WorkerStateBuckets& b = result_.worker_states[i];
    for (int s = 0; s < prof::kNumWorkerStates; ++s) {
      worker_gauges_[i][static_cast<size_t>(s)]->Set(
          static_cast<double>(b.ns[s]) * 1e-9);
    }
  }
  sched_overhead_fraction_->Set(result_.sched_overhead_fraction);
}

void EpisodeRecorder::FlushWindow() {
  const CounterTotals totals = Totals();
  if (obs::Enabled()) {
    for (size_t i = 0; i < kNumDerivedCounters; ++i) {
      counters_[i]->Add(totals[i] - flushed_totals_[i]);
    }
    for (size_t i = flushed_latencies_; i < result_.query_latencies.size();
         ++i) {
      query_latency_seconds_->Observe(result_.query_latencies[i]);
    }
    if (result_.max_inflight_work_orders > flushed_inflight_high_water_) {
      inflight_high_water_->Set(
          static_cast<double>(result_.max_inflight_work_orders));
      flushed_inflight_high_water_ = result_.max_inflight_work_orders;
    }
    decision_seconds_->MergeSnapshot(lh_decision_seconds_.snap);
    pipeline_degree_->MergeSnapshot(lh_pipeline_degree_.snap);
    queue_wait_seconds_->MergeSnapshot(lh_queue_wait_seconds_.snap);
    work_order_seconds_->MergeSnapshot(lh_work_order_seconds_.snap);
    // An attached DriftMonitor keeps scoring mid-stream without waiting
    // for an episode end.
    FlushRealized();
  }
  flushed_totals_ = totals;
  flushed_latencies_ = result_.query_latencies.size();
  lh_decision_seconds_.Reset();
  lh_pipeline_degree_.Reset();
  lh_queue_wait_seconds_.Reset();
  lh_work_order_seconds_.Reset();
  realized_base_ = -1;
  realized_seconds_.clear();
}

void EpisodeRecorder::FlushRealized() {
  for (size_t i = 0; i < realized_seconds_.size(); ++i) {
    if (realized_seconds_[i] != 0.0) {
      obs::DecisionLog::Global().AddRealized(
          realized_base_ + static_cast<int64_t>(i), realized_seconds_[i]);
    }
  }
  realized_base_ = -1;
  realized_seconds_.clear();
}

EpisodeResult EpisodeRecorder::SnapshotResult(double now) const {
  EpisodeResult snap = result_;
  snap.avg_latency = Mean(snap.query_latencies);
  snap.p90_latency = Percentile(snap.query_latencies, 90.0);
  snap.makespan = now;
  return snap;
}

void EpisodeRecorder::Finalize(double makespan) {
  result_.avg_latency = Mean(result_.query_latencies);
  result_.p90_latency = Percentile(result_.query_latencies, 90.0);
  result_.makespan = makespan;
  FlushWindow();
}

}  // namespace lsched
