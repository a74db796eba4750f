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

/// "q:op" pairs of every currently-schedulable operator, truncated to
/// kMaxLoggedCandidates. Also counts the full set, and (when `schedulable`
/// is non-null) collects the id of every query with at least one
/// schedulable operator — the trace layer's considered-but-skipped set —
/// so the per-invocation plan walk happens exactly once.
std::string CandidateSetString(const SchedulingContext& ctx, int* count,
                               std::vector<QueryId>* schedulable) {
  std::string out;
  out.reserve(128);
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
      if (n <= obs::kMaxLoggedCandidates) {
        std::snprintf(buf, sizeof(buf), "%s%lld:%d", out.empty() ? "" : ";",
                      static_cast<long long>(q->id()), op);
        out += buf;
      }
    }
  }
  if (n > obs::kMaxLoggedCandidates) {
    std::snprintf(buf, sizeof(buf), "+%d", n - obs::kMaxLoggedCandidates);
    out += buf;
  }
  *count = n;
  return out;
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

void EpisodeRecorder::TrackQuery(QueryId qid) {
  if (qid < 0) return;
  const size_t n = static_cast<size_t>(qid) + 1;
  if (result_.final_statuses.size() < n) {
    result_.final_statuses.resize(n, QueryStatus::kAdmitted);
  }
}

EpisodeRecorder::QueryTimeline* EpisodeRecorder::SlotFor(QueryId qid) {
  if (qid < timeline_base_) return nullptr;
  const size_t idx = static_cast<size_t>(qid - timeline_base_);
  if (timelines_.size() <= idx) timelines_.resize(idx + 1);
  return &timelines_[idx];
}

EpisodeRecorder::QueryTimeline* EpisodeRecorder::TimelineFor(
    QueryId qid, double arrival_time) {
  QueryTimeline* slot = SlotFor(qid);
  if (slot == nullptr) return nullptr;
  QueryTimeline& t = *slot;
  if (!t.started) {
    t.started = true;
    t.arrival_ns = LatencyNs(arrival_time);
    t.last_ns = t.arrival_ns;
  }
  return &t;
}

void EpisodeRecorder::AdvanceTimeline(QueryTimeline& t, double now) {
  // Charge the elapsed nanoseconds to the *current* mode, then let the
  // caller apply the state change. Deltas telescope from arrival to
  // terminal, which is what makes the decomposition sum exact.
  const int64_t now_ns = LatencyNs(now);
  const int64_t delta = now_ns - t.last_ns;
  if (t.inflight > 0) {
    t.breakdown.service_ns += delta;
  } else if (t.retries_pending > 0) {
    t.breakdown.stall_ns += delta;
  } else if (t.launched) {
    t.breakdown.queue_ns += delta;
  } else {
    t.breakdown.admission_ns += delta;
  }
  t.last_ns = now_ns;
}

void EpisodeRecorder::FinishTimeline(QueryState* query, double now) {
  QueryTimeline* t = TimelineFor(query->id(), query->arrival_time());
  if (t == nullptr || t->finished) return;
  AdvanceTimeline(*t, now);
  t->finished = true;
  t->breakdown.total_ns = LatencyNs(now) - t->arrival_ns;
  t->breakdown.valid = true;
  query->set_breakdown(t->breakdown);

  const size_t idx = static_cast<size_t>(query->id());
  if (result_.query_breakdowns.size() <= idx) {
    result_.query_breakdowns.resize(idx + 1);
  }
  result_.query_breakdowns[idx] = t->breakdown;
  result_.sum_admission_wait_ns += t->breakdown.admission_ns;
  result_.sum_queue_wait_ns += t->breakdown.queue_ns;
  result_.sum_service_time_ns += t->breakdown.service_ns;
  result_.sum_stall_time_ns += t->breakdown.stall_ns;
  result_.sum_latency_ns += t->breakdown.total_ns;
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
    rec.breakdown = t->breakdown;
    obs::TraceEdge term;
    term.time = now;
    term.kind = obs::TraceEdgeKind::kTerminal;
    term.a = static_cast<int64_t>(query->status());
    term.value = t->breakdown.total_seconds();
    t->edges.push_back(term);  // always kept, even past the cap
    // A query at the cap pushed its terminal edge into a full vector and
    // doubled its capacity; the ring keeps thousands of these records.
    t->edges.shrink_to_fit();
    rec.edges = std::move(t->edges);
    rec.dropped_edges = t->dropped_edges;
    obs::QueryTraceLog::Global().Record(std::move(rec));
  }
  // Retire the finished prefix: no later event reads those timelines.
  while (!timelines_.empty() && timelines_.front().finished) {
    timelines_.pop_front();
    ++timeline_base_;
  }
}

void EpisodeRecorder::RecordInstant(const char* name, const char* category,
                                    double now, int64_t query,
                                    const char* arg2_name, int64_t arg2) {
  if (!obs::Enabled()) return;
  obs::Tracer::Global().RecordInstant(
      name, category, virtual_time_ ? now * 1e6 : obs::NowMicros(),
      obs::ThreadId(), "query", query, arg2_name, arg2);
}

void EpisodeRecorder::AddTraceEdge(QueryId qid, const obs::TraceEdge& e) {
  QueryTimeline* t = SlotFor(qid);
  if (t == nullptr || t->finished) return;
  if (t->edges.size() >= static_cast<size_t>(obs::kMaxTraceEdgesPerQuery)) {
    ++t->dropped_edges;
    return;
  }
  t->edges.push_back(e);
}

void EpisodeRecorder::OnQueryArrival(const QueryState& query, double /*now*/) {
  TimelineFor(query.id(), query.arrival_time());
  if (trace_on_) {
    obs::TraceEdge e;
    e.time = query.arrival_time();
    e.kind = obs::TraceEdgeKind::kArrival;
    e.a = query.tag().tenant;
    e.b = static_cast<int64_t>(query.tag().priority);
    AddTraceEdge(query.id(), e);
  }
}

void EpisodeRecorder::OnAdmissionVerdict(QueryId qid, double now,
                                         bool admitted, QueryId displaced) {
  if (!trace_on_) return;
  obs::TraceEdge e;
  e.time = now;
  if (admitted) {
    e.kind = obs::TraceEdgeKind::kAdmit;
    e.a = displaced != kInvalidQuery ? 1 : 0;
    AddTraceEdge(qid, e);
    if (displaced != kInvalidQuery) {
      obs::TraceEdge d;
      d.time = now;
      d.kind = obs::TraceEdgeKind::kDisplace;
      d.a = displaced;
      AddTraceEdge(qid, d);
    }
  } else {
    e.kind = obs::TraceEdgeKind::kShed;
    AddTraceEdge(qid, e);
  }
}

void EpisodeRecorder::OnQueryDisplaced(QueryId victim, QueryId newcomer,
                                       double now) {
  if (!trace_on_) return;
  obs::TraceEdge e;
  e.time = now;
  e.kind = obs::TraceEdgeKind::kDisplacedBy;
  e.a = newcomer;
  AddTraceEdge(victim, e);
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

  obs::DecisionRecord rec;
  rec.time = ctx.now();
  rec.engine = engine_name_;
  rec.event = SchedulingEventTypeName(event.type);
  rec.policy = scheduler_ != nullptr ? scheduler_->name() : "";
  considered_scratch_.clear();
  rec.candidates = CandidateSetString(ctx, &rec.num_candidates,
                                      trace_on_ ? &considered_scratch_
                                                : nullptr);
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
  // Tenant of the chosen query: keys the per-tenant drift shards.
  if (chosen_query >= 0) {
    if (const QueryState* q = ctx.FindQuery(chosen_query)) {
      rec.tenant = q->tag().tenant;
    }
  }
  const int64_t decision_id = obs::DecisionLog::Global().Add(std::move(rec));
  if (trace_on_) {
    // "Considered but skipped": every query with at least one schedulable
    // operator that this decision did not launch gets a causal edge tying
    // its wait to the decision (and the policy's predicted score for what
    // it chose instead). The set was collected by the CandidateSetString
    // walk above — no second plan scan.
    obs::TraceEdge e;
    e.time = ctx.now();
    e.kind = obs::TraceEdgeKind::kConsideredSkipped;
    e.a = decision_id;
    e.b = chosen_query;
    e.value = decision.score;
    for (const QueryId qid : considered_scratch_) {
      if (qid == chosen_query) continue;
      AddTraceEdge(qid, e);
    }
    // Fairness redirections / injections the serving layer's
    // FilterDecision applied to this decision.
    for (const ServingAction& a : decision.serving_actions) {
      obs::TraceEdge e;
      e.time = ctx.now();
      if (a.kind == ServingAction::kRedirect) {
        e.kind = obs::TraceEdgeKind::kRedirected;
        e.a = a.other;
        AddTraceEdge(a.query, e);
        obs::TraceEdge w;
        w.time = ctx.now();
        w.kind = obs::TraceEdgeKind::kInjected;
        w.a = a.query;
        w.value = 2.0;
        AddTraceEdge(a.other, w);
      } else {
        e.kind = obs::TraceEdgeKind::kInjected;
        e.a = a.other;
        e.value = a.kind == ServingAction::kInjectPriority ? 1.0 : 2.0;
        AddTraceEdge(a.query, e);
      }
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
  if (QueryTimeline* t = TimelineFor(query, now)) {
    if (!t->finished) {
      AdvanceTimeline(*t, now);
      t->launched = true;  // admission wait ends at the first launch
    }
  }
  if (trace_on_) {
    obs::TraceEdge e;
    e.time = now;
    e.kind = obs::TraceEdgeKind::kScheduled;
    e.a = decision_id;
    e.b = root_op;
    e.value = static_cast<double>(degree);
    AddTraceEdge(query, e);
  }

  if (!obs::Enabled()) return;
  lh_pipeline_degree_.Observe(static_cast<double>(degree));
  obs::DecisionLog::Global().AddPipeline(decision_id, planned_work_orders);
  RecordInstant("sched.pipeline_launch", "sched", now, query, "root_op",
                root_op);
}

void EpisodeRecorder::OnWorkOrderDispatched(QueryId query, bool retry,
                                            int inflight_now,
                                            double queue_wait_seconds,
                                            double now) {
  ++result_.num_work_orders_dispatched;
  result_.max_inflight_work_orders =
      std::max(result_.max_inflight_work_orders, inflight_now);
  if (QueryTimeline* t = TimelineFor(query, now)) {
    if (!t->finished) {
      AdvanceTimeline(*t, now);
      ++t->inflight;
      ++t->breakdown.dispatches;
      if (retry && t->retries_pending > 0) --t->retries_pending;
    }
  }

  if (!obs::Enabled()) return;
  lh_queue_wait_seconds_.Observe(std::max(0.0, queue_wait_seconds));
  if (trace_on_) {
    obs::TraceEdge e;
    e.time = now;
    e.kind = obs::TraceEdgeKind::kDispatch;
    e.value = retry ? 1.0 : 0.0;
    AddTraceEdge(query, e);
  }
}

void EpisodeRecorder::OnWorkOrderCompleted(QueryId query, int64_t decision_id,
                                           double seconds, double now) {
  ++result_.num_work_orders_completed;
  if (QueryTimeline* t = TimelineFor(query, now)) {
    if (!t->finished) {
      AdvanceTimeline(*t, now);
      if (t->inflight > 0) --t->inflight;
    }
  }
  if (trace_on_) {
    obs::TraceEdge e;
    e.time = now;
    e.kind = obs::TraceEdgeKind::kComplete;
    e.value = seconds;
    AddTraceEdge(query, e);
  }

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
  if (QueryTimeline* t = TimelineFor(query, now)) {
    if (!t->finished) {
      AdvanceTimeline(*t, now);
      if (t->inflight > 0) --t->inflight;
    }
  }
  if (trace_on_) {
    obs::TraceEdge e;
    e.time = now;
    e.kind = obs::TraceEdgeKind::kFailed;
    AddTraceEdge(query, e);
  }
}

void EpisodeRecorder::OnWorkOrderRetried(QueryId query, double now) {
  ++result_.num_retries;
  if (QueryTimeline* t = TimelineFor(query, now)) {
    if (!t->finished) {
      AdvanceTimeline(*t, now);
      ++t->retries_pending;
      ++t->breakdown.retries;
    }
  }
  if (trace_on_) {
    obs::TraceEdge e;
    e.time = now;
    e.kind = obs::TraceEdgeKind::kRetry;
    AddTraceEdge(query, e);
  }
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

  RecordInstant("exec.query_completed", "exec", now, qid);
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

  RecordInstant("exec.query_terminated", "exec", now, qid, "status",
                static_cast<int64_t>(status));
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
  if (trace_on_) {
    for (const QueryState* q : ctx.queries()) {
      if (q->id() == chosen) continue;
      const int ops = static_cast<int>(q->plan().num_nodes());
      bool schedulable = false;
      for (int op = 0; op < ops; ++op) {
        if (q->IsOpSchedulable(op)) {
          schedulable = true;
          break;
        }
      }
      if (!schedulable) continue;
      obs::TraceEdge e;
      e.time = now;
      e.kind = obs::TraceEdgeKind::kFallback;
      e.a = decision_id;
      e.b = chosen;
      AddTraceEdge(q->id(), e);
    }
  }
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
