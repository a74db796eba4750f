// The two serving workloads: RealEngine in serving mode under a delegating
// Scheduler and ServingHooks pair, driven from one load-generator thread.
#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <thread>

#include "bench.h"
#include "bench/bench_common.h"
#include "core/agent.h"
#include "core/model.h"
#include "exec/real_engine.h"
#include "inputs.h"
#include "ledger.h"
#include "obs/exporter.h"
#include "obs/metrics.h"
#include "sched/heuristics.h"
#include "serve/serving_policy.h"
#include "testing/fuzzer.h"
#include "testing/invariants.h"
#include "util/math_util.h"
#include "util/rng.h"

namespace perfbench {

using namespace lsched;

namespace {

/// RealEngine workers. With the load generator and the coordinator this is
/// four threads, the budget main() checks against the CPU count.
constexpr int kWorkers = 2;
/// Set-up builds per run; setup_s is their median.
constexpr int kSetupReps = 5;

/// Completion signal for the load generator: the hooks wrapper posts each
/// terminal query here from the coordinator thread.
class CompletionBoard {
 public:
  void Complete(QueryId id, QueryStatus status, int64_t t_ns) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (id >= 0) {
        const size_t i = static_cast<size_t>(id);
        if (i >= done_ns_.size()) {
          done_ns_.resize(std::max<size_t>(i + 1, 2 * done_ns_.size()), 0);
          status_.resize(done_ns_.size(), QueryStatus::kAdmitted);
        }
        done_ns_[i] = t_ns;
        status_[i] = status;
      }
      ++count_;
    }
    cv_.notify_one();
  }

  int64_t count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return count_;
  }

  /// Blocks until `n` queries have completed or `deadline_ns` passed.
  void WaitFor(int64_t n, int64_t deadline_ns) {
    std::unique_lock<std::mutex> lock(mu_);
    const auto deadline = std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(deadline_ns));
    cv_.wait_until(lock, deadline, [&] { return count_ >= n; });
  }

  /// Read only after the engine has drained (its threads joined); a query
  /// that never completed reads 0 / kAdmitted.
  int64_t done_ns(QueryId id) const {
    const size_t i = static_cast<size_t>(id);
    return i < done_ns_.size() ? done_ns_[i] : 0;
  }
  QueryStatus status(QueryId id) const {
    const size_t i = static_cast<size_t>(id);
    return i < status_.size() ? status_[i] : QueryStatus::kAdmitted;
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<int64_t> done_ns_;
  std::vector<QueryStatus> status_;
  int64_t count_ = 0;
};

/// Delegating Scheduler: counts decisions and, when tracing, times each
/// call into the policy.
class TimedScheduler : public Scheduler {
 public:
  TimedScheduler(Scheduler* inner, SpanLog* log) : inner_(inner), log_(log) {}

  using Scheduler::Schedule;
  std::string name() const override { return inner_->name(); }
  void Reset() override { inner_->Reset(); }
  SchedulingDecision Schedule(const SchedulingEvent& event,
                              const SchedulingContext& ctx) override {
    ++decisions_;
    if (log_ == nullptr) return inner_->Schedule(event, ctx);
    const int64_t t0 = NowNs();
    SchedulingDecision d = inner_->Schedule(event, ctx);
    log_->Add("sched.schedule", t0, NowNs(), event.query);
    return d;
  }
  void OnQueryCompleted(QueryId query, double latency) override {
    inner_->OnQueryCompleted(query, latency);
  }

  int64_t decisions() const { return decisions_; }

 private:
  Scheduler* inner_;
  SpanLog* log_;
  int64_t decisions_ = 0;
};

/// Delegating ServingHooks around ServingPolicy: posts terminal queries to
/// the completion board and, when tracing, times each hook.
class TimedHooks : public ServingHooks {
 public:
  TimedHooks(ServingPolicy* inner, CompletionBoard* board, SpanLog* log)
      : inner_(inner), board_(board), log_(log) {}

  AdmissionVerdict OnAdmission(const QueryState& q, const SchedulingContext& ctx,
                               double now) override {
    if (log_ == nullptr) return inner_->OnAdmission(q, ctx, now);
    const int64_t t0 = NowNs();
    const AdmissionVerdict v = inner_->OnAdmission(q, ctx, now);
    log_->Add("serve.admission", t0, NowNs(), q.id());
    return v;
  }
  void FilterDecision(SchedulingDecision* decision,
                      const SchedulingContext& ctx) override {
    if (log_ == nullptr) return inner_->FilterDecision(decision, ctx);
    const int64_t t0 = NowNs();
    inner_->FilterDecision(decision, ctx);
    log_->Add("serve.filter", t0, NowNs());
  }
  void OnQueryTerminal(const QueryState& q, double now) override {
    const int64_t t0 = NowNs();
    ++terminals_;
    inner_->OnQueryTerminal(q, now);
    if (log_ != nullptr) log_->Add("serve.terminal", t0, NowNs(), q.id());
    board_->Complete(q.id(), q.status(), t0);
  }
  void OnEngineRefused(const QueryState& q, double now) override {
    inner_->OnEngineRefused(q, now);
  }

  int64_t terminals() const { return terminals_; }

 private:
  ServingPolicy* inner_;
  CompletionBoard* board_;
  SpanLog* log_;
  int64_t terminals_ = 0;
};

/// One serving session: the composition ServingDaemon::Start performs
/// (ServingPolicy installed as the engine's hooks, RealEngine in serving
/// mode), with the two delegating wrappers in between.
class Session {
 public:
  Session(const Catalog* catalog, Scheduler* policy,
          const ServingPolicyConfig& serving, size_t chunk_rows, bool trace)
      : serving_(serving),
        coord_log_(trace ? 1 << 16 : 0),
        client_log_(trace ? 1 << 14 : 0),
        trace_(trace),
        sched_(policy, trace ? &coord_log_ : nullptr),
        hooks_(&serving_, &board_, trace ? &coord_log_ : nullptr) {
    RealEngineConfig cfg;
    cfg.num_threads = kWorkers;
    cfg.chunk_rows = chunk_rows;
    cfg.hooks = &hooks_;
    engine_ = std::make_unique<RealEngine>(catalog, cfg);
    serving_.Reset();
    obs::SetDraining(false);
    engine_->StartServing(&sched_);
  }

  QueryId Submit(const QueryPlan& plan, const QueryTag& tag) {
    return engine_->Submit(plan, tag);
  }
  RealRunResult Drain() { return engine_->Drain(); }

  CompletionBoard& board() { return board_; }
  SpanLog& client_log() { return client_log_; }
  const SpanLog& coord_log() const { return coord_log_; }
  bool trace() const { return trace_; }
  const TimedScheduler& sched() const { return sched_; }
  const TimedHooks& hooks() const { return hooks_; }
  const ServingPolicy& serving() const { return serving_; }

 private:
  ServingPolicy serving_;
  CompletionBoard board_;
  SpanLog coord_log_;
  SpanLog client_log_;
  bool trace_;
  TimedScheduler sched_;
  TimedHooks hooks_;
  std::unique_ptr<RealEngine> engine_;
};

struct QueryRecord {
  QueryId id = kInvalidQuery;
  int plan = 0;
  int64_t due_ns = 0;   ///< when the query was due (open) or sent (closed)
  int64_t sent_ns = 0;  ///< when Submit was called
  int64_t returned_ns = 0;
};

/// Offered load. `outstanding` > 0 is a closed loop keeping that many
/// queries in flight; 0 is an open loop submitting at `due_ns` offsets.
struct LoadSpec {
  int outstanding = 0;
  std::vector<int64_t> due_ns;
  std::vector<int> plan_seq;   ///< library index per submission, cycled
  std::vector<QueryTag> tags;  ///< per submission, cycled; empty = default
  int64_t window_ns = 0;       ///< closed loop: stop sending after this
  size_t max_queries = 0;      ///< closed loop: stop after this many (0 = none)
};

struct LoadResult {
  std::vector<QueryRecord> queries;
  int64_t start_ns = 0;
  /// Queries completing in [start_ns, window_end_ns) are measured: the
  /// closed loop's sending window, and on the open loop every sent query
  /// (until the last is terminal), so a backlog lowers the completed rate.
  int64_t window_end_ns = 0;
  int64_t last_send_ns = 0;
  int64_t finish_ns = 0;  ///< every sent query terminal
};

/// Drives `spec` against `s` from the calling thread, then waits until
/// every query it sent is terminal.
LoadResult RunLoad(Session* s, const std::vector<LibraryPlan>& lib,
                   const LoadSpec& spec) {
  LoadResult r;
  r.start_ns = NowNs();
  const int64_t base = s->board().count();
  size_t i = 0;
  int64_t refused = 0;  // Submit() returned no id: no terminal will follow
  auto send = [&](int64_t due) {
    QueryRecord q;
    q.plan = spec.plan_seq[i % spec.plan_seq.size()];
    const QueryTag tag =
        spec.tags.empty() ? QueryTag{} : spec.tags[i % spec.tags.size()];
    q.sent_ns = NowNs();
    q.due_ns = due < 0 ? q.sent_ns : due;
    q.id = s->Submit(lib[static_cast<size_t>(q.plan)].plan, tag);
    q.returned_ns = NowNs();
    refused += q.id == kInvalidQuery;
    if (s->trace()) s->client_log().Add("client.submit", q.sent_ns, q.returned_ns, q.id);
    r.queries.push_back(q);
    ++i;
  };
  if (spec.outstanding > 0) {
    const int64_t end = spec.window_ns > 0 ? r.start_ns + spec.window_ns : INT64_MAX;
    const size_t cap = spec.max_queries > 0 ? spec.max_queries : SIZE_MAX;
    const int64_t k = spec.outstanding;
    while (NowNs() < end && i < cap) {
      const int64_t done = s->board().count() - base + refused;
      while (static_cast<int64_t>(i) - done < k && i < cap) send(-1);
      s->board().WaitFor(base + static_cast<int64_t>(i) - refused - k + 1, end);
    }
    r.window_end_ns = spec.window_ns > 0 ? end : NowNs();
  } else {
    for (int64_t due : spec.due_ns) {
      const int64_t target = r.start_ns + due;
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(target)));
      send(target);
    }
  }
  r.last_send_ns = NowNs();
  s->board().WaitFor(base + static_cast<int64_t>(i) - refused, INT64_MAX);
  r.finish_ns = NowNs();
  if (spec.outstanding == 0) r.window_end_ns = r.finish_ns + 1;
  return r;
}

/// How a serving workload differs between lsched_closed and fifo_open.
struct ServingSpec {
  InputSpec inputs;
  size_t chunk_rows = 4096;
  bool lsched = false;
  int outstanding = 0;    ///< closed loop when > 0
  double rate_qps = 0.0;  ///< open loop arrival rate
  int tenants = 1;
};

std::vector<int> PlanSequence(uint64_t seed, size_t library, size_t n) {
  Rng rng(seed ^ 0x9a11ULL);
  std::vector<int> seq(n);
  for (int& p : seq) p = static_cast<int>(rng.UniformInt(static_cast<uint64_t>(library)));
  return seq;
}

Outcome RunServing(const Options& opt, const ServingSpec& spec) {
  Outcome out;
  // --- setup: inputs, oracle and model, built kSetupReps times for a
  // steady figure (the median is reported); the last build is kept.
  std::vector<double> setup_reps;
  ServingInputs in;
  std::unique_ptr<LSchedModel> model;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const int64_t t0 = NowNs();
    in = BuildServingInputs(spec.inputs, opt.seed);
    if (spec.lsched) model = std::make_unique<LSchedModel>(bench::DefaultLSchedConfig());
    setup_reps.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
  }
  const size_t L = in.library.size();
  auto make_policy = [&]() -> std::unique_ptr<Scheduler> {
    if (spec.lsched) return std::make_unique<LSchedAgent>(model.get());
    return std::make_unique<FifoScheduler>();
  };
  ServingPolicyConfig serving;
  for (int t = 0; t < spec.tenants; ++t) {
    serving.tenant_weights.push_back({t, 1.0 + t});
  }

  // --- warm-up, outside setup_s: each library plan alone (its solo
  // service time), then a closed-loop pass over the plan sequence. Its
  // length follows the policy's latency tail, so it is only printed.
  const std::vector<int> seq = PlanSequence(opt.seed, L, 4096);
  std::vector<double> solo_ms(L, 0.0);
  const int64_t w0 = NowNs();
  {
    auto policy = make_policy();
    Session warm(in.catalog.get(), policy.get(), serving, spec.chunk_rows, false);
    LoadSpec solo;
    solo.outstanding = 1;
    for (size_t p = 0; p < L; ++p) solo.plan_seq.push_back(static_cast<int>(p));
    solo.max_queries = L;
    const LoadResult sr = RunLoad(&warm, in.library, solo);
    for (const QueryRecord& q : sr.queries) {
      solo_ms[static_cast<size_t>(q.plan)] =
          static_cast<double>(warm.board().done_ns(q.id) - q.sent_ns) * 1e-6;
    }
    LoadSpec pass;
    pass.outstanding = std::max(spec.outstanding, 4);
    pass.plan_seq = seq;
    pass.max_queries = 4 * L;
    RunLoad(&warm, in.library, pass);
    warm.Drain();
  }
  const double warmup_s = static_cast<double>(NowNs() - w0) * 1e-9;
  const double setup_s = Percentile(setup_reps, 50);
  std::fprintf(stderr, "setup: inputs %.3f s (median of %d), warm-up %.3f s\n",
               setup_s, kSetupReps, warmup_s);
  std::fprintf(stderr, "plan library, solo service ms / cost-model estimate s:");
  for (size_t p = 0; p < L; ++p) {
    std::fprintf(stderr, " %.2f/%.4f", solo_ms[p], in.library[p].est_cost);
  }
  std::fprintf(stderr, "\n");

  // --- the timed session.
  LoadSpec load;
  load.plan_seq = seq;
  load.window_ns = static_cast<int64_t>(opt.seconds * 1e9);
  if (spec.outstanding > 0) {
    load.outstanding = spec.outstanding;
  } else {
    // Poisson arrivals conditioned on their count: n uniform due times.
    const size_t n = static_cast<size_t>(spec.rate_qps * opt.seconds + 0.5);
    Rng rng(opt.seed ^ 0xa77ULL);
    for (size_t i = 0; i < n; ++i) {
      load.due_ns.push_back(static_cast<int64_t>(rng.Uniform() * static_cast<double>(load.window_ns)));
    }
    std::sort(load.due_ns.begin(), load.due_ns.end());
    FuzzerOptions fopts;
    fopts.num_tenants = spec.tenants;
    fopts.high_priority_fraction = 0.15;
    fopts.low_priority_fraction = 0.25;
    WorkloadFuzzer tagger(opt.seed ^ 0x7a6ULL, fopts);
    for (size_t i = 0; i < n; ++i) load.tags.push_back(tagger.FuzzTag());
  }
  auto& reg = obs::MetricsRegistry::Global();
  const int64_t hits0 = reg.GetCounter("sched.encoder_cache_hits")->Value();
  const int64_t miss0 = reg.GetCounter("sched.encoder_cache_misses")->Value();
  auto policy = make_policy();
  Session s(in.catalog.get(), policy.get(), serving, spec.chunk_rows, opt.trace);
  const LoadResult lr = RunLoad(&s, in.library, load);
  RealRunResult res = s.Drain();
  // From the end of sending to a drained engine: the in-flight tail plus
  // Drain() itself.
  const int64_t drain_ns = NowNs() - lr.last_send_ns;
  const int64_t hits = reg.GetCounter("sched.encoder_cache_hits")->Value() - hits0;
  const int64_t misses = reg.GetCounter("sched.encoder_cache_misses")->Value() - miss0;

  // --- correctness: every query DONE with the oracle's sink rows/checksum.
  const EpisodeResult& ep = res.episode;
  if (opt.corrupt_checksum && !lr.queries.empty()) {
    res.sink_checksums[static_cast<size_t>(lr.queries.front().id)] += 1.0;
  }
  std::vector<OpSample> samples;
  for (const QueryRecord& q : lr.queries) {
    ++out.attempted;
    const size_t id = static_cast<size_t>(q.id);
    const OracleQueryResult& want = in.library[static_cast<size_t>(q.plan)].oracle;
    const bool ok = q.id != kInvalidQuery && s.board().status(q.id) == QueryStatus::kDone &&
                    id < ep.final_statuses.size() &&
                    ep.final_statuses[id] == QueryStatus::kDone &&
                    res.sink_row_counts[id] == want.sink_rows &&
                    ChecksumsMatch(want.sink_checksum, res.sink_checksums[id]);
    if (!ok) {
      if (out.failed < 5) {
        std::fprintf(stderr, "query %lld (plan %d) failed: status %s rows %lld/%lld\n",
                     static_cast<long long>(q.id), q.plan,
                     q.id == kInvalidQuery ? "refused" : QueryStatusName(s.board().status(q.id)),
                     static_cast<long long>(id < res.sink_row_counts.size() ? res.sink_row_counts[id] : -1),
                     static_cast<long long>(want.sink_rows));
      }
      ++out.failed;
      continue;
    }
    const int64_t done = s.board().done_ns(q.id);
    samples.push_back({done, static_cast<double>(done - q.due_ns) * 1e-6});
  }
  const Status valid = ValidateEpisodeResult(ep, lr.queries.size(), kWorkers);
  if (!valid.ok()) out.errors.push_back("episode invariants: " + valid.ToString());
  // Ledger reconciliation: the wrappers saw what the engine recorded.
  if (s.sched().decisions() != ep.num_scheduler_invocations) {
    out.errors.push_back("decision count " + std::to_string(s.sched().decisions()) +
                         " != num_scheduler_invocations " +
                         std::to_string(ep.num_scheduler_invocations));
  }
  int64_t done_statuses = 0;
  for (QueryStatus st : ep.final_statuses) done_statuses += st == QueryStatus::kDone;
  if (s.hooks().terminals() != static_cast<int64_t>(lr.queries.size()) ||
      done_statuses != static_cast<int64_t>(ep.query_latencies.size())) {
    out.errors.push_back("completion count mismatch: hooks " +
                         std::to_string(s.hooks().terminals()) + ", sent " +
                         std::to_string(lr.queries.size()) + ", DONE " +
                         std::to_string(done_statuses) + ", latencies " +
                         std::to_string(ep.query_latencies.size()));
  }

  std::fprintf(stderr, "ledger: decisions %lld engine %d; terminals %lld sent %zu done %lld latencies %zu\n",
               static_cast<long long>(s.sched().decisions()), ep.num_scheduler_invocations,
               static_cast<long long>(s.hooks().terminals()), lr.queries.size(),
               static_cast<long long>(done_statuses), ep.query_latencies.size());
  const WindowStats w = Summarize(samples, lr.start_ns, lr.window_end_ns);
  const double qps = w.ops_per_s, p50 = w.p50_ms, p99 = w.p99_ms;
  std::fprintf(stderr, "%s: %lld queries sent, %lld failed, %zu completed in the window (p99 sample count)\n",
               opt.workload.c_str(), static_cast<long long>(out.attempted),
               static_cast<long long>(out.failed), w.samples);
  out.end_to_end = {{"ops_per_s", qps, "1/s"},
                    {"p50_ms", p50, "ms"},
                    {"p99_ms", p99, "ms"},
                    {"setup_s", setup_s, "s"},
                    {"rss_mb", PeakRssMb(), "MB"}};
  if (!opt.trace) return out;

  // --- per-layer ledger (traced run).
  std::vector<double> sched_us, adm_us, filt_us, term_us, submit_us, late_ms;
  int64_t sched_ns = 0;
  for (const Span& sp : s.coord_log().spans()) {
    const double us = static_cast<double>(sp.end_ns - sp.start_ns) * 1e-3;
    const std::string name = sp.name;
    if (name == "sched.schedule") {
      sched_us.push_back(us);
      sched_ns += sp.end_ns - sp.start_ns;
    } else if (name == "serve.admission") {
      adm_us.push_back(us);
    } else if (name == "serve.filter") {
      filt_us.push_back(us);
    } else if (name == "serve.terminal") {
      term_us.push_back(us);
    }
  }
  for (const QueryRecord& q : lr.queries) {
    submit_us.push_back(static_cast<double>(q.returned_ns - q.sent_ns) * 1e-3);
    late_ms.push_back(spec.outstanding > 0 ? 0.0 : static_cast<double>(q.sent_ns - q.due_ns) * 1e-6);
  }
  int64_t dispatch_ns = 0, exec_ns = 0, idle_ns = 0, stall_ns = 0, wall_ns = 0;
  for (const prof::WorkerStateBuckets& b : ep.worker_states) {
    dispatch_ns += b.ns[static_cast<int>(prof::WorkerState::kDispatch)];
    exec_ns += b.ns[static_cast<int>(prof::WorkerState::kExecuting)];
    idle_ns += b.ns[static_cast<int>(prof::WorkerState::kIdle)];
    stall_ns += b.ns[static_cast<int>(prof::WorkerState::kStalled)];
    wall_ns += b.wall_ns;
  }
  const double wos = static_cast<double>(std::max<int64_t>(ep.num_work_orders_completed, 1));
  const double nq = static_cast<double>(std::max(ep.num_queries_decomposed, 1));
  const double wall = static_cast<double>(std::max<int64_t>(wall_ns, 1));
  const double hit_total = static_cast<double>(std::max<int64_t>(hits + misses, 1));
  out.per_layer = {
      {"exec.dispatch_us_per_wo", static_cast<double>(dispatch_ns) * 1e-3 / wos, "us"},
      {"exec.kernel_us_per_wo", static_cast<double>(exec_ns) * 1e-3 / wos, "us"},
      {"exec.work_orders", static_cast<double>(ep.num_work_orders_completed), "count"},
      {"exec.stall_frac", static_cast<double>(stall_ns) / wall, "ratio"},
      {"exec.idle_frac", static_cast<double>(idle_ns) / wall, "ratio"},
      {"exec.queue_wait_ms", static_cast<double>(ep.sum_queue_wait_ns) * 1e-6 / nq, "ms"},
      {"exec.service_ms", static_cast<double>(ep.sum_service_time_ns) * 1e-6 / nq, "ms"},
      {"exec.admission_wait_ms", static_cast<double>(ep.sum_admission_wait_ns) * 1e-6 / nq, "ms"},
      {"exec.max_inflight", static_cast<double>(ep.max_inflight_work_orders), "count"},
      {"exec.retries", static_cast<double>(ep.num_retries), "count"},
      {"sched.decisions", static_cast<double>(s.sched().decisions()), "count"},
      {"sched.decision_us_p50", Percentile(sched_us, 50), "us"},
      {"sched.decision_us_p99", Percentile(sched_us, 99), "us"},
      {"sched.busy_frac", static_cast<double>(sched_ns) / static_cast<double>(lr.finish_ns - lr.start_ns), "ratio"},
      {"sched.fallbacks", static_cast<double>(ep.num_fallback_decisions), "count"},
      {"core.encoder_hit_ratio", static_cast<double>(hits) / hit_total, "ratio"},
      {"serve.admission_us_p50", Percentile(adm_us, 50), "us"},
      {"serve.filter_us_p50", Percentile(filt_us, 50), "us"},
      {"serve.filter_us_p99", Percentile(filt_us, 99), "us"},
      {"serve.terminal_us_p50", Percentile(term_us, 50), "us"},
      {"serve.redirects", static_cast<double>(s.serving().num_redirects()), "count"},
      {"serve.injections", static_cast<double>(s.serving().num_injections()), "count"},
      {"serve.shed", static_cast<double>(s.serving().num_shed()), "count"},
      {"client.submit_us_p50", Percentile(submit_us, 50), "us"},
      {"client.late_ms_p99", Percentile(late_ms, 99), "ms"},
      {"client.drain_ms", static_cast<double>(drain_ns) * 1e-6, "ms"},
      {"traced.ops_per_s", qps, "1/s"},
      {"traced.p50_ms", p50, "ms"},
      {"traced.p99_ms", p99, "ms"},
  };

  // Spans: one "query" span per query (sent/due to completion) parents its
  // submit, admission and terminal spans and the decisions its events caused.
  SpanLog query_log(lr.queries.size());
  for (const QueryRecord& q : lr.queries) {
    query_log.Add("query", q.due_ns, s.board().done_ns(q.id), q.id);
  }
  query_log.Add("client.drain", lr.last_send_ns, lr.last_send_ns + drain_ns);
  const std::vector<Span> spans = MergeSpans({&query_log, &s.client_log(), &s.coord_log()});
  PrintSpanTable(spans);
  const std::string path = opt.out_dir + "/spans-" + opt.workload + "-" +
                           std::to_string(opt.seed) + ".csv";
  if (!WriteSpansCsv(spans, path)) out.errors.push_back("cannot write " + path);
  return out;
}

}  // namespace

Outcome RunLSchedClosed(const Options& options) {
  ServingSpec spec;
  spec.inputs.rows_per_table = 6144;
  spec.inputs.block_rows = {64, 128, 256};  // the fuzzer's block sizes
  spec.chunk_rows = 256;
  spec.lsched = true;
  spec.outstanding = 6;
  return RunServing(options, spec);
}

Outcome RunFifoOpen(const Options& options) {
  ServingSpec spec;
  spec.inputs.rows_per_table = 8192;
  spec.inputs.block_rows = {4096, 4096, 4096};
  spec.chunk_rows = 4096;
  spec.lsched = false;
  spec.rate_qps = 60.0;
  spec.tenants = 3;
  return RunServing(options, spec);
}

}  // namespace perfbench
