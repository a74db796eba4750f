// Measures the runtime cost of the observability layer (src/obs) in two
// phases, both interleaving the compared modes back-to-back so
// thermal/frequency drift cancels in the per-pair ratio:
//
//   1. episode: the same SimEngine workload with the whole obs runtime
//      enabled vs disabled (decision log, tracer, metrics, drift monitor).
//      Reported for trend-watching; machine-dependent, so not an exit
//      gate (matching the bench's historical behavior).
//   2. serving+trace: the same multi-tenant ServingDaemon script with obs
//      enabled on BOTH sides, comparing per-query lifetime-trace capture
//      on vs off. This isolates the marginal cost of the query-trace
//      subsystem (edge assembly, considered-but-skipped sets, fairness
//      annotations, QueryTraceLog publication) in its deployment shape.
//      ACCEPTANCE GATE: the median tracing slowdown must stay under 3%,
//      or the bench exits nonzero.
//
// Both phases compare the runtime switches (obs::SetEnabled /
// QueryTraceLog::SetCapture) inside one binary.
//
// Env: LSCHED_OBS_BENCH_REPS (default 41 pairs), LSCHED_OBS_BENCH_QUERIES
// (default 48).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench/bench_common.h"
#include "obs/decision_log.h"
#include "obs/drift.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/query_trace.h"
#include "obs/trace.h"
#include "sched/heuristics.h"
#include "serve/serving_daemon.h"
#include "util/clock.h"

namespace {

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n == 0 ? 0.0
                : (n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]));
}

int EnvInt(const char* name, int fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr) return fallback;
  const long v = std::atol(env);
  return v > 0 ? static_cast<int>(v) : fallback;
}

struct PhaseResult {
  double on_med = 0.0;
  double off_med = 0.0;
  double slowdown_pct = 0.0;
};

// Runs `reps` interleaved on/off pairs of `run_once(bool)`. The reported
// slowdown is the ratio of per-mode *minimums*: OS jitter only ever adds
// time, so each minimum converges on that mode's true floor and their
// ratio is a far more stable estimator at a few-percent gate than a
// median of per-pair ratios (which inherits the jitter of both runs in
// every pair). Medians are still printed for context.
template <typename RunOnce>
PhaseResult MeasurePairs(int reps, RunOnce run_once) {
  // Warmup (both modes) before measuring.
  run_once(true);
  run_once(false);
  std::vector<double> on_secs, off_secs;
  for (int i = 0; i < reps; ++i) {
    double on, off;
    if (i % 2 == 0) {
      on = run_once(true);
      off = run_once(false);
    } else {
      off = run_once(false);
      on = run_once(true);
    }
    on_secs.push_back(on);
    off_secs.push_back(off);
  }
  PhaseResult r;
  r.on_med = Median(on_secs);
  r.off_med = Median(off_secs);
  const double on_min = *std::min_element(on_secs.begin(), on_secs.end());
  const double off_min = *std::min_element(off_secs.begin(), off_secs.end());
  r.slowdown_pct = 100.0 * (on_min / off_min - 1.0);
  return r;
}

void PrintPhase(const char* name, const char* off_label,
                const char* on_label, const PhaseResult& r) {
  std::printf("  [%s]\n", name);
  std::printf("    median %-9s: %9.4f ms\n", off_label, 1000.0 * r.off_med);
  std::printf("    median %-9s: %9.4f ms\n", on_label, 1000.0 * r.on_med);
  std::printf("    slowdown        : %+.2f%%\n", r.slowdown_pct);
}

}  // namespace

int main() {
  using namespace lsched;
  using namespace lsched::bench;

  const int reps = EnvInt("LSCHED_OBS_BENCH_REPS", 41);
  const int queries = EnvInt("LSCHED_OBS_BENCH_QUERIES", 48);

  std::printf("micro_obs_overhead: %d queries, %d reps per mode\n", queries,
              reps);
  PerfSnapshot snap = MakePerfSnapshot("obs_overhead");
  snap.Add("queries", queries);
  snap.Add("reps", reps);

  const auto workload =
      TestWorkload(Benchmark::kTpch, queries, /*batch=*/false,
                   /*mean_interarrival=*/0.05, /*seed=*/4242);

  // --- Phase 1: bare episode, whole obs runtime on vs off. ---
  // The drift monitor rides the decision-log back-fill path, so it is part
  // of the measured enabled-mode cost. SJF (not Fair) annotates a
  // predicted score, which keeps the monitor's quantile sketches doing
  // real work instead of skipping NaN-scored decisions.
  obs::DriftMonitor drift;
  drift.AttachToDecisionLog();

  auto clear_obs_state = [&]() {
    obs::DecisionLog::Global().Clear();
    obs::Tracer::Global().Clear();
    obs::MetricsRegistry::Global().ResetAll();
    obs::QueryTraceLog::Global().Clear();
    drift.Reset();
  };

  auto run_episode = [&](bool enabled) {
    obs::SetEnabled(enabled);
    SimEngine engine = MakeEngine(/*threads=*/60, /*seed=*/7);
    SjfScheduler sjf;
    Stopwatch sw;
    const EpisodeResult r = engine.Run(workload, &sjf);
    const double secs = sw.ElapsedSeconds();
    // Keep per-run obs state from accumulating across repetitions.
    clear_obs_state();
    if (r.query_latencies.size() != static_cast<size_t>(queries)) {
      std::fprintf(stderr, "unexpected: %zu/%d queries completed\n",
                   r.query_latencies.size(), queries);
      std::exit(1);
    }
    return secs;
  };
  const PhaseResult episode = MeasurePairs(reps, run_episode);
  PrintPhase("episode: obs on vs off (informational)", "disabled",
             "enabled", episode);

  // --- Phase 2: serving daemon, trace capture on vs off (GATED). ---
  // A deterministic multi-tenant script through ServingDaemon's SimEngine
  // mode, obs enabled on both sides: admission verdicts,
  // considered-but-skipped edges, fairness annotations, and QueryTraceLog
  // publication are the only delta between the two runs.
  std::vector<QueryPlan> plans;
  std::vector<IngressEvent> events;
  for (size_t i = 0; i < workload.size(); ++i) {
    QueryTag tag;
    tag.tenant = static_cast<TenantId>(i % 3);
    if (i % 7 == 3) tag.priority = QueryPriority::kHigh;
    if (i % 3 == 1) tag.priority = QueryPriority::kLow;
    plans.push_back(workload[i].plan);
    events.push_back(
        IngressEvent::Submit(workload[i].arrival_time, static_cast<int>(i),
                             tag));
  }
  const ScriptedIngress script(std::move(events), std::move(plans));

  auto run_serving = [&](bool capture) {
    obs::SetEnabled(true);
    obs::QueryTraceLog::Global().SetCapture(capture);
    ServingDaemonConfig cfg;
    cfg.policy.max_live_queries = 32;
    cfg.policy.tenant_weights = {{0, 1.0}, {1, 2.0}, {2, 3.0}};
    cfg.policy.tenant_slos = {{0, {0.5, 0.99}}, {1, {0.5, 0.99}},
                              {2, {0.5, 0.99}}};
    cfg.sim.num_threads = 60;
    cfg.sim.seed = 7;
    ServingDaemon daemon(cfg);
    SjfScheduler sjf;
    Stopwatch sw;
    const EpisodeResult r = daemon.RunScript(script, &sjf);
    const double secs = sw.ElapsedSeconds();
    if (capture && obs::QueryTraceLog::Global().size() == 0) {
      std::fprintf(stderr, "unexpected: tracing on but no traces captured\n");
      std::exit(1);
    }
    clear_obs_state();
    if (r.final_statuses.size() != workload.size()) {
      std::fprintf(stderr, "unexpected: %zu/%zu queries terminal\n",
                   r.final_statuses.size(), workload.size());
      std::exit(1);
    }
    return secs;
  };
  const PhaseResult serving = MeasurePairs(reps, run_serving);
  PrintPhase("serving: trace capture on vs off (gate: < 3%)", "no-trace",
             "tracing", serving);
  obs::SetEnabled(true);
  obs::QueryTraceLog::Global().SetCapture(true);

  snap.Add("episode.obs_on_med_ms", 1000.0 * episode.on_med);
  snap.Add("episode.obs_off_med_ms", 1000.0 * episode.off_med);
  snap.Add("episode.slowdown_pct", episode.slowdown_pct);
  snap.Add("serving.trace_on_med_ms", 1000.0 * serving.on_med);
  snap.Add("serving.trace_off_med_ms", 1000.0 * serving.off_med);
  snap.Add("serving.slowdown_pct", serving.slowdown_pct);
  WriteBenchSnapshot(snap);

  const bool pass = serving.slowdown_pct < 3.0;
  std::printf("  verdict         : %s\n", pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
