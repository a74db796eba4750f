// Tests for the workload scenario engine (workload/scenario.h): rate-curve
// algebra, the thinned inhomogeneous-Poisson arrival sampler (statistical
// acceptance: folded-bucket empirical rates and a KS check of steady gaps),
// seed-deterministic compilation (including concurrent regeneration for the
// TSan tier), template-mix drift semantics, the adversarial mix search, the
// end-to-end drift_ramp -> drift monitor -> OnlineLSched retrain trigger,
// and a Sim/Real differential run under the elastic preset.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/online.h"
#include "exec/real_engine.h"
#include "exec/sim_engine.h"
#include "obs/decision_log.h"
#include "obs/drift.h"
#include "obs/obs.h"
#include "sched/heuristics.h"
#include "testing/faultpoint.h"
#include "testing/fuzzer.h"
#include "testing/invariants.h"
#include "util/rng.h"
#include "workload/scenario.h"
#include "workload/workload.h"

namespace lsched {
namespace {

// ---------------------------------------------------------------------------
// Rate-curve algebra
// ---------------------------------------------------------------------------

TEST(RateCurveTest, PhasesBurstsAndDiurnalCompose) {
  RateCurve curve;
  curve.base_rate = 20.0;
  curve.phases = {{1.0, 5.0}, {2.0, 10.0}};
  EXPECT_DOUBLE_EQ(curve.RateAt(0.5), 5.0);    // first matching phase
  EXPECT_DOUBLE_EQ(curve.RateAt(1.5), 10.0);   // second phase window
  EXPECT_DOUBLE_EQ(curve.RateAt(2.5), 20.0);   // past the phases: base

  RateCurve burst;
  burst.base_rate = 8.0;
  burst.bursts = {{1.0, 0.5, 10.0}};
  EXPECT_DOUBLE_EQ(burst.RateAt(0.9), 8.0);
  EXPECT_DOUBLE_EQ(burst.RateAt(1.0), 80.0);   // half-open [start, start+dur)
  EXPECT_DOUBLE_EQ(burst.RateAt(1.49), 80.0);
  EXPECT_DOUBLE_EQ(burst.RateAt(1.5), 8.0);

  RateCurve diurnal;
  diurnal.base_rate = 10.0;
  diurnal.diurnal_amplitude = 1.0;
  diurnal.diurnal_period_seconds = 2.0;
  diurnal.diurnal_phase_radians = -M_PI / 2.0;  // trough at t = 0
  EXPECT_NEAR(diurnal.RateAt(0.0), 0.0, 1e-9);  // clamped, never negative
  EXPECT_NEAR(diurnal.RateAt(1.0), 20.0, 1e-9);  // peak: (1 + A) * base
}

TEST(RateCurveTest, MaxRateDominatesRateAtEverywhere) {
  RateCurve curve;
  curve.base_rate = 12.0;
  curve.phases = {{0.5, 30.0}};
  curve.diurnal_amplitude = 0.7;
  curve.diurnal_period_seconds = 1.3;
  curve.bursts = {{0.8, 0.4, 6.0}, {1.1, 0.4, 3.0}};  // overlapping
  const double max_rate = curve.MaxRate();
  for (int i = 0; i < 500; ++i) {
    const double t = 0.01 * static_cast<double>(i);
    EXPECT_LE(curve.RateAt(t), max_rate + 1e-9) << "t=" << t;
  }
}

// ---------------------------------------------------------------------------
// Thinned arrival process — statistical acceptance
// ---------------------------------------------------------------------------

TEST(ScenarioArrivalsTest, SteadyGapsMatchExponentialKs) {
  // For a constant curve, thinning accepts every candidate and the gaps are
  // exactly Exponential(1/rate). One-sample Kolmogorov-Smirnov against the
  // analytic CDF; the 1% critical value at n=4000 is ~0.026 and the seed is
  // fixed, so the bound is deterministic.
  RateCurve curve;
  curve.base_rate = 20.0;
  Rng rng(4242);
  const int n = 4000;
  const std::vector<double> at = SampleArrivalTimes(curve, n, &rng);
  ASSERT_EQ(at.size(), static_cast<size_t>(n));

  std::vector<double> gaps;
  gaps.reserve(at.size());
  double prev = 0.0;
  for (double t : at) {
    ASSERT_GT(t, prev);  // strictly increasing arrivals
    gaps.push_back(t - prev);
    prev = t;
  }
  std::sort(gaps.begin(), gaps.end());
  double d = 0.0;
  for (size_t i = 0; i < gaps.size(); ++i) {
    const double f = 1.0 - std::exp(-curve.base_rate * gaps[i]);
    const double lo = static_cast<double>(i) / static_cast<double>(n);
    const double hi = static_cast<double>(i + 1) / static_cast<double>(n);
    d = std::max({d, std::abs(f - lo), std::abs(f - hi)});
  }
  EXPECT_LT(d, 0.035) << "KS distance too large for exponential gaps";
}

TEST(ScenarioArrivalsTest, ThinnedProcessTracksDiurnalRate) {
  // Fold arrivals over complete diurnal periods into 8 phase buckets; the
  // empirical bucket counts must track the analytic intensity integral.
  RateCurve curve;
  curve.base_rate = 20.0;
  curve.diurnal_amplitude = 0.7;
  curve.diurnal_period_seconds = 2.0;
  curve.diurnal_phase_radians = -M_PI / 2.0;
  Rng rng(777);
  const int n = 6000;
  const std::vector<double> at = SampleArrivalTimes(curve, n, &rng);

  const double period = curve.diurnal_period_seconds;
  const int buckets = 8;
  const int periods = static_cast<int>(at.back() / period);
  ASSERT_GE(periods, 20) << "not enough complete periods to fold";
  const double horizon = static_cast<double>(periods) * period;

  std::vector<int> count(static_cast<size_t>(buckets), 0);
  int used = 0;
  for (double t : at) {
    if (t >= horizon) break;
    const int b = static_cast<int>(std::fmod(t, period) / period *
                                   static_cast<double>(buckets));
    ++count[static_cast<size_t>(std::min(b, buckets - 1))];
    ++used;
  }

  // Expected bucket mass: fine Riemann integral of the intensity over the
  // folded bucket (the curve has no phases/bursts, so RateAt is periodic).
  std::vector<double> mass(static_cast<size_t>(buckets), 0.0);
  double total_mass = 0.0;
  const int steps = 8000;
  for (int s = 0; s < steps; ++s) {
    const double t = (static_cast<double>(s) + 0.5) * period /
                     static_cast<double>(steps);
    const double r = curve.RateAt(t);
    const int b = static_cast<int>(t / period * static_cast<double>(buckets));
    mass[static_cast<size_t>(std::min(b, buckets - 1))] += r;
    total_mass += r;
  }
  for (int b = 0; b < buckets; ++b) {
    const double expected =
        static_cast<double>(used) * mass[static_cast<size_t>(b)] / total_mass;
    EXPECT_NEAR(static_cast<double>(count[static_cast<size_t>(b)]), expected,
                0.2 * expected + 12.0)
        << "bucket " << b << " of " << buckets;
  }
}

// ---------------------------------------------------------------------------
// Seed-deterministic compilation
// ---------------------------------------------------------------------------

ScenarioSpec SmallSpec(const std::string& preset) {
  ScenarioSpec spec = *ScenarioByName(preset);
  spec.benchmark = Benchmark::kSsb;
  spec.scale_factors = {2};
  spec.num_queries = 12;
  return spec;
}

/// Bit-stable fingerprint of a compiled scenario: arrival-time bit
/// patterns, tags, plan shapes, cancels, and thread events.
uint64_t Fingerprint(const CompiledScenario& c) {
  uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  const auto mix_double = [&](double d) {
    uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(d), "");
    std::memcpy(&bits, &d, sizeof(bits));
    mix(bits);
  };
  for (const QuerySubmission& s : c.submissions) {
    mix_double(s.arrival_time);
    mix(static_cast<uint64_t>(s.tag.tenant));
    mix(static_cast<uint64_t>(s.tag.priority));
    mix(static_cast<uint64_t>(s.plan.num_nodes()));
    for (size_t op = 0; op < s.plan.num_nodes(); ++op) {
      mix(static_cast<uint64_t>(
          s.plan.node(static_cast<int>(op)).num_work_orders));
    }
  }
  for (const CancelRequest& cr : c.cancels) {
    mix(static_cast<uint64_t>(cr.query));
    mix_double(cr.time);
  }
  for (const ThreadPoolEvent& e : c.thread_events) {
    mix_double(e.time);
    mix(static_cast<uint64_t>(static_cast<int64_t>(e.delta)));
  }
  return h;
}

TEST(ScenarioCompileTest, SameSeedRegeneratesBitIdentically) {
  const ScenarioSpec spec = SmallSpec("drift_ramp");
  Rng a(99);
  Rng b(99);
  const CompiledScenario ca = CompileScenario(spec, &a);
  const CompiledScenario cb = CompileScenario(spec, &b);
  ASSERT_EQ(ca.submissions.size(), cb.submissions.size());
  for (size_t i = 0; i < ca.submissions.size(); ++i) {
    // Exact equality, not near: same seed must mean the same bits.
    EXPECT_EQ(ca.submissions[i].arrival_time, cb.submissions[i].arrival_time);
    EXPECT_EQ(ca.submissions[i].tag.tenant, cb.submissions[i].tag.tenant);
    EXPECT_EQ(ca.submissions[i].tag.priority, cb.submissions[i].tag.priority);
  }
  EXPECT_EQ(Fingerprint(ca), Fingerprint(cb));

  Rng c(100);
  EXPECT_NE(Fingerprint(ca), Fingerprint(CompileScenario(spec, &c)))
      << "different seeds should produce different workloads";
}

TEST(ScenarioCompileTest, ConcurrentCompilationIsPure) {
  // Two threads compiling the same (spec, seed) concurrently must both
  // reproduce the serial result — scenario compilation may not share any
  // hidden mutable state. Run under TSan in CI.
  const ScenarioSpec spec = SmallSpec("flash_crowd");
  Rng serial_rng(5);
  const uint64_t expected = Fingerprint(CompileScenario(spec, &serial_rng));

  uint64_t got[2] = {0, 0};
  std::thread t0([&] {
    Rng rng(5);
    got[0] = Fingerprint(CompileScenario(spec, &rng));
  });
  std::thread t1([&] {
    Rng rng(5);
    got[1] = Fingerprint(CompileScenario(spec, &rng));
  });
  t0.join();
  t1.join();
  EXPECT_EQ(got[0], expected);
  EXPECT_EQ(got[1], expected);
}

// ---------------------------------------------------------------------------
// Template-mix drift
// ---------------------------------------------------------------------------

double MeanTemplatePosition(const ScenarioSpec& spec, double t) {
  const std::vector<double> w = MixWeightsAt(spec, t);
  double num = 0.0;
  double den = 0.0;
  for (size_t j = 0; j < w.size(); ++j) {
    num += static_cast<double>(j) * w[j];
    den += w[j];
  }
  return den > 0.0 ? num / den : 0.0;
}

TEST(ScenarioMixTest, LinearRampMovesMeanPositionMonotonically) {
  const ScenarioSpec spec = SmallSpec("drift_ramp");  // tilt -4 -> +4
  double prev = MeanTemplatePosition(spec, 0.0);
  const double start = prev;
  for (double t = 0.25; t <= 2.5; t += 0.25) {
    const double cur = MeanTemplatePosition(spec, t);
    EXPECT_GE(cur, prev - 1e-12) << "t=" << t;
    prev = cur;
  }
  EXPECT_GT(prev, start + 0.5)
      << "the ramp must visibly shift the expected template position";
  // Outside the ramp window the mix is pinned to the endpoints.
  EXPECT_DOUBLE_EQ(MeanTemplatePosition(spec, 0.0),
                   MeanTemplatePosition(spec, spec.drift.start_time - 0.01));
  EXPECT_DOUBLE_EQ(MeanTemplatePosition(spec, spec.drift.end_time),
                   MeanTemplatePosition(spec, spec.drift.end_time + 5.0));
}

TEST(ScenarioMixTest, AbruptSwitchIsExactAtTheBoundary) {
  ScenarioSpec spec = SmallSpec("steady");
  spec.drift.kind = MixDriftKind::kAbruptSwitch;
  spec.drift.from.tilt = -3.0;
  spec.drift.to.tilt = 3.0;
  spec.drift.start_time = 1.0;

  ScenarioSpec from_only = spec;
  from_only.drift = MixDrift{};
  from_only.drift.from.tilt = -3.0;
  ScenarioSpec to_only = spec;
  to_only.drift = MixDrift{};
  to_only.drift.from.tilt = 3.0;

  const std::vector<double> before = MixWeightsAt(spec, 0.999);
  const std::vector<double> from_w = MixWeightsAt(from_only, 0.0);
  const std::vector<double> at = MixWeightsAt(spec, 1.0);
  const std::vector<double> to_w = MixWeightsAt(to_only, 0.0);
  ASSERT_EQ(before.size(), from_w.size());
  ASSERT_EQ(at.size(), to_w.size());
  for (size_t j = 0; j < before.size(); ++j) {
    EXPECT_DOUBLE_EQ(before[j], from_w[j]);
    EXPECT_DOUBLE_EQ(at[j], to_w[j]);
  }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

TEST(ScenarioRegistryTest, PresetsCompileAndUnknownNamesAreRejected) {
  const std::vector<std::string>& names = ScenarioNames();
  ASSERT_EQ(names.size(), 6u);
  EXPECT_FALSE(ScenarioByName("no_such_scenario").has_value());

  for (const std::string& name : names) {
    const std::optional<ScenarioSpec> preset = ScenarioByName(name);
    ASSERT_TRUE(preset.has_value()) << name;
    EXPECT_EQ(preset->name, name);

    ScenarioSpec spec = SmallSpec(name);
    spec.num_queries = 6;
    Rng rng(11);
    const CompiledScenario compiled = CompileScenario(spec, &rng);
    ASSERT_EQ(compiled.submissions.size(), 6u) << name;
    double prev = -1.0;
    for (const QuerySubmission& s : compiled.submissions) {
      EXPECT_GT(s.arrival_time, prev) << name;
      prev = s.arrival_time;
      EXPECT_GE(s.tag.tenant, 0);
      EXPECT_LT(s.tag.tenant, spec.num_tenants);
    }
    if (name == "elastic") {
      EXPECT_FALSE(compiled.thread_events.empty());
    }
    // The ingress form mirrors the compiled submissions 1:1.
    Rng rng2(11);
    const ScriptedIngress ingress = CompileIngress(spec, &rng2);
    EXPECT_EQ(ingress.plans().size(), compiled.submissions.size());
  }
}

// ---------------------------------------------------------------------------
// Adversarial mix search
// ---------------------------------------------------------------------------

TEST(AdversarialMixTest, SearchIsSeedDeterministic) {
  ScenarioSpec spec = SmallSpec("steady");
  spec.num_queries = 8;
  AdversarialSearchOptions opts;
  opts.iterations = 2;
  opts.num_threads = 4;
  opts.seed = 31;

  FifoScheduler policy_a;
  const AdversarialMixResult a = FindAdversarialMix(spec, &policy_a, opts);
  FifoScheduler policy_b;
  const AdversarialMixResult b = FindAdversarialMix(spec, &policy_b, opts);

  // 1 baseline + `iterations` candidates, each costing policy + 3 heuristic
  // episodes on the common-random-numbers workload.
  EXPECT_EQ(a.evaluations, (opts.iterations + 1) * 4);
  EXPECT_EQ(a.evaluations, b.evaluations);
  ASSERT_EQ(a.weights.size(), b.weights.size());
  ASSERT_FALSE(a.weights.empty());
  for (size_t j = 0; j < a.weights.size(); ++j) {
    EXPECT_EQ(a.weights[j], b.weights[j]);
    EXPECT_GT(a.weights[j], 0.0);
  }
  EXPECT_EQ(a.regret, b.regret);
  EXPECT_EQ(a.best_heuristic, b.best_heuristic);
  EXPECT_DOUBLE_EQ(a.regret,
                   a.policy_latency - a.best_heuristic_latency);
  // FIFO-as-policy can never beat the heuristic pool's best: the pool
  // contains FIFO itself, so best_heuristic <= policy and regret >= 0.
  EXPECT_GE(a.regret, -1e-12);
}

// ---------------------------------------------------------------------------
// End-to-end: drift_ramp traffic drives the drift monitor -> OnlineLSched
// retrain escalation, with the engine's own completion callbacks (no manual
// OnQueryCompleted calls).
// ---------------------------------------------------------------------------

TEST(ScenarioDriftTest, DriftRampEscalatesOnlineRetraining) {
  obs::SetEnabled(true);
  auto& log = obs::DecisionLog::Global();
  log.Clear();

  obs::DriftConfig dcfg;
  dcfg.min_samples = 40;
  dcfg.ph_lambda = 25.0;
  obs::DriftMonitor monitor(dcfg);
  monitor.AttachToDecisionLog();

  LSchedConfig mcfg;
  mcfg.hidden_dim = 8;
  mcfg.summary_dim = 8;
  mcfg.head_hidden = 8;
  LSchedModel model(mcfg);
  OnlineConfig ocfg;
  ocfg.update_every_queries = 16;  // checkpoint-mode serving
  OnlineLSched online(&model, ocfg);
  online.AttachDriftMonitor(&monitor);

  // drift_ramp traffic, single-tenant, carved into the scenario's own three
  // regimes by arrival time: the pre-ramp (stationary) prefix, the ramp
  // window, and the post-ramp tail. Splitting the stationary phase any
  // later would fold part of the mix drift into it and alarm by
  // construction.
  ScenarioSpec spec = SmallSpec("drift_ramp");
  spec.num_queries = 48;
  spec.num_tenants = 1;
  spec.high_priority_fraction = 0.0;
  spec.low_priority_fraction = 0.0;
  Rng rng(21);
  CompiledScenario compiled = CompileScenario(spec, &rng);
  std::vector<QuerySubmission> phase1;
  std::vector<QuerySubmission> phase2;
  std::vector<QuerySubmission> phase3;
  for (QuerySubmission& sub : compiled.submissions) {
    auto& dst = sub.arrival_time < spec.drift.start_time ? phase1
                : sub.arrival_time < spec.drift.end_time ? phase2
                                                         : phase3;
    dst.push_back(std::move(sub));
  }
  ASSERT_GE(phase1.size(), 6u);
  ASSERT_GE(phase2.size(), 12u);
  ASSERT_GE(phase3.size(), 4u);
  for (auto* phase : {&phase2, &phase3}) {
    const double rebase = phase->front().arrival_time;
    for (QuerySubmission& sub : *phase) sub.arrival_time -= rebase;
  }

  // Phase 1: the online scheduler serves the pre-ramp prefix on the cost
  // model its estimates come from — stationary, no alarm.
  SimEngineConfig base_cfg;
  base_cfg.num_threads = 8;
  SimEngine(base_cfg).Run(phase1, &online);
  ASSERT_GT(monitor.sample_count(), dcfg.min_samples);
  ASSERT_FALSE(monitor.alarmed())
      << "pre-drift phase must be stationary (score="
      << monitor.drift_score() << ")";
  ASSERT_FALSE(online.drift_escalated());

  // Phase 2: the ramp arrives while the system shifts under the policy
  // (contention inflates every realized duration). Realized latencies are
  // flushed to the decision log at episode finalize, so the Page-Hinkley
  // alarm fires by the end of this run.
  SimEngineConfig shifted_cfg = base_cfg;
  shifted_cfg.cost_params.intra_query_contention = 1.0;
  SimEngine(shifted_cfg).Run(phase2, &online);
  ASSERT_TRUE(monitor.alarmed())
      << "drift must alarm (score=" << monitor.drift_score() << ")";
  ASSERT_FALSE(online.drift_escalated());

  // Phase 3: the post-ramp tail keeps arriving. The first completion the
  // ENGINE reports to the online scheduler observes the pending alarm and
  // escalates the retrain cadence — the full trigger path, no manual pokes.
  SimEngine(shifted_cfg).Run(phase3, &online);
  EXPECT_TRUE(online.drift_escalated())
      << "the engine's OnQueryCompleted must have escalated the cadence";
  EXPECT_EQ(online.update_every_queries(), ocfg.drift_update_every_queries);

  monitor.DetachFromDecisionLog();
  log.Clear();
}

// ---------------------------------------------------------------------------
// Differential: Sim and Real engines under the elastic preset
// ---------------------------------------------------------------------------

struct ElasticRunOutcome {
  std::vector<QueryStatus> statuses;
  int64_t planned = 0;
  int64_t dispatched = 0;
  int64_t completed = 0;
};

int PeakOf(int base, const std::vector<ThreadPoolEvent>& events) {
  int running = base;
  int peak = base;
  for (const ThreadPoolEvent& e : events) {
    running += e.delta;
    peak = std::max(peak, running);
  }
  return peak;
}

ElasticRunOutcome RunSimElastic(const FuzzedWorkload& w, int threads) {
  SimEngineConfig cfg;
  cfg.num_threads = threads;
  cfg.thread_events = w.sim_thread_events;
  cfg.cancels = w.cancels;
  FifoScheduler fifo;
  ValidatingScheduler validating(&fifo);
  SimEngine engine(cfg);
  const EpisodeResult r = engine.Run(w.sim_queries, &validating);
  EXPECT_TRUE(validating.violations().empty())
      << "[sim] " << validating.violations().front();
  const Status ok = ValidateEpisodeResult(
      r, w.sim_queries.size(), PeakOf(threads, w.sim_thread_events));
  EXPECT_TRUE(ok.ok()) << "[sim] " << ok.ToString();
  return {r.final_statuses, r.num_work_orders_planned,
          r.num_work_orders_dispatched, r.num_work_orders_completed};
}

ElasticRunOutcome RunRealElastic(const FuzzedWorkload& w, int threads) {
  RealEngineConfig cfg;
  cfg.num_threads = threads;
  cfg.chunk_rows = 128;
  cfg.thread_events = w.real_thread_events;
  cfg.cancels = w.cancels;
  FifoScheduler fifo;
  ValidatingScheduler validating(&fifo);
  RealEngine engine(w.catalog.get(), cfg);
  const RealRunResult r = engine.Run(w.real_queries, &validating);
  EXPECT_TRUE(validating.violations().empty())
      << "[real] " << validating.violations().front();
  const Status ok = ValidateEpisodeResult(
      r.episode, w.real_queries.size(),
      PeakOf(threads, w.real_thread_events));
  EXPECT_TRUE(ok.ok()) << "[real] " << ok.ToString();
  return {r.episode.final_statuses, r.episode.num_work_orders_planned,
          r.episode.num_work_orders_dispatched,
          r.episode.num_work_orders_completed};
}

TEST(ScenarioElasticDifferentialTest, EnginesAgreeUnderElasticPreset) {
  FuzzerOptions fopts;
  fopts.scenario = "elastic";
  fopts.min_queries = 24;
  fopts.max_queries = 24;
  WorkloadFuzzer fuzzer(7, fopts);
  const FuzzedWorkload w = fuzzer.NextWorkload();
  ASSERT_EQ(w.sim_thread_events.size(), 3u);   // the preset's three events
  ASSERT_EQ(w.real_thread_events.size(), 3u);

  const int threads = 4;  // preset deltas keep the pool within [2, 8]
  const ElasticRunOutcome sim = RunSimElastic(w, threads);
  const ElasticRunOutcome real = RunRealElastic(w, threads);

  // Identical terminal statuses: every query DONE in both engines.
  ASSERT_EQ(sim.statuses.size(), w.sim_queries.size());
  ASSERT_EQ(real.statuses.size(), w.real_queries.size());
  for (size_t i = 0; i < sim.statuses.size(); ++i) {
    EXPECT_EQ(sim.statuses[i], QueryStatus::kDone) << "query " << i;
    EXPECT_EQ(real.statuses[i], sim.statuses[i]) << "query " << i;
  }
  // Conservation closes in both engines despite mid-run pool changes:
  // every planned work order dispatched exactly once and completed.
  EXPECT_EQ(sim.planned, sim.dispatched);
  EXPECT_EQ(sim.planned, sim.completed);
  EXPECT_EQ(real.planned, real.dispatched);
  EXPECT_EQ(real.planned, real.completed);
}

TEST(ScenarioElasticDifferentialTest, ChaosVariantKeepsScriptedStatuses) {
  FuzzerOptions fopts;
  fopts.scenario = "elastic";
  fopts.min_queries = 16;
  fopts.max_queries = 16;
  fopts.chaos = true;
  WorkloadFuzzer fuzzer(13, fopts);
  const FuzzedWorkload w = fuzzer.NextWorkload();
  ASSERT_EQ(w.expected_statuses.size(), w.sim_queries.size());

  const int threads = 4;
  FaultInjector::Global().Install(w.faults);
  const ElasticRunOutcome sim = RunSimElastic(w, threads);
  FaultInjector::Global().Install(w.faults);  // fresh per-rule RNG state
  const ElasticRunOutcome real = RunRealElastic(w, threads);
  FaultInjector::Global().Clear();

  // Both engines must land every query on the chaos script's terminal
  // status, elasticity or not.
  ASSERT_EQ(sim.statuses.size(), w.expected_statuses.size());
  ASSERT_EQ(real.statuses.size(), w.expected_statuses.size());
  for (size_t i = 0; i < w.expected_statuses.size(); ++i) {
    EXPECT_EQ(sim.statuses[i], w.expected_statuses[i]) << "[sim] query " << i;
    EXPECT_EQ(real.statuses[i], w.expected_statuses[i])
        << "[real] query " << i;
  }
}

}  // namespace
}  // namespace lsched
