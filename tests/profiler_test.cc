#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "exec/real_engine.h"
#include "exec/sim_engine.h"
#include "obs/obs.h"
#include "obs/profiler.h"
#include "sched/heuristics.h"
#include "testing/faultpoint.h"
#include "testing/fuzzer.h"
#include "util/perf_snapshot.h"
#include "util/rng.h"

namespace lsched {
namespace {

using prof::ProfileSample;
using prof::WorkerAccount;
using prof::WorkerState;
using prof::WorkerStateBuckets;

// --- 1. the accountant itself ---------------------------------------------

/// The telescoping invariant is the whole point of the accountant: every
/// nanosecond between Start and Stop is charged to exactly one state, so
/// the buckets sum bit-exactly to the wall time — even when the timestamp
/// stream is slightly out of order (clamping) or transitions are no-ops.
TEST(WorkerAccountTest, TelescopesUnderRandomizedTransitions) {
  Rng rng(20260808);
  for (int round = 0; round < 50; ++round) {
    WorkerAccount acct;
    int64_t now = static_cast<int64_t>(rng.UniformInt(uint64_t{1000000}));
    const int64_t start = now;
    acct.Start(now, WorkerState::kIdle);

    // Mirror the clamping semantics to predict the buckets exactly.
    int64_t expect[prof::kNumWorkerStates] = {0, 0, 0, 0, 0};
    WorkerState cur = WorkerState::kIdle;
    int64_t last = now;
    const int steps = 1 + static_cast<int>(rng.UniformInt(uint64_t{200}));
    for (int i = 0; i < steps; ++i) {
      // ~1 in 8 timestamps goes backwards — the dispatch issued-at case.
      int64_t delta = static_cast<int64_t>(rng.UniformInt(uint64_t{5000}));
      if (rng.UniformInt(uint64_t{8}) == 0) delta = -delta;
      now += delta;
      const WorkerState next = static_cast<WorkerState>(
          rng.UniformInt(uint64_t{prof::kNumWorkerStates}));
      acct.Transition(next, now);
      const int64_t clamped = now > last ? now : last;
      expect[static_cast<int>(cur)] += clamped - last;
      last = clamped;
      cur = next;
    }
    now += static_cast<int64_t>(rng.UniformInt(uint64_t{5000}));
    acct.Stop(now);
    const int64_t clamped = now > last ? now : last;
    expect[static_cast<int>(cur)] += clamped - last;
    last = clamped;

    const WorkerStateBuckets b = acct.Read();
    EXPECT_EQ(b.SumNs(), b.wall_ns) << "round " << round;
    EXPECT_EQ(b.wall_ns, last - start) << "round " << round;
    for (int s = 0; s < prof::kNumWorkerStates; ++s) {
      EXPECT_EQ(b.ns[s], expect[s]) << "round " << round << " state " << s;
    }
  }
}

TEST(WorkerAccountTest, StartResetsAndStopIsFinal) {
  WorkerAccount acct;
  EXPECT_FALSE(acct.started());
  acct.Start(100, WorkerState::kDispatch);
  EXPECT_TRUE(acct.started());
  acct.Transition(WorkerState::kExecuting, 150);
  acct.Stop(250);
  WorkerStateBuckets b = acct.Read();
  EXPECT_EQ(b.ns[static_cast<int>(WorkerState::kDispatch)], 50);
  EXPECT_EQ(b.ns[static_cast<int>(WorkerState::kExecuting)], 100);
  EXPECT_EQ(b.wall_ns, 150);
  // Restarting zeroes every bucket.
  acct.Start(1000, WorkerState::kIdle);
  acct.Stop(1001);
  b = acct.Read();
  EXPECT_EQ(b.SumNs(), 1);
  EXPECT_EQ(b.ns[static_cast<int>(WorkerState::kIdle)], 1);
  EXPECT_EQ(b.wall_ns, 1);
}

TEST(WorkerAccountTest, StateNamesRoundTrip) {
  for (int s = 0; s < prof::kNumWorkerStates; ++s) {
    const WorkerState state = static_cast<WorkerState>(s);
    WorkerState parsed = WorkerState::kDispatch;
    ASSERT_TRUE(prof::ParseWorkerState(prof::WorkerStateName(state), &parsed))
        << prof::WorkerStateName(state);
    EXPECT_EQ(parsed, state);
  }
  WorkerState ignored;
  EXPECT_FALSE(prof::ParseWorkerState("no_such_state", &ignored));
}

// --- 2. engine integration -------------------------------------------------

/// On the simulator the clock is virtual, so the invariant is not merely
/// conservation but bit-exact reproducibility: two identical runs produce
/// identical per-worker buckets.
TEST(ProfilerEngineTest, SimEpisodeTelescopesAndIsDeterministic) {
  WorkloadFuzzer fuzzer(424242);
  const FuzzedWorkload w = fuzzer.NextWorkload();
  auto run_once = [&] {
    SimEngineConfig config;
    config.num_threads = 4;
    SimEngine engine(config);
    SjfScheduler sjf;
    return engine.Run(w.sim_queries, &sjf);
  };
  const EpisodeResult a = run_once();
  const EpisodeResult b = run_once();

  ASSERT_EQ(a.worker_states.size(), 4u);
  for (size_t i = 0; i < a.worker_states.size(); ++i) {
    const WorkerStateBuckets& wb = a.worker_states[i];
    EXPECT_EQ(wb.SumNs(), wb.wall_ns) << "worker " << i;
    EXPECT_GT(wb.wall_ns, 0) << "worker " << i;
  }
  EXPECT_GE(a.sched_overhead_fraction, 0.0);
  EXPECT_LE(a.sched_overhead_fraction, 1.0);

  ASSERT_EQ(b.worker_states.size(), a.worker_states.size());
  for (size_t i = 0; i < a.worker_states.size(); ++i) {
    EXPECT_EQ(a.worker_states[i].wall_ns, b.worker_states[i].wall_ns);
    for (int s = 0; s < prof::kNumWorkerStates; ++s) {
      EXPECT_EQ(a.worker_states[i].ns[s], b.worker_states[i].ns[s])
          << "worker " << i << " state " << s;
    }
  }
}

/// On the real engine the clock is the actual monotonic clock and the
/// workload runs under a chaos script (faults + cancels), yet conservation
/// must still hold exactly: the accountant never loses a nanosecond no
/// matter how ugly the run gets.
TEST(ProfilerEngineTest, RealChaosRunConservesWallTime) {
  FuzzerOptions opts;
  opts.chaos = true;
  opts.min_queries = 4;
  opts.max_queries = 6;
  WorkloadFuzzer fuzzer(777001, opts);
  const FuzzedWorkload w = fuzzer.NextWorkload();

  FaultInjector::Global().Install(w.faults);
  RealEngineConfig cfg;
  cfg.num_threads = 3;
  cfg.cancels = w.cancels;
  RealEngine engine(w.catalog.get(), cfg);
  FifoScheduler fifo;
  const RealRunResult r = engine.Run(w.real_queries, &fifo);
  FaultInjector::Global().Clear();

  ASSERT_EQ(r.episode.worker_states.size(), 3u);
  for (size_t i = 0; i < r.episode.worker_states.size(); ++i) {
    const WorkerStateBuckets& wb = r.episode.worker_states[i];
    EXPECT_EQ(wb.SumNs(), wb.wall_ns) << "worker " << i;
    EXPECT_GT(wb.wall_ns, 0) << "worker " << i;
  }
  EXPECT_GE(r.episode.sched_overhead_fraction, 0.0);
  EXPECT_LE(r.episode.sched_overhead_fraction, 1.0);
}

// --- 3. counter tables -----------------------------------------------------

TEST(CounterTablesTest, RenderShowsValuesAndRates) {
  // The global tables outlive this test and later tests render them, so
  // the closures own their state instead of referring to this frame.
  auto counter = std::make_shared<double>(10.0);
  prof::CounterTables& tables = prof::CounterTables::Global();
  tables.Register("proftest", "widgets", [counter] { return *counter; });
  tables.Register("proftest", "ratio", [] { return 0.5; },
                  /*rated=*/false);
  tables.ResetRates();

  const std::string first = tables.Render();
  EXPECT_NE(first.find("[proftest]"), std::string::npos);
  EXPECT_NE(first.find("widgets"), std::string::npos);
  EXPECT_NE(first.find("ratio"), std::string::npos);
  // First render after ResetRates has no baseline: rate column is "-".
  const size_t row = first.find("widgets");
  const size_t eol = first.find('\n', row);
  EXPECT_NE(first.substr(row, eol - row).find('-'), std::string::npos);

  *counter = 110.0;
  const std::string second = tables.Render();
  const size_t row2 = second.find("widgets");
  const size_t eol2 = second.find('\n', row2);
  // Second render has a baseline, so the rated row shows a /s figure.
  EXPECT_NE(second.substr(row2, eol2 - row2).find("/s"), std::string::npos);
}

TEST(CounterTablesTest, ReRegisteringReplacesInsteadOfDuplicating) {
  prof::CounterTables& tables = prof::CounterTables::Global();
  tables.Register("proftest2", "x", [] { return 1.0; });
  tables.Register("proftest2", "x", [] { return 2.0; });
  const std::string text = tables.Render();
  size_t count = 0;
  for (size_t pos = text.find("[proftest2]"); pos != std::string::npos;
       pos = text.find("[proftest2]", pos + 1)) {
    ++count;
  }
  EXPECT_EQ(count, 1u);
}

TEST(CounterTablesTest, DefaultTablesRegisterIdempotently) {
  prof::RegisterDefaultCounterTables();
  prof::RegisterDefaultCounterTables();
  const std::string text = prof::CounterTables::Global().Render();
  for (const char* table : {"[sched]", "[encoder]", "[nn]", "[exec]",
                            "[faults]", "[serve]"}) {
    size_t count = 0;
    for (size_t pos = text.find(table); pos != std::string::npos;
         pos = text.find(table, pos + 1)) {
      ++count;
    }
    EXPECT_EQ(count, 1u) << table;
  }
}

// --- 4. profile CSV + summary ---------------------------------------------

std::vector<ProfileSample> SampleFixture() {
  std::vector<ProfileSample> samples;
  for (int i = 0; i < 12; ++i) {
    ProfileSample s;
    s.t_us = 1000 + 10 * i;
    s.engine = i % 2 == 0 ? "real" : "sim";
    s.worker = i % 3;
    s.state = static_cast<WorkerState>(i % prof::kNumWorkerStates);
    samples.push_back(s);
  }
  return samples;
}

TEST(ProfileCsvTest, RoundTripsExactly) {
  const std::vector<ProfileSample> samples = SampleFixture();
  const std::string csv = prof::ProfileSamplesToCsv(samples);
  EXPECT_EQ(csv.rfind("t_us,engine,worker,state\n", 0), 0u);

  std::vector<ProfileSample> parsed;
  ASSERT_TRUE(prof::ParseProfileCsv(csv, &parsed));
  ASSERT_EQ(parsed.size(), samples.size());
  for (size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(parsed[i].t_us, samples[i].t_us) << i;
    EXPECT_EQ(parsed[i].engine, samples[i].engine) << i;
    EXPECT_EQ(parsed[i].worker, samples[i].worker) << i;
    EXPECT_EQ(parsed[i].state, samples[i].state) << i;
  }

  std::vector<ProfileSample> bad;
  EXPECT_FALSE(prof::ParseProfileCsv("not,a,profile\n1,2,3\n", &bad));
}

TEST(ProfileCsvTest, SummaryBreaksDownByEngineAndWorker) {
  const std::string summary = prof::RenderProfileSummary(SampleFixture());
  EXPECT_NE(summary.find("real"), std::string::npos);
  EXPECT_NE(summary.find("sim"), std::string::npos);
  EXPECT_NE(summary.find("sample(s)"), std::string::npos);
  // An empty capture renders without crashing.
  EXPECT_FALSE(prof::RenderProfileSummary({}).empty());
}

// --- 5. sampling profiler --------------------------------------------------

TEST(SamplingProfilerTest, BoundedRingCapturesRegisteredWorkers) {
  prof::SamplingProfiler& profiler = prof::SamplingProfiler::Global();
  ASSERT_FALSE(profiler.running());

  std::vector<WorkerAccount> accounts(3);
  for (size_t i = 0; i < accounts.size(); ++i) {
    accounts[i].Start(0, WorkerState::kExecuting);
  }
  std::vector<const WorkerAccount*> ptrs;
  for (const WorkerAccount& a : accounts) ptrs.push_back(&a);
  const int handle = profiler.RegisterWorkers("proftest", ptrs);

  // Tiny ring at a high rate: the ring must stay bounded and count drops.
  ASSERT_TRUE(profiler.Start(/*hz=*/2000.0, /*capacity=*/16));
  EXPECT_TRUE(profiler.running());
  EXPECT_FALSE(profiler.Start(2000.0, 16));  // already running
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (profiler.dropped() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  profiler.Stop();
  EXPECT_FALSE(profiler.running());

  const std::vector<ProfileSample> samples = profiler.Snapshot();
  EXPECT_LE(samples.size(), 16u);
  EXPECT_FALSE(samples.empty());
  EXPECT_GT(profiler.dropped(), 0);
  for (const ProfileSample& s : samples) {
    EXPECT_EQ(s.engine, "proftest");
    EXPECT_GE(s.worker, 0);
    EXPECT_LT(s.worker, 3);
    EXPECT_EQ(s.state, WorkerState::kExecuting);
  }
  // Oldest-first: timestamps are non-decreasing across the snapshot.
  for (size_t i = 1; i < samples.size(); ++i) {
    EXPECT_LE(samples[i - 1].t_us, samples[i].t_us);
  }

  profiler.UnregisterWorkers(handle);
}

// --- 6. perf-trajectory compare logic --------------------------------------

PerfSnapshot BaseSnap() {
  PerfSnapshot s;
  s.name = "t";
  s.machine = "Linux-x86_64";
  s.cores = 8;
  s.Add("p50_us", 100.0);
  s.Add("p99_us", 500.0);
  s.Add("speedup_p50", 2.0);
  return s;
}

TEST(PerfSnapshotTest, RegressionFailsImprovementPasses) {
  const PerfSnapshot base = BaseSnap();
  PerfSnapshot fresh = base;
  fresh.metrics[0].second = 140.0;  // p50 +40% — past the 25% fail bar
  fresh.metrics[1].second = 400.0;  // p99 improved
  CompareOptions opts;
  const CompareResult r = ComparePerfSnapshots(base, fresh, opts);
  EXPECT_EQ(r.fails, 1);
  EXPECT_EQ(CompareExitCode(r, opts), 1);

  PerfSnapshot better = base;
  better.metrics[0].second = 90.0;
  const CompareResult r2 = ComparePerfSnapshots(base, better, opts);
  EXPECT_EQ(r2.fails, 0);
  EXPECT_EQ(r2.warns, 0);
  EXPECT_EQ(CompareExitCode(r2, opts), 0);
}

TEST(PerfSnapshotTest, HigherIsBetterMetricsFlipDirection) {
  const PerfSnapshot base = BaseSnap();
  PerfSnapshot fresh = base;
  fresh.metrics[2].second = 1.0;  // speedup halved: 2.0 -> 1.0 is a regression
  CompareOptions opts;
  const CompareResult r = ComparePerfSnapshots(base, fresh, opts);
  EXPECT_EQ(r.fails, 1);

  PerfSnapshot faster = base;
  faster.metrics[2].second = 4.0;  // speedup doubled: fine
  EXPECT_EQ(ComparePerfSnapshots(base, faster, opts).fails, 0);
}

TEST(PerfSnapshotTest, WarnBandMachineMismatchAndWarnOnly) {
  const PerfSnapshot base = BaseSnap();
  PerfSnapshot fresh = base;
  fresh.metrics[0].second = 115.0;  // +15%: warn band (10%..25%)
  CompareOptions opts;
  CompareResult r = ComparePerfSnapshots(base, fresh, opts);
  EXPECT_EQ(r.fails, 0);
  EXPECT_EQ(r.warns, 1);

  // A hard regression on a different machine downgrades to a warning...
  fresh.metrics[0].second = 200.0;
  fresh.machine = "Linux-aarch64";
  r = ComparePerfSnapshots(base, fresh, opts);
  EXPECT_TRUE(r.machine_mismatch);
  EXPECT_EQ(r.fails, 0);
  EXPECT_EQ(r.warns, 1);
  // ...unless --strict keeps the gate.
  opts.strict = true;
  r = ComparePerfSnapshots(base, fresh, opts);
  EXPECT_EQ(r.fails, 1);
  EXPECT_EQ(CompareExitCode(r, opts), 1);
  // --warn-only always exits 0 regardless.
  opts.warn_only = true;
  EXPECT_EQ(CompareExitCode(r, opts), 0);
}

TEST(PerfSnapshotTest, FailFilterLimitsWhichKeysGate) {
  const PerfSnapshot base = BaseSnap();
  PerfSnapshot fresh = base;
  fresh.metrics[0].second = 200.0;  // p50 doubles
  fresh.metrics[1].second = 1000.0; // p99 doubles
  CompareOptions opts;
  opts.fail_filter = "p50";
  const CompareResult r = ComparePerfSnapshots(base, fresh, opts);
  // Only the p50 key can hard-fail; the p99 blowup is a warning.
  EXPECT_EQ(r.fails, 1);
  EXPECT_EQ(r.warns, 1);
  for (const MetricDelta& d : r.deltas) {
    if (d.key == "p50_us") {
      EXPECT_EQ(d.severity, MetricDelta::kFail);
    }
    if (d.key == "p99_us") {
      EXPECT_EQ(d.severity, MetricDelta::kWarn);
    }
  }
}

TEST(PerfSnapshotTest, NewAndMissingMetricsAreInformational) {
  const PerfSnapshot base = BaseSnap();
  PerfSnapshot fresh = base;
  fresh.metrics.erase(fresh.metrics.begin() + 1);  // p99 gone
  fresh.Add("brand_new", 1.0);
  CompareOptions opts;
  const CompareResult r = ComparePerfSnapshots(base, fresh, opts);
  EXPECT_EQ(r.fails, 0);
  bool saw_missing = false;
  bool saw_new = false;
  for (const MetricDelta& d : r.deltas) {
    if (d.key == "p99_us") {
      EXPECT_EQ(d.severity, MetricDelta::kMissing);
      saw_missing = true;
    }
    if (d.key == "brand_new") {
      EXPECT_EQ(d.severity, MetricDelta::kNew);
      saw_new = true;
    }
  }
  EXPECT_TRUE(saw_missing);
  EXPECT_TRUE(saw_new);
  const std::string rendered = RenderCompare(base, fresh, r);
  EXPECT_NE(rendered.find("gone"), std::string::npos);
  EXPECT_NE(rendered.find("new "), std::string::npos);
}

TEST(PerfSnapshotTest, JsonRoundTripSelfComparesToZero) {
  PerfSnapshot snap = MakePerfSnapshot("roundtrip");
  snap.Add("p50_us", 123.456789012345);
  snap.Add("throughput_per_sec", 9876.5);
  snap.Add("zero_metric", 0.0);
  const std::string json = PerfSnapshotToJson(snap);

  PerfSnapshot parsed;
  ASSERT_TRUE(ParsePerfSnapshot(json, &parsed));
  EXPECT_EQ(parsed.name, snap.name);
  EXPECT_EQ(parsed.git_sha, snap.git_sha);
  EXPECT_EQ(parsed.compiler, snap.compiler);
  EXPECT_EQ(parsed.build_type, snap.build_type);
  EXPECT_EQ(parsed.machine, snap.machine);
  EXPECT_EQ(parsed.cores, snap.cores);
  ASSERT_EQ(parsed.metrics.size(), snap.metrics.size());
  for (size_t i = 0; i < snap.metrics.size(); ++i) {
    EXPECT_EQ(parsed.metrics[i].first, snap.metrics[i].first);
    EXPECT_EQ(parsed.metrics[i].second, snap.metrics[i].second) << i;
  }

  CompareOptions opts;
  const CompareResult r = ComparePerfSnapshots(snap, parsed, opts);
  EXPECT_EQ(r.fails, 0);
  EXPECT_EQ(r.warns, 0);
  EXPECT_FALSE(r.machine_mismatch);
  for (const MetricDelta& d : r.deltas) {
    EXPECT_EQ(d.severity, MetricDelta::kOk) << d.key;
    EXPECT_EQ(d.regression, 0.0) << d.key;
  }
  EXPECT_FALSE(ParsePerfSnapshot("{}", &parsed));
}

}  // namespace
}  // namespace lsched
