#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "exec/sim_engine.h"
#include "obs/decision_log.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/query_trace.h"
#include "obs/ring.h"
#include "obs/trace.h"
#include "sched/heuristics.h"
#include "testing/fuzzer.h"
#include "testing/invariants.h"

namespace lsched {
namespace {

// ---------------------------------------------------------------------------
// Minimal JSON reader — just enough to validate the Chrome trace_event
// output (objects, arrays, strings with escapes, numbers, literals).
// ---------------------------------------------------------------------------

struct JsonParser {
  const std::string& s;
  size_t pos = 0;
  bool ok = true;

  explicit JsonParser(const std::string& text) : s(text) {}

  void SkipWs() {
    while (pos < s.size() && (s[pos] == ' ' || s[pos] == '\n' ||
                              s[pos] == '\t' || s[pos] == '\r')) {
      ++pos;
    }
  }
  bool Consume(char c) {
    SkipWs();
    if (pos < s.size() && s[pos] == c) {
      ++pos;
      return true;
    }
    ok = false;
    return false;
  }
  bool ParseString() {
    SkipWs();
    if (pos >= s.size() || s[pos] != '"') return ok = false;
    ++pos;
    while (pos < s.size() && s[pos] != '"') {
      if (s[pos] == '\\') {
        ++pos;
        if (pos >= s.size()) return ok = false;
      }
      ++pos;
    }
    if (pos >= s.size()) return ok = false;
    ++pos;  // closing quote
    return true;
  }
  bool ParseNumber() {
    SkipWs();
    const size_t start = pos;
    if (pos < s.size() && (s[pos] == '-' || s[pos] == '+')) ++pos;
    while (pos < s.size() &&
           (std::isdigit(static_cast<unsigned char>(s[pos])) || s[pos] == '.' ||
            s[pos] == 'e' || s[pos] == 'E' || s[pos] == '-' || s[pos] == '+')) {
      ++pos;
    }
    if (pos == start) return ok = false;
    return true;
  }
  bool ParseValue() {
    SkipWs();
    if (pos >= s.size()) return ok = false;
    const char c = s[pos];
    if (c == '{') return ParseObject();
    if (c == '[') return ParseArray();
    if (c == '"') return ParseString();
    if (s.compare(pos, 4, "true") == 0) {
      pos += 4;
      return true;
    }
    if (s.compare(pos, 5, "false") == 0) {
      pos += 5;
      return true;
    }
    if (s.compare(pos, 4, "null") == 0) {
      pos += 4;
      return true;
    }
    return ParseNumber();
  }
  bool ParseObject() {
    if (!Consume('{')) return false;
    SkipWs();
    if (pos < s.size() && s[pos] == '}') {
      ++pos;
      return true;
    }
    while (true) {
      if (!ParseString()) return false;
      if (!Consume(':')) return false;
      if (!ParseValue()) return false;
      SkipWs();
      if (pos < s.size() && s[pos] == ',') {
        ++pos;
        continue;
      }
      return Consume('}');
    }
  }
  bool ParseArray() {
    if (!Consume('[')) return false;
    SkipWs();
    if (pos < s.size() && s[pos] == ']') {
      ++pos;
      return true;
    }
    while (true) {
      if (!ParseValue()) return false;
      SkipWs();
      if (pos < s.size() && s[pos] == ',') {
        ++pos;
        continue;
      }
      return Consume(']');
    }
  }
  /// Full-document parse: one value, then nothing but whitespace.
  bool ParseDocument() {
    if (!ParseValue()) return false;
    SkipWs();
    if (pos != s.size()) ok = false;
    return ok;
  }
};

int CountOccurrences(const std::string& haystack, const std::string& needle) {
  int n = 0;
  for (size_t at = haystack.find(needle); at != std::string::npos;
       at = haystack.find(needle, at + needle.size())) {
    ++n;
  }
  return n;
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

TEST(HistogramTest, BucketBoundariesAreHalfOpen) {
  // Bucket 0 is [0, 1e-9); bucket i >= 1 is [1e-9*2^(i-1), 1e-9*2^i).
  EXPECT_EQ(obs::Histogram::BucketFor(0.0), 0u);
  EXPECT_EQ(obs::Histogram::BucketFor(-1.0), 0u);
  EXPECT_EQ(obs::Histogram::BucketFor(0.5e-9), 0u);
  EXPECT_EQ(obs::Histogram::BucketFor(1e-9), 1u);

  // Every exact boundary must land in the bucket it opens, and the value
  // just below it in the previous bucket.
  for (size_t b = 1; b < 63; ++b) {
    const double lower = obs::HistogramSnapshot::LowerBound(b);
    const double upper = obs::HistogramSnapshot::UpperBound(b);
    EXPECT_EQ(obs::Histogram::BucketFor(lower), b) << "lower of " << b;
    EXPECT_EQ(obs::Histogram::BucketFor(std::nextafter(upper, 0.0)), b)
        << "just below upper of " << b;
    EXPECT_EQ(obs::Histogram::BucketFor(upper), b + 1) << "upper of " << b;
    const double mid = lower + (upper - lower) / 2.0;
    EXPECT_EQ(obs::Histogram::BucketFor(mid), b) << "mid of " << b;
  }

  // Overflow clamps into the last bucket; NaN goes to bucket 0.
  EXPECT_EQ(obs::Histogram::BucketFor(1e300), 63u);
  EXPECT_EQ(obs::Histogram::BucketFor(std::nan("")), 0u);
}

TEST(HistogramTest, ObserveSnapshotAndPercentile) {
  obs::Histogram h("test.histogram");
  // 100 observations at ~1ms, 100 at ~4ms.
  for (int i = 0; i < 100; ++i) h.Observe(1e-3);
  for (int i = 0; i < 100; ++i) h.Observe(4e-3);
  obs::HistogramSnapshot snap = h.TakeSnapshot();
  EXPECT_EQ(snap.count, 200u);
  EXPECT_NEAR(snap.sum, 0.5, 1e-9);
  EXPECT_NEAR(snap.Mean(), 2.5e-3, 1e-9);
  // p25 must sit in the 1ms bucket, p90 in the 4ms bucket.
  const double p25 = snap.Percentile(25.0);
  const double p90 = snap.Percentile(90.0);
  const size_t b1 = obs::Histogram::BucketFor(1e-3);
  const size_t b4 = obs::Histogram::BucketFor(4e-3);
  EXPECT_GE(p25, obs::HistogramSnapshot::LowerBound(b1));
  EXPECT_LT(p25, obs::HistogramSnapshot::UpperBound(b1));
  EXPECT_GE(p90, obs::HistogramSnapshot::LowerBound(b4));
  EXPECT_LT(p90, obs::HistogramSnapshot::UpperBound(b4));
  // p0 degrades to the lower bound of the first occupied bucket.
  EXPECT_DOUBLE_EQ(snap.Percentile(0.0),
                   obs::HistogramSnapshot::LowerBound(b1));

  h.Reset();
  EXPECT_EQ(h.TakeSnapshot().count, 0u);
}

TEST(HistogramTest, SnapshotMergeAddsBucketwise) {
  obs::Histogram a("test.merge_a");
  obs::Histogram b("test.merge_b");
  a.Observe(1e-6);
  a.Observe(1e-3);
  b.Observe(1e-3);
  b.Observe(1.0);
  obs::HistogramSnapshot sa = a.TakeSnapshot();
  sa.Merge(b.TakeSnapshot());
  EXPECT_EQ(sa.count, 4u);
  EXPECT_NEAR(sa.sum, 1e-6 + 2e-3 + 1.0, 1e-12);
  EXPECT_EQ(sa.bucket_counts[obs::Histogram::BucketFor(1e-3)], 2u);
  EXPECT_EQ(sa.bucket_counts[obs::Histogram::BucketFor(1.0)], 1u);
}

TEST(HistogramTest, MergeSnapshotPublishesBatchedObservations) {
  obs::Histogram h("test.merge_snapshot");
  obs::HistogramSnapshot local;
  for (int i = 0; i < 10; ++i) {
    const size_t b = obs::Histogram::BucketFor(2e-3);
    if (b >= local.bucket_counts.size()) local.bucket_counts.resize(b + 1, 0);
    ++local.bucket_counts[b];
    ++local.count;
    local.sum += 2e-3;
  }
  h.MergeSnapshot(local);
  h.Observe(2e-3);  // direct path still composes with the batched one
  obs::HistogramSnapshot snap = h.TakeSnapshot();
  EXPECT_EQ(snap.count, 11u);
  EXPECT_NEAR(snap.sum, 11 * 2e-3, 1e-12);
  EXPECT_EQ(snap.bucket_counts[obs::Histogram::BucketFor(2e-3)], 11u);
}

// ---------------------------------------------------------------------------
// Counters / gauges / registry
// ---------------------------------------------------------------------------

TEST(MetricsRegistryTest, SameNameReturnsSamePointer) {
  auto& reg = obs::MetricsRegistry::Global();
  obs::Counter* c1 = reg.GetCounter("test.registry_counter");
  obs::Counter* c2 = reg.GetCounter("test.registry_counter");
  EXPECT_EQ(c1, c2);
  c1->Reset();
  c1->Add(3);
  c2->Add(4);
  EXPECT_EQ(c1->Value(), 7);

  obs::Gauge* g = reg.GetGauge("test.registry_gauge");
  g->Reset();
  g->Add(2.5);
  g->Sub(1.0);
  EXPECT_NEAR(g->Value(), 1.5, 1e-12);
  g->Set(42.0);
  EXPECT_NEAR(g->Value(), 42.0, 1e-12);
}

TEST(MetricsRegistryTest, SnapshotIsSortedAndComplete) {
  auto& reg = obs::MetricsRegistry::Global();
  reg.GetCounter("test.snap_a")->Add(1);
  reg.GetCounter("test.snap_b")->Add(2);
  auto snap = reg.TakeSnapshot();
  ASSERT_GE(snap.counters.size(), 2u);
  for (size_t i = 1; i < snap.counters.size(); ++i) {
    EXPECT_LE(snap.counters[i - 1].first, snap.counters[i].first);
  }
}

TEST(MetricsRegistryTest, EightThreadHammer) {
  auto& reg = obs::MetricsRegistry::Global();
  obs::Counter* counter = reg.GetCounter("test.hammer_counter");
  obs::Gauge* gauge = reg.GetGauge("test.hammer_gauge");
  obs::Histogram* hist = reg.GetHistogram("test.hammer_histogram");
  counter->Reset();
  gauge->Reset();
  hist->Reset();

  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 5000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      for (int i = 0; i < kOpsPerThread; ++i) {
        counter->Add(1);
        gauge->Add(1.0);
        hist->Observe(1e-6 * static_cast<double>(1 + ((t + i) % 7)));
        // Re-resolving by name concurrently must also be safe.
        if (i % 1000 == 0) {
          reg.GetCounter("test.hammer_counter")->Add(0);
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(counter->Value(), int64_t{kThreads} * kOpsPerThread);
  EXPECT_NEAR(gauge->Value(), double(kThreads) * kOpsPerThread, 1e-6);
  EXPECT_EQ(hist->TakeSnapshot().count, uint64_t{kThreads} * kOpsPerThread);
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

TEST(TracerTest, RingWraparoundKeepsNewestEvents) {
  auto& tracer = obs::Tracer::Global();
  const size_t old_cap = tracer.capacity();
  tracer.SetCapacityForTest(8);
  // A fresh thread leases a fresh (capacity-8) ring; record 20 events.
  std::thread recorder([&]() {
    for (int i = 0; i < 20; ++i) {
      obs::TraceEvent e;
      e.name = "wrap.event";
      e.category = "test";
      e.ts_us = static_cast<double>(i);
      e.dur_us = 1.0;
      e.tid = 777;
      tracer.RecordSpan(e);
    }
  });
  recorder.join();
  tracer.SetCapacityForTest(old_cap);

  std::ostringstream out;
  tracer.ExportChromeTrace(out);
  const std::string json = out.str();
  // Only the newest 8 survive: ts 12..19.
  EXPECT_EQ(CountOccurrences(json, "wrap.event"), 8);
  EXPECT_EQ(json.find("\"ts\":11"), std::string::npos);
  EXPECT_NE(json.find("\"ts\":12"), std::string::npos);
  EXPECT_NE(json.find("\"ts\":19"), std::string::npos);
  EXPECT_GE(tracer.dropped_events(), 12u);
  tracer.Clear();
}

TEST(TracerTest, ChromeTraceJsonParsesBack) {
  auto& tracer = obs::Tracer::Global();
  tracer.Clear();
  obs::TraceEvent e;
  e.name = "json \"escaped\"\n";
  e.category = "test\\cat";
  e.ts_us = 12.5;
  e.dur_us = 3.25;
  e.tid = 5;
  e.arg1_name = "query";
  e.arg1 = 42;
  e.arg2_name = "op";
  e.arg2 = -7;
  tracer.RecordSpan(e);
  tracer.RecordInstant("inst", "test", 20.0, 6, "mark", 1);

  std::ostringstream out;
  tracer.ExportChromeTrace(out);
  const std::string json = out.str();

  JsonParser parser(json);
  EXPECT_TRUE(parser.ParseDocument()) << json;
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);  // the span
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);  // the instant
  EXPECT_NE(json.find("json \\\"escaped\\\"\\n"), std::string::npos);
  EXPECT_NE(json.find("\"query\":42"), std::string::npos);
  EXPECT_NE(json.find("\"op\":-7"), std::string::npos);
  tracer.Clear();
  EXPECT_EQ(tracer.buffered_events(), 0u);
}

// ---------------------------------------------------------------------------
// Decision log
// ---------------------------------------------------------------------------

TEST(DecisionLogTest, CsvRoundTrip) {
  auto& log = obs::DecisionLog::Global();
  log.Clear();

  obs::DecisionRecord rec;
  rec.time = 1.25;
  rec.engine = "sim";
  rec.event = "QueryArrival";
  rec.policy = "LSched";
  rec.candidates = "0:1;0:2;7:0";
  rec.num_candidates = 3;
  rec.running_queries = 2;
  rec.free_threads = 5;
  rec.chosen_query = 7;
  rec.chosen_root = 0;
  rec.op_type = "HashJoin";
  rec.degree = 4;
  rec.max_threads = 8;
  rec.predicted_score = -0.5;
  rec.schedule_wall_us = 17.5;
  rec.tenant = 3;
  const int64_t id = log.Add(rec);
  ASSERT_GE(id, 0);
  log.AddPipeline(id, 12);
  log.AddRealized(id, 0.75);
  log.AddRealized(id, 0.25);

  obs::DecisionRecord fallback;
  fallback.time = 2.0;
  fallback.engine = "sim";
  fallback.event = "fallback";
  fallback.policy = "LSched";
  fallback.fallback = true;
  fallback.fallback_reason = "invalid_decision, sticky";  // quoted field
  log.Add(fallback);

  std::ostringstream out;
  log.WriteCsv(out);
  std::istringstream in(out.str());
  std::vector<obs::DecisionRecord> parsed;
  ASSERT_TRUE(obs::ParseDecisionCsv(in, &parsed)) << out.str();
  ASSERT_EQ(parsed.size(), 2u);

  const obs::DecisionRecord& p = parsed[0];
  EXPECT_EQ(p.id, id);
  EXPECT_DOUBLE_EQ(p.time, 1.25);
  EXPECT_EQ(p.engine, "sim");
  EXPECT_EQ(p.event, "QueryArrival");
  EXPECT_EQ(p.policy, "LSched");
  EXPECT_EQ(p.candidates, "0:1;0:2;7:0");
  EXPECT_EQ(p.num_candidates, 3);
  EXPECT_EQ(p.running_queries, 2);
  EXPECT_EQ(p.free_threads, 5);
  EXPECT_EQ(p.chosen_query, 7);
  EXPECT_EQ(p.chosen_root, 0);
  EXPECT_EQ(p.op_type, "HashJoin");
  EXPECT_EQ(p.degree, 4);
  EXPECT_EQ(p.max_threads, 8);
  EXPECT_EQ(p.num_pipelines, 1);
  EXPECT_EQ(p.planned_work_orders, 12);
  EXPECT_DOUBLE_EQ(p.predicted_score, -0.5);
  EXPECT_DOUBLE_EQ(p.schedule_wall_us, 17.5);
  EXPECT_DOUBLE_EQ(p.realized_seconds, 1.0);
  EXPECT_EQ(p.tenant, 3);
  EXPECT_FALSE(p.fallback);
  EXPECT_EQ(p.fallback_reason, "");
  EXPECT_TRUE(parsed[1].fallback);
  EXPECT_EQ(parsed[1].fallback_reason, "invalid_decision, sticky");
  EXPECT_EQ(parsed[1].tenant, -1);
  EXPECT_TRUE(std::isnan(parsed[1].predicted_score));
  log.Clear();
  EXPECT_EQ(log.size(), 0u);
}

TEST(RingTest, WrapsScansNewestFirstAndClearKeepsTheSequence) {
  obs::Ring<int> ring(3);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(ring.Push(10 + i), uint64_t(i));
  EXPECT_EQ(ring.pushed(), 5u);
  ASSERT_EQ(ring.size(), 3u);
  EXPECT_EQ(ring.pushed() - ring.size(), 2u);  // evicted: 10 and 11
  EXPECT_EQ(ring.begin_seq(), 2u);
  EXPECT_EQ(ring.Snapshot(), (std::vector<int>{12, 13, 14}));
  EXPECT_EQ(ring.Find(1), nullptr);
  ASSERT_NE(ring.Find(3), nullptr);
  EXPECT_EQ(*ring.Find(3), 13);

  // Newest first: the first match from the end wins.
  const int* even = ring.FindNewest([](int v) { return v % 2 == 0; });
  ASSERT_NE(even, nullptr);
  EXPECT_EQ(*even, 14);
  EXPECT_EQ(ring.FindNewest([](int v) { return v < 12; }), nullptr);

  // Clear drops the values but the sequence keeps counting.
  ring.Clear();
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.pushed(), 0u);
  EXPECT_EQ(ring.Find(4), nullptr);
  EXPECT_EQ(ring.Push(20), 5u);
  EXPECT_EQ(ring.Push(21), 6u);
  EXPECT_EQ(ring.Snapshot(), (std::vector<int>{20, 21}));
  for (int i = 22; i < 26; ++i) ring.Push(i);
  EXPECT_EQ(ring.Snapshot(), (std::vector<int>{23, 24, 25}));
  EXPECT_EQ(ring.pushed() - ring.size(), 3u);
}

TEST(DecisionLogTest, RingKeepsNewestAndIgnoresEvictedBackfills) {
  obs::DecisionLog log(4);
  std::vector<int64_t> ids;
  for (int i = 0; i < 10; ++i) {
    obs::DecisionRecord rec;
    rec.time = static_cast<double>(i);
    ids.push_back(log.Add(rec));
  }
  for (size_t i = 1; i < ids.size(); ++i) EXPECT_EQ(ids[i], ids[i - 1] + 1);
  ASSERT_EQ(log.size(), 4u);
  std::vector<obs::DecisionRecord> kept = log.Snapshot();
  ASSERT_EQ(kept.size(), 4u);
  for (size_t i = 0; i < kept.size(); ++i) {
    EXPECT_EQ(kept[i].id, ids[6 + i]);
    EXPECT_EQ(kept[i].time, static_cast<double>(6 + i));
  }

  // Back-fills to an evicted id change nothing and are counted as lost.
  log.AddRealized(ids[0], 1.0);
  log.AddPipeline(ids[1], 5);
  EXPECT_EQ(log.lost_backfills(), 1);
  log.AddRealized(ids[9], 2.0);
  kept = log.Snapshot();
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(kept[i].realized_seconds, 0.0);
    EXPECT_EQ(kept[i].num_pipelines, 0);
  }
  EXPECT_EQ(kept[3].realized_seconds, 2.0);

  // Ids keep counting across Clear().
  log.Clear();
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.Add(obs::DecisionRecord{}), ids.back() + 1);
}

// ---------------------------------------------------------------------------
// End-to-end: one decision-log row per scheduler invocation
// ---------------------------------------------------------------------------

TEST(ObsIntegrationTest, OneDecisionRowPerSchedulerInvocation) {
  obs::DecisionLog::Global().Clear();
  obs::Tracer::Global().Clear();

  WorkloadFuzzer fuzzer(2024);
  FuzzedWorkload w = fuzzer.NextWorkload();
  FairScheduler policy;
  SimEngineConfig config;
  config.num_threads = 4;
  SimEngine engine(config);
  EpisodeResult result = engine.Run(w.sim_queries, &policy);

  ASSERT_GT(result.num_scheduler_invocations, 0);
  const auto records = obs::DecisionLog::Global().Snapshot();
  int64_t invocation_rows = 0;
  for (const auto& r : records) {
    if (!r.fallback) ++invocation_rows;
  }
  EXPECT_EQ(invocation_rows, result.num_scheduler_invocations);
  // The run also produced trace events (work orders at minimum).
  EXPECT_GT(obs::Tracer::Global().buffered_events(), 0u);

  std::ostringstream out;
  obs::Tracer::Global().ExportChromeTrace(out);
  const std::string json = out.str();
  JsonParser parser(json);
  EXPECT_TRUE(parser.ParseDocument());
  EXPECT_NE(json.find("exec.work_order"), std::string::npos);

  obs::DecisionLog::Global().Clear();
  obs::Tracer::Global().Clear();
}

/// Recording is chosen at run time only: the same episode with obs off
/// leaves every global sink empty — query-trace capture included — and
/// produces exactly the EpisodeResult of a recorded run.
TEST(ObsIntegrationTest, DisabledRecordingIsInert) {
  obs::QueryTraceLog& traces = obs::QueryTraceLog::Global();
  traces.Clear();
  traces.SetCapture(true);
  WorkloadFuzzer fuzzer(99);
  FuzzedWorkload w = fuzzer.NextWorkload();
  auto run_once = [&w] {
    FairScheduler policy;
    SimEngineConfig config;
    config.num_threads = 4;
    return SimEngine(config).Run(w.sim_queries, &policy);
  };

  obs::SetEnabled(true);
  const EpisodeResult on = run_once();
  EXPECT_GT(traces.size(), 0u);  // capture works while recording

  obs::DecisionLog::Global().Clear();
  obs::Tracer::Global().Clear();
  obs::MetricsRegistry::Global().ResetAll();
  traces.Clear();
  obs::SetEnabled(false);
  const EpisodeResult off = run_once();
  obs::SetEnabled(true);
  traces.SetCapture(false);

  // EpisodeResult telemetry is independent of the obs layer...
  EXPECT_GT(off.num_scheduler_invocations, 0);
  EXPECT_EQ(DiffEpisodeResults(on, off), "");
  // ...but nothing leaked into the global sinks.
  EXPECT_EQ(obs::DecisionLog::Global().size(), 0u);
  EXPECT_EQ(obs::Tracer::Global().buffered_events(), 0u);
  EXPECT_EQ(traces.size(), 0u);
  EXPECT_EQ(obs::MetricsRegistry::Global()
                .GetCounter("sched.invocations")
                ->Value(),
            0);
}

/// A run with no flush window hands its realized costs to the decision log
/// while their records are still in the ring: an episode with twice the
/// log's capacity in decisions loses no back-fill.
TEST(ObsIntegrationTest, LongRunWithoutFlushWindowLosesNoBackfill) {
  obs::SetEnabled(true);
  obs::DecisionLog& log = obs::DecisionLog::Global();
  log.Clear();

  constexpr int kLongRunQueries = 5000;
  FuzzerOptions opts;
  opts.min_queries = kLongRunQueries;
  opts.max_queries = kLongRunQueries;
  WorkloadFuzzer fuzzer(4321, opts);
  FuzzedWorkload w = fuzzer.NextWorkload();
  FairScheduler policy;
  SimEngineConfig config;
  config.num_threads = 4;
  const EpisodeResult result = SimEngine(config).Run(w.sim_queries, &policy);

  ASSERT_GT(result.num_scheduler_invocations,
            static_cast<int64_t>(2 * obs::DecisionLog::kDefaultCapacity));
  EXPECT_EQ(log.lost_backfills(), 0);
  log.Clear();
}

/// The registry counters are derived from EpisodeResult: after an episode
/// each one equals its EpisodeResult count. Two episodes cover every
/// counter: a fuzzed workload with its scripted cancels, and one whose
/// every attempt overruns its deadline, so it retries and fails.
TEST(ObsIntegrationTest, RegistryCountersEqualEpisodeResult) {
  obs::SetEnabled(true);
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  auto counter = [&](const char* name) {
    return reg.GetCounter(name)->Value();
  };
  auto expect_published = [&](const EpisodeResult& r) {
    EXPECT_EQ(counter("sched.invocations"), r.num_scheduler_invocations);
    EXPECT_EQ(counter("sched.pipelines_launched"), r.num_actions);
    EXPECT_EQ(counter("sched.fallback_decisions"), r.num_fallback_decisions);
    EXPECT_EQ(counter("exec.work_orders_dispatched"),
              r.num_work_orders_dispatched);
    EXPECT_EQ(counter("exec.work_orders_completed"),
              r.num_work_orders_completed);
    EXPECT_EQ(counter("exec.queries_completed"),
              static_cast<int64_t>(r.query_latencies.size()));
    EXPECT_EQ(counter("exec.cancel_total"), r.num_queries_cancelled);
    EXPECT_EQ(counter("exec.retry_total"), r.num_retries);
    EXPECT_EQ(counter("exec.fail_total"), r.num_queries_failed);
    EXPECT_EQ(counter("exec.shed_total"), r.num_queries_shed);
    EXPECT_EQ(reg.GetHistogram("exec.query_latency_seconds")
                  ->TakeSnapshot()
                  .count,
              r.query_latencies.size());
    EXPECT_EQ(reg.GetGauge("exec.inflight_high_water")->Value(),
              static_cast<double>(r.max_inflight_work_orders));
  };

  reg.ResetAll();
  FuzzerOptions opts;
  opts.min_queries = 6;
  opts.max_queries = 8;
  opts.chaos = true;  // scripted cancels; its fault schedule stays unarmed
  opts.chaos_cancel_fraction = 0.4;
  WorkloadFuzzer fuzzer(77, opts);
  FuzzedWorkload w = fuzzer.NextWorkload();
  SimEngineConfig config;
  config.num_threads = 4;
  config.cancels = w.cancels;
  FairScheduler policy;
  const EpisodeResult fuzzed = SimEngine(config).Run(w.sim_queries, &policy);
  EXPECT_GT(fuzzed.num_queries_cancelled, 0);
  EXPECT_GT(fuzzed.query_latencies.size(), 0u);
  expect_published(fuzzed);

  reg.ResetAll();
  config.cancels.clear();
  config.work_order_deadline_seconds = 1e-9;
  const EpisodeResult expired = SimEngine(config).Run(w.sim_queries, &policy);
  EXPECT_GT(expired.num_retries, 0);
  EXPECT_GT(expired.num_queries_failed, 0);
  expect_published(expired);
  reg.ResetAll();
}

}  // namespace
}  // namespace lsched
