// Tests for the model-quality observability layer: the P² streaming
// quantile sketch, the scalar training-event stream, the prediction-drift
// monitor (Page-Hinkley), the Prometheus renderer/exporter, and the
// drift → OnlineLSched retrain-escalation hook.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/online.h"
#include "core/trainer.h"
#include "exec/sim_engine.h"
#include "obs/decision_log.h"
#include "obs/drift.h"
#include "obs/exporter.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/scalar_events.h"
#include "sched/heuristics.h"
#include "util/rng.h"
#include "workload/workload.h"

namespace lsched {
namespace {

double ExactQuantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t i = static_cast<size_t>(pos);
  const double frac = pos - static_cast<double>(i);
  return i + 1 < v.size() ? v[i] * (1.0 - frac) + v[i + 1] * frac : v[i];
}

// ---------------------------------------------------------------------------
// P² quantile sketch
// ---------------------------------------------------------------------------

TEST(P2QuantileTest, ExactForSmallSamples) {
  obs::P2Quantile median(0.5);
  EXPECT_EQ(median.Value(), 0.0);
  median.Observe(3.0);
  EXPECT_DOUBLE_EQ(median.Value(), 3.0);
  median.Observe(1.0);
  EXPECT_DOUBLE_EQ(median.Value(), 2.0);
  median.Observe(2.0);
  EXPECT_DOUBLE_EQ(median.Value(), 2.0);
  EXPECT_EQ(median.count(), 3);
}

TEST(P2QuantileTest, TracksQuantilesOfNormalStream) {
  Rng rng(17);
  obs::P2Quantile p50(0.5);
  obs::P2Quantile p99(0.99);
  std::vector<double> samples;
  for (int i = 0; i < 20000; ++i) {
    const double x = rng.Normal(5.0, 2.0);
    samples.push_back(x);
    p50.Observe(x);
    p99.Observe(x);
  }
  EXPECT_NEAR(p50.Value(), ExactQuantile(samples, 0.5), 0.15);
  EXPECT_NEAR(p99.Value(), ExactQuantile(samples, 0.99), 0.5);
}

TEST(P2QuantileTest, MonotoneQuantilesStayOrdered) {
  Rng rng(99);
  obs::P2Quantile p50(0.5);
  obs::P2Quantile p99(0.99);
  for (int i = 0; i < 5000; ++i) {
    const double x = rng.Exponential(0.3);
    p50.Observe(x);
    p99.Observe(x);
  }
  EXPECT_LT(p50.Value(), p99.Value());
}

// ---------------------------------------------------------------------------
// Prometheus rendering
// ---------------------------------------------------------------------------

TEST(PrometheusTest, NameSanitization) {
  EXPECT_EQ(obs::PrometheusName("model.drift_score"), "model_drift_score");
  EXPECT_EQ(obs::PrometheusName("exec.work-order/us"),
            "exec_work_order_us");
  EXPECT_EQ(obs::PrometheusName("9lives"), "_9lives");
  EXPECT_EQ(obs::PrometheusName(""), "_");
}

TEST(PrometheusTest, GoldenCounterAndGauge) {
  obs::MetricsRegistry::Snapshot snap;
  snap.counters.push_back({"train.episodes", 7});
  snap.gauges.push_back({"model.drift_score", 2.5});
  snap.gauges.push_back({"serve.tenant0.slo_burn_rate", 1.25});
  snap.gauges.push_back({"model.tenant0.drift_score", 0.5});
  std::ostringstream out;
  obs::RenderPrometheusText(snap, out);
  // The render leads with the build-info block; its labels carry the git
  // sha so the golden covers structure, not the (build-varying) values.
  const std::string info = obs::BuildInfoPrometheusText();
  EXPECT_NE(info.find("# TYPE lsched_build_info gauge\n"), std::string::npos);
  EXPECT_NE(info.find("lsched_build_info{git_sha=\""), std::string::npos);
  EXPECT_NE(info.find("compiler=\""), std::string::npos);
  EXPECT_NE(info.find("\"} 1\n"), std::string::npos);
  EXPECT_EQ(out.str(),
            info +
            "# HELP train_episodes train.episodes\n"
            "# TYPE train_episodes counter\n"
            "train_episodes 7\n"
            "# HELP model_drift_score model.drift_score\n"
            "# TYPE model_drift_score gauge\n"
            "model_drift_score 2.5\n"
            "# HELP serve_tenant0_slo_burn_rate serve.tenant0.slo_burn_rate\n"
            "# TYPE serve_tenant0_slo_burn_rate gauge\n"
            "serve_tenant0_slo_burn_rate 1.25\n"
            "# HELP model_tenant0_drift_score model.tenant0.drift_score\n"
            "# TYPE model_tenant0_drift_score gauge\n"
            "model_tenant0_drift_score 0.5\n");
}

TEST(PrometheusTest, HistogramBucketsAreCumulativeWithInf) {
  obs::MetricsRegistry::Snapshot snap;
  obs::HistogramSnapshot hist;
  hist.bucket_counts.assign(8, 0);
  hist.bucket_counts[2] = 2;
  hist.bucket_counts[5] = 1;
  hist.count = 3;
  hist.sum = 0.5;
  snap.histograms.push_back({"train.latency", hist});
  std::ostringstream out;
  obs::RenderPrometheusText(snap, out);
  const std::string text = out.str();
  EXPECT_NE(text.find("# TYPE train_latency histogram"), std::string::npos);
  // Sparse cumulative buckets: 2 at the first boundary, 3 at the second.
  EXPECT_NE(text.find("\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("train_latency_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("train_latency_sum 0.5\n"), std::string::npos);
  EXPECT_NE(text.find("train_latency_count 3\n"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Scalar event stream
// ---------------------------------------------------------------------------

TEST(ScalarEventsTest, JsonlRoundTripIncludingNaN) {
  auto& w = obs::ScalarEventWriter::Global();
  w.Clear();
  w.Append("train.reward", 0, -12.5);
  w.Append("train.reward", 1, -10.0);
  w.Append("train.grad_norm_preclip", 1,
           std::numeric_limits<double>::quiet_NaN());
  ASSERT_EQ(w.size(), 3u);

  std::ostringstream out;
  w.WriteJsonl(out);
  std::istringstream in(out.str());
  std::vector<obs::ScalarEvent> parsed;
  ASSERT_TRUE(obs::ParseScalarEventsJsonl(in, &parsed)) << out.str();
  ASSERT_EQ(parsed.size(), 3u);
  EXPECT_EQ(parsed[0].tag, "train.reward");
  EXPECT_EQ(parsed[0].step, 0);
  EXPECT_DOUBLE_EQ(parsed[0].value, -12.5);
  EXPECT_EQ(parsed[1].step, 1);
  EXPECT_DOUBLE_EQ(parsed[1].value, -10.0);
  EXPECT_EQ(parsed[2].tag, "train.grad_norm_preclip");
  EXPECT_TRUE(std::isnan(parsed[2].value));
  EXPECT_GE(parsed[2].wall_ms, 0.0);
  w.Clear();
}

TEST(ScalarEventsTest, SeriesFiltersByTagInAppendOrder) {
  auto& w = obs::ScalarEventWriter::Global();
  w.Clear();
  w.Append("a", 0, 1.0);
  w.Append("b", 0, 9.0);
  w.Append("a", 1, 2.0);
  const std::vector<double> a = w.SeriesValues("a");
  ASSERT_EQ(a.size(), 2u);
  EXPECT_DOUBLE_EQ(a[0], 1.0);
  EXPECT_DOUBLE_EQ(a[1], 2.0);
  EXPECT_EQ(w.Series("b").size(), 1u);
  EXPECT_TRUE(w.Series("c").empty());
  w.Clear();
}

TEST(ScalarEventsTest, ParserRejectsGarbage) {
  std::istringstream in("this is not json\n");
  std::vector<obs::ScalarEvent> parsed;
  EXPECT_FALSE(obs::ParseScalarEventsJsonl(in, &parsed));
}

// ---------------------------------------------------------------------------
// Drift monitor
// ---------------------------------------------------------------------------

obs::DriftConfig FastDriftConfig() {
  obs::DriftConfig cfg;
  cfg.min_samples = 30;
  cfg.ph_lambda = 20.0;
  return cfg;
}

TEST(DriftMonitorTest, StationaryStreamDoesNotAlarm) {
  obs::SetEnabled(true);
  obs::DriftMonitor monitor(FastDriftConfig());
  Rng rng(5);
  for (int i = 0; i < 5000; ++i) {
    const double realized = 1.0 + 0.2 * rng.Normal();
    monitor.Observe("scan", realized + 0.1 * rng.Normal(), realized);
  }
  EXPECT_FALSE(monitor.alarmed());
  EXPECT_LT(monitor.drift_score(), 1.0);
  EXPECT_EQ(monitor.sample_count(), 5000);
}

TEST(DriftMonitorTest, ShiftedStreamAlarmsAndFiresCallback) {
  obs::SetEnabled(true);
  obs::DriftMonitor monitor(FastDriftConfig());
  int fired = 0;
  obs::DriftAlarm seen;
  monitor.AddAlarmCallback([&](const obs::DriftAlarm& a) {
    ++fired;
    seen = a;
  });
  Rng rng(6);
  // Stationary phase: prediction error centered at zero...
  for (int i = 0; i < 500; ++i) {
    const double realized = 1.0 + 0.2 * rng.Normal();
    monitor.Observe("scan", realized + 0.1 * rng.Normal(), realized);
  }
  ASSERT_FALSE(monitor.alarmed());
  // ...then the realized cost doubles while predictions stand still: the
  // signed error shifts down by ~10 baseline standard deviations.
  for (int i = 0; i < 500 && !monitor.alarmed(); ++i) {
    const double realized = 2.0 + 0.2 * rng.Normal();
    monitor.Observe("scan", (realized - 1.0) + 0.1 * rng.Normal(), realized);
  }
  EXPECT_TRUE(monitor.alarmed());
  EXPECT_GE(monitor.drift_score(), 1.0);
  EXPECT_EQ(fired, 1);  // latched: fires exactly once
  EXPECT_GT(seen.sample_count, 500);
  EXPECT_FALSE(seen.upward);
  // Gauges and the alarm counter reflect the event.
  auto& reg = obs::MetricsRegistry::Global();
  EXPECT_GE(reg.GetGauge("model.drift_score")->Value(), 1.0);
  EXPECT_GE(reg.GetCounter("model.drift_alarms")->Value(), 1);

  // Reset clears the latch but keeps the callback registered.
  monitor.Reset();
  EXPECT_FALSE(monitor.alarmed());
  EXPECT_EQ(monitor.sample_count(), 0);
}

TEST(DriftMonitorTest, PerKeyQuantilesAndOverflowKey) {
  obs::SetEnabled(true);
  obs::DriftConfig cfg = FastDriftConfig();
  cfg.max_keys = 2;
  obs::DriftMonitor monitor(cfg);
  for (int i = 0; i < 100; ++i) {
    monitor.Observe("HashJoin", 2.0, 1.0);   // error +1
    monitor.Observe("TableScan", 1.0, 2.0);  // error -1
    monitor.Observe("Sort", 5.0, 5.0);       // overflow -> "other"
  }
  const auto keys = monitor.SnapshotKeys();
  ASSERT_EQ(keys.size(), 3u);  // sorted: HashJoin, TableScan, other
  EXPECT_EQ(keys[0].first, "HashJoin");
  EXPECT_EQ(keys[0].second.count, 100);
  EXPECT_NEAR(keys[0].second.mean_error, 1.0, 1e-9);
  EXPECT_NEAR(keys[0].second.p50, 1.0, 1e-9);
  EXPECT_EQ(keys[1].first, "TableScan");
  EXPECT_NEAR(keys[1].second.mean_error, -1.0, 1e-9);
  EXPECT_EQ(keys[2].first, "other");
  EXPECT_EQ(keys[2].second.count, 100);
  EXPECT_NEAR(keys[2].second.mean_error, 0.0, 1e-9);
}

TEST(DriftMonitorTest, PerTenantShardsIsolateOneDriftingTenant) {
  obs::SetEnabled(true);
  obs::DriftConfig cfg = FastDriftConfig();
  obs::DriftMonitor monitor(cfg);
  Rng rng(11);
  // Tenant 0 stays stationary throughout; tenant 1 is stationary for the
  // first half, then its realized cost doubles while predictions stand
  // still. Tenant 1's shard must alarm and name the tenant while tenant
  // 0's shard stays quiet. (The blended global stream also sees half its
  // traffic drift and may alarm on its own schedule — that is the
  // coarse-grained signal the shards exist to sharpen, so it is not
  // asserted either way here.)
  obs::DriftAlarm shard_alarm;
  int shard_fired = 0;
  monitor.AddAlarmCallback([&](const obs::DriftAlarm& a) {
    if (a.tenant >= 0) {
      ++shard_fired;
      shard_alarm = a;
    }
  });
  for (int i = 0; i < 600; ++i) {
    const double realized = 1.0 + 0.2 * rng.Normal();
    monitor.Observe("scan", /*tenant=*/0, realized + 0.1 * rng.Normal(),
                    realized);
    monitor.Observe("scan", /*tenant=*/1, realized + 0.1 * rng.Normal(),
                    realized);
  }
  ASSERT_FALSE(monitor.alarmed());
  for (int i = 0; i < 600 && shard_fired == 0; ++i) {
    const double stat = 1.0 + 0.2 * rng.Normal();
    monitor.Observe("scan", /*tenant=*/0, stat + 0.1 * rng.Normal(), stat);
    const double drifted = 2.0 + 0.2 * rng.Normal();
    monitor.Observe("scan", /*tenant=*/1, (drifted - 1.0) + 0.1 * rng.Normal(),
                    drifted);
  }
  ASSERT_EQ(shard_fired, 1) << "tenant shard must alarm";
  EXPECT_EQ(shard_alarm.tenant, 1);

  const auto tenants = monitor.SnapshotTenants();
  ASSERT_EQ(tenants.size(), 2u);
  EXPECT_EQ(tenants[0].first, 0);
  EXPECT_FALSE(tenants[0].second.alarmed);
  EXPECT_LT(tenants[0].second.drift_score, 1.0);
  EXPECT_EQ(tenants[1].first, 1);
  EXPECT_TRUE(tenants[1].second.alarmed);
  EXPECT_GE(tenants[1].second.drift_score, 1.0);

  // Per-tenant gauges exported under model.tenant<id>.*.
  auto& reg = obs::MetricsRegistry::Global();
  EXPECT_GE(reg.GetGauge("model.tenant1.drift_score")->Value(), 1.0);
  EXPECT_LT(reg.GetGauge("model.tenant0.drift_score")->Value(), 1.0);

  monitor.Reset();
  EXPECT_TRUE(monitor.SnapshotTenants().empty());
}

TEST(DriftMonitorTest, TenantShardCapFeedsOnlyGlobalStream) {
  obs::SetEnabled(true);
  obs::DriftConfig cfg = FastDriftConfig();
  cfg.max_tenants = 2;
  obs::DriftMonitor monitor(cfg);
  for (int i = 0; i < 10; ++i) {
    monitor.Observe("scan", /*tenant=*/0, 1.0, 1.0);
    monitor.Observe("scan", /*tenant=*/1, 1.0, 1.0);
    monitor.Observe("scan", /*tenant=*/2, 1.0, 1.0);  // past the cap
  }
  EXPECT_EQ(monitor.sample_count(), 30);  // global stream sees everything
  const auto tenants = monitor.SnapshotTenants();
  ASSERT_EQ(tenants.size(), 2u);  // shard cap holds
  EXPECT_EQ(tenants[0].first, 0);
  EXPECT_EQ(tenants[1].first, 1);
}

TEST(DriftMonitorTest, IgnoresNonFiniteObservations) {
  obs::SetEnabled(true);
  obs::DriftMonitor monitor;
  monitor.Observe("x", std::numeric_limits<double>::quiet_NaN(), 1.0);
  monitor.Observe("x", 1.0, std::numeric_limits<double>::infinity());
  EXPECT_EQ(monitor.sample_count(), 0);
}

TEST(DriftMonitorTest, BackfillAttachmentFeedsMonitor) {
  obs::SetEnabled(true);
  auto& log = obs::DecisionLog::Global();
  log.Clear();
  obs::DriftMonitor monitor;
  monitor.AttachToDecisionLog();

  obs::DecisionRecord rec;
  rec.engine = "sim";
  rec.op_type = "HashJoin";
  rec.predicted_score = 0.4;
  const int64_t id = log.Add(rec);
  log.AddRealized(id, 0.5);
  EXPECT_EQ(monitor.sample_count(), 1);
  const auto keys = monitor.SnapshotKeys();
  ASSERT_EQ(keys.size(), 1u);
  EXPECT_EQ(keys[0].first, "HashJoin");

  monitor.DetachFromDecisionLog();
  log.AddRealized(id, 0.5);
  EXPECT_EQ(monitor.sample_count(), 1);  // detached: no further samples
  log.Clear();
}

// ---------------------------------------------------------------------------
// HTTP exporter
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

TEST(ExporterTest, ServesMetricsHealthzAnd404) {
  obs::SetEnabled(true);
  obs::MetricsRegistry::Global().GetGauge("model.drift_score")->Set(0.25);

  obs::MetricsExporter exporter;
  ASSERT_TRUE(exporter.Start(0));  // ephemeral port
  ASSERT_GT(exporter.port(), 0);
  EXPECT_TRUE(exporter.running());
  EXPECT_FALSE(exporter.Start(0)) << "double Start must fail";

  const std::string metrics = HttpGet(exporter.port(), "/metrics");
  EXPECT_NE(metrics.find("200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(metrics.find("# TYPE model_drift_score gauge"),
            std::string::npos);
  EXPECT_NE(metrics.find("model_drift_score 0.25"), std::string::npos);

  const std::string health = HttpGet(exporter.port(), "/healthz");
  EXPECT_NE(health.find("200 OK"), std::string::npos);
  EXPECT_NE(health.find("ok"), std::string::npos);

  const std::string missing = HttpGet(exporter.port(), "/nope");
  EXPECT_NE(missing.find("404"), std::string::npos);

  exporter.Stop();
  EXPECT_FALSE(exporter.running());
}

// Regression: concurrent scrapes racing Stop() used to serialize through a
// single accept-loop handler; a scrape in flight when Stop() ran could be
// cut off mid-response. Four threads hammer /metrics while the exporter
// shuts down — every response that arrives must be complete (status line,
// exposition-format Content-Type, Content-Length honored to the byte).
TEST(ExporterTest, ConcurrentScrapesSurviveStop) {
  obs::SetEnabled(true);
  obs::MetricsRegistry::Global().GetGauge("model.drift_score")->Set(0.5);

  obs::MetricsExporter exporter;
  ASSERT_TRUE(exporter.Start(0));
  const int port = exporter.port();

  constexpr int kScrapers = 4;
  std::atomic<bool> keep_going{true};
  std::array<std::atomic<int>, kScrapers> complete{};
  std::vector<std::thread> scrapers;
  for (int t = 0; t < kScrapers; ++t) {
    scrapers.emplace_back([&, t] {
      while (keep_going.load(std::memory_order_acquire)) {
        const std::string resp = HttpGet(port, "/metrics");
        // An empty response means the connection was refused — the
        // listener is already gone, which is a legal race outcome. A
        // non-empty response must be whole.
        if (resp.empty()) continue;
        EXPECT_NE(resp.find("200 OK"), std::string::npos);
        EXPECT_NE(resp.find("Content-Type: text/plain; version=0.0.4"),
                  std::string::npos);
        EXPECT_NE(resp.find("lsched_build_info{"), std::string::npos);
        const size_t hdr_end = resp.find("\r\n\r\n");
        const size_t cl = resp.find("Content-Length: ");
        if (hdr_end == std::string::npos || cl == std::string::npos) {
          ADD_FAILURE() << "truncated response header";
          continue;
        }
        const size_t want =
            std::strtoull(resp.c_str() + cl + 16, nullptr, 10);
        EXPECT_EQ(resp.size() - (hdr_end + 4), want)
            << "body truncated mid-scrape";
        complete[static_cast<size_t>(t)].fetch_add(
            1, std::memory_order_relaxed);
      }
    });
  }

  // Wait until every scraper has landed at least one scrape, then stop
  // with traffic still in flight.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  auto all_scraped = [&] {
    for (const auto& c : complete) {
      if (c.load(std::memory_order_relaxed) == 0) return false;
    }
    return true;
  };
  while (!all_scraped() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  exporter.Stop();
  EXPECT_FALSE(exporter.running());
  keep_going.store(false, std::memory_order_release);
  for (std::thread& th : scrapers) th.join();
  for (int t = 0; t < kScrapers; ++t) {
    EXPECT_GE(complete[static_cast<size_t>(t)].load(), 1)
        << "scraper " << t << " never completed a scrape";
  }
}

// ---------------------------------------------------------------------------
// Trainer telemetry: the event stream and TrainStats come from one path
// ---------------------------------------------------------------------------

LSchedConfig SmallModelConfig() {
  LSchedConfig cfg;
  cfg.hidden_dim = 8;
  cfg.summary_dim = 8;
  cfg.head_hidden = 8;
  return cfg;
}

TEST(TrainerTelemetryTest, EventStreamMatchesTrainStats) {
  obs::SetEnabled(true);
  auto& events = obs::ScalarEventWriter::Global();
  events.Clear();

  LSchedModel model(SmallModelConfig());
  SimEngineConfig ecfg;
  ecfg.num_threads = 4;
  SimEngine engine(ecfg);
  TrainConfig tcfg;
  tcfg.episodes = 3;
  tcfg.telemetry_prefix = "ttest";
  ReinforceTrainer trainer(&model, &engine, tcfg);
  const TrainStats stats =
      trainer.Train(MakeEpisodeFactory(Benchmark::kSsb, 4, 6, 0.05, 0.1, {2}));

  const std::vector<double> rewards = events.SeriesValues("ttest.reward");
  ASSERT_EQ(rewards.size(), stats.episode_reward.size());
  for (size_t i = 0; i < rewards.size(); ++i) {
    EXPECT_DOUBLE_EQ(rewards[i], stats.episode_reward[i]) << "episode " << i;
  }
  const std::vector<double> latency = events.SeriesValues("ttest.avg_latency");
  ASSERT_EQ(latency.size(), stats.episode_avg_latency.size());
  for (size_t i = 0; i < latency.size(); ++i) {
    EXPECT_DOUBLE_EQ(latency[i], stats.episode_avg_latency[i]);
  }
  // The full per-episode model-quality series rode along.
  EXPECT_EQ(events.SeriesValues("ttest.policy_entropy").size(), 3u);
  EXPECT_EQ(events.SeriesValues("ttest.grad_norm_preclip").size(), 3u);
  EXPECT_EQ(events.SeriesValues("ttest.grad_norm_postclip").size(), 3u);
  EXPECT_EQ(events.SeriesValues("ttest.learning_rate").size(), 3u);
  EXPECT_EQ(events.SeriesValues("ttest.return_variance").size(), 3u);
  // Entropy of a sampling policy over >1 candidates is positive; the
  // post-clip norm never exceeds pre-clip.
  const auto pre = events.SeriesValues("ttest.grad_norm_preclip");
  const auto post = events.SeriesValues("ttest.grad_norm_postclip");
  for (size_t i = 0; i < pre.size(); ++i) {
    EXPECT_LE(post[i], pre[i] + 1e-9);
  }
  // And the registry gauge agrees with the stream (single write path).
  EXPECT_DOUBLE_EQ(
      obs::MetricsRegistry::Global().GetGauge("train.last_reward")->Value(),
      stats.episode_reward.back());
  events.Clear();
}

// ---------------------------------------------------------------------------
// Acceptance: a mid-run cost-model shift drives the drift score over the
// threshold and escalates OnlineLSched's update cadence
// ---------------------------------------------------------------------------

TEST(OnlineDriftTest, CostShiftFiresAlarmAndEscalatesOnlineUpdates) {
  obs::SetEnabled(true);
  auto& log = obs::DecisionLog::Global();
  log.Clear();

  obs::DriftConfig dcfg;
  dcfg.min_samples = 40;
  dcfg.ph_lambda = 25.0;
  obs::DriftMonitor monitor(dcfg);
  monitor.AttachToDecisionLog();

  LSchedModel model(SmallModelConfig());
  OnlineConfig ocfg;
  ocfg.update_every_queries = 16;  // checkpoint-mode serving
  OnlineLSched online(&model, ocfg);
  online.AttachDriftMonitor(&monitor);
  ASSERT_EQ(online.update_every_queries(), 16);

  // Phase 1: SJF serving on the cost model its estimates were built from.
  // Prediction error is stationary -> no alarm.
  WorkloadConfig wcfg;
  wcfg.benchmark = Benchmark::kSsb;
  wcfg.num_queries = 24;
  wcfg.scale_factors = {2};
  Rng rng(21);
  SjfScheduler sjf;
  SimEngineConfig base_cfg;
  base_cfg.num_threads = 8;
  SimEngine base_engine(base_cfg);
  base_engine.Run(GenerateWorkload(wcfg, &rng), &sjf);
  ASSERT_GT(monitor.sample_count(), dcfg.min_samples);
  ASSERT_FALSE(monitor.alarmed())
      << "baseline must be stationary (score=" << monitor.drift_score()
      << ")";

  // Phase 2: the workload shifts under the policy — contention inflates
  // every realized duration while the estimates stand still.
  SimEngineConfig shifted_cfg = base_cfg;
  shifted_cfg.cost_params.intra_query_contention = 1.0;
  SimEngine shifted_engine(shifted_cfg);
  shifted_engine.Run(GenerateWorkload(wcfg, &rng), &sjf);

  EXPECT_TRUE(monitor.alarmed())
      << "shift must alarm (score=" << monitor.drift_score() << ")";
  EXPECT_GE(monitor.drift_score(), 1.0);
  EXPECT_GE(
      obs::MetricsRegistry::Global().GetGauge("model.drift_score")->Value(),
      1.0);

  // The retrain hook: the next completion the online scheduler sees
  // escalates it from checkpoint mode to query-by-query self-correction.
  EXPECT_FALSE(online.drift_escalated());
  online.OnQueryCompleted(0, 0.1);
  EXPECT_TRUE(online.drift_escalated());
  EXPECT_EQ(online.update_every_queries(), 1);
  EXPECT_GE(obs::MetricsRegistry::Global()
                .GetCounter("online.drift_escalations")
                ->Value(),
            1);

  // After retrain/redeploy the operator drops back to checkpoint cadence.
  online.ResetDriftEscalation();
  EXPECT_FALSE(online.drift_escalated());
  EXPECT_EQ(online.update_every_queries(), 16);

  monitor.DetachFromDecisionLog();
  log.Clear();
}

TEST(OnlineGaugesTest, ProgressGaugesTrackUpdates) {
  obs::SetEnabled(true);
  LSchedModel model(SmallModelConfig());
  OnlineConfig ocfg;
  ocfg.update_every_queries = 2;
  OnlineLSched online(&model, ocfg);
  online.Reset();

  WorkloadConfig wcfg;
  wcfg.benchmark = Benchmark::kSsb;
  wcfg.num_queries = 8;
  wcfg.scale_factors = {2};
  Rng rng(11);
  SimEngineConfig ecfg;
  ecfg.num_threads = 6;
  SimEngine engine(ecfg);
  engine.Run(GenerateWorkload(wcfg, &rng), &online);

  auto& reg = obs::MetricsRegistry::Global();
  EXPECT_GT(online.num_updates(), 0);
  EXPECT_DOUBLE_EQ(reg.GetGauge("online.num_updates")->Value(),
                   static_cast<double>(online.num_updates()));
  EXPECT_DOUBLE_EQ(reg.GetGauge("online.update_every_queries")->Value(), 2.0);
  EXPECT_LT(reg.GetGauge("online.completions_since_update")->Value(), 2.5);
}

}  // namespace
}  // namespace lsched
