// train_sim: REINFORCE training episodes on the simulator, one thread.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

#include "bench.h"
#include "bench/bench_common.h"
#include "core/agent.h"
#include "core/model.h"
#include "core/trainer.h"
#include "ledger.h"
#include "obs/metrics.h"
#include "util/math_util.h"
#include "workload/workload.h"

namespace perfbench {

using namespace lsched;

namespace {

/// Every pre-generated episode has this many TPCH queries at this mean
/// arrival gap, inside bench::TrainFactory's ranges (10-30 queries,
/// 0.02-0.12 s gaps), with fresh content per episode. One size keeps the
/// per-episode cost in one cluster (sizes spread over the range gave p50
/// and p99 spreads of 0.29 and 0.52 over five seeds); small episodes give a
/// run more of them.
constexpr int kEpisodeQueries = 12;
constexpr double kEpisodeGap = 0.07;
/// Distinct episodes in the list, more than a run gets through.
constexpr size_t kEpisodes = 512;
/// Warm-up rollouts before the timed window.
constexpr size_t kWarmupEpisodes = 8;
/// Set-up builds per run; setup_s is their median.
constexpr int kSetupReps = 5;
/// The benches' simulated pool size (BenchConfig::threads).
constexpr int kSimThreads = 60;

bool ParamsFinite(LSchedModel* model) {
  for (Param* p : model->params()->All()) {
    const Matrix& m = p->value;
    for (size_t i = 0; i < m.size(); ++i) {
      if (!std::isfinite(m.data()[i])) return false;
    }
  }
  return true;
}

}  // namespace

Outcome RunTrainSim(const Options& opt) {
  Outcome out;
  // --- setup: the episode list and a seed-17 model, kSetupReps times (the
  // median is reported).
  std::vector<double> setup_reps;
  std::vector<std::vector<QuerySubmission>> episodes;
  std::unique_ptr<LSchedModel> model;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const int64_t t0 = NowNs();
    Rng rng(opt.seed);
    const WorkloadFactory factory = MakeEpisodeFactory(
        Benchmark::kTpch, kEpisodeQueries, kEpisodeQueries, kEpisodeGap, kEpisodeGap);
    episodes.clear();
    while (episodes.size() < kEpisodes) {
      episodes.push_back(factory(static_cast<int>(episodes.size()), &rng));
    }
    model = std::make_unique<LSchedModel>(bench::DefaultLSchedConfig());
    setup_reps.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
  }
  const double setup_s = Percentile(setup_reps, 50);
  // Warm-up, outside setup_s: sampled rollouts of the first episodes (no
  // update, so the model stays at its initialisation).
  const int64_t w0 = NowNs();
  {
    SimEngine engine = bench::MakeEngine(kSimThreads);
    LSchedAgent agent(model.get(), opt.seed);
    agent.set_sample_actions(true);
    for (size_t e = 0; e < kWarmupEpisodes; ++e) engine.Run(episodes[e], &agent);
  }
  std::fprintf(stderr, "setup: %.3f s (median of %d), warm-up %.3f s\n", setup_s,
               kSetupReps, static_cast<double>(NowNs() - w0) * 1e-9);

  // --- timed: one TrainOneEpisode per list entry, in order, until the
  // window closes. Every episode trains a fresh seed-17 model, so episodes
  // are independent: one sampled trajectory cannot change the cost of the
  // ones after it, and the run's cost depends on the episodes' content only.
  SimEngine engine = bench::MakeEngine(kSimThreads);
  SimEngine rollout_engine = bench::MakeEngine(kSimThreads);
  SpanLog log(opt.trace ? 4096 : 0);
  auto& reg = obs::MetricsRegistry::Global();
  const int64_t hits0 = reg.GetCounter("sched.encoder_cache_hits")->Value();
  const int64_t miss0 = reg.GetCounter("sched.encoder_cache_misses")->Value();

  std::vector<double> episode_ms, rollout_ms, update_ms;
  int64_t decisions = 0;
  const int64_t start = NowNs();
  const int64_t end = start + static_cast<int64_t>(opt.seconds * 1e9);
  std::vector<OpSample> samples;
  for (size_t i = 0; NowNs() < end; ++i) {
    model = std::make_unique<LSchedModel>(bench::DefaultLSchedConfig());
    ReinforceTrainer trainer(model.get(), &engine, TrainConfig{});
    LSchedAgent rollout_agent(model.get(), opt.seed ^ 0x5a3ULL);
    rollout_agent.set_sample_actions(true);
    const auto& workload = episodes[i % episodes.size()];
    int64_t r0 = 0, r1 = 0;
    if (opt.trace) {
      r0 = NowNs();
      rollout_engine.Run(workload, &rollout_agent);
      r1 = NowNs();
      log.Add("train.rollout", r0, r1, static_cast<int64_t>(i));
    }
    const int64_t t0 = NowNs();
    const double reward = trainer.TrainOneEpisode(workload);
    const int64_t t1 = NowNs();
    ++out.attempted;
    const bool ok = std::isfinite(reward) && ParamsFinite(model.get());
    if (!ok) {
      if (out.failed < 5) {
        std::fprintf(stderr, "episode %zu failed: reward %g\n", i, reward);
      }
      ++out.failed;
      continue;
    }
    episode_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
    samples.push_back({t1, episode_ms.back()});
    decisions += static_cast<int64_t>(
        trainer.experience_manager()->latest().experiences.size());
    if (opt.trace) {
      log.Add("train.episode", t0, t1, static_cast<int64_t>(i));
      rollout_ms.push_back(static_cast<double>(r1 - r0) * 1e-6);
      update_ms.push_back(static_cast<double>((t1 - t0) - (r1 - r0)) * 1e-6);
    }
  }
  const WindowStats w = Summarize(samples, start, end);
  const double eps = w.ops_per_s, p50 = w.p50_ms, p99 = w.p99_ms;
  std::fprintf(stderr, "train_sim: %lld episodes, %lld failed, %zu completed in the window\n",
               static_cast<long long>(out.attempted), static_cast<long long>(out.failed),
               w.samples);
  out.end_to_end = {{"ops_per_s", eps, "1/s"},
                    {"p50_ms", p50, "ms"},
                    {"p99_ms", p99, "ms"},
                    {"setup_s", setup_s, "s"},
                    {"rss_mb", PeakRssMb(), "MB"}};
  if (!opt.trace) return out;

  const int64_t hits = reg.GetCounter("sched.encoder_cache_hits")->Value() - hits0;
  const int64_t misses = reg.GetCounter("sched.encoder_cache_misses")->Value() - miss0;
  double episode_total_ms = 0.0;
  for (double v : episode_ms) episode_total_ms += v;
  const double n_eps = static_cast<double>(std::max<size_t>(episode_ms.size(), 1));
  out.per_layer = {
      {"core.encoder_hit_ratio",
       static_cast<double>(hits) / static_cast<double>(std::max<int64_t>(hits + misses, 1)),
       "ratio"},
      {"train.rollout_ms_p50", Percentile(rollout_ms, 50), "ms"},
      {"train.update_ms_p50", Percentile(update_ms, 50), "ms"},
      {"train.decisions_per_episode", static_cast<double>(decisions) / n_eps, "count"},
      {"train.us_per_decision",
       episode_total_ms * 1e3 / static_cast<double>(std::max<int64_t>(decisions, 1)), "us"},
      {"traced.ops_per_s", eps, "1/s"},
      {"traced.p50_ms", p50, "ms"},
      {"traced.p99_ms", p99, "ms"},
  };
  const std::vector<Span> spans = MergeSpans({&log});
  PrintSpanTable(spans);
  const std::string path = opt.out_dir + "/spans-" + opt.workload + "-" +
                           std::to_string(opt.seed) + ".csv";
  if (!WriteSpansCsv(spans, path)) out.errors.push_back("cannot write " + path);
  return out;
}

}  // namespace perfbench
