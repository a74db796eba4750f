// Reproduces Figure 14: (a) test-set average query duration as the number
// of training episodes grows, for LSched vs Decima (paper shape: LSched
// saturates in ~40% of the episodes Decima needs), and (b) the average
// episode reward with vs without transfer learning when moving TPCH -> SSB
// (paper shape: transfer halves the episodes needed to reach a good
// reward; reward is negative because it is a latency penalty).
//
// Learning curves come from the scalar event stream (obs/scalar_events.h):
// each trainer gets its own telemetry prefix, and the per-episode reward
// series is read back from the stream after training. With recording off
// (LSCHED_OBS=0) the stream is empty and the locally collected return values
// are used instead, so the figure renders identically either way.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "obs/scalar_events.h"
#include "util/math_util.h"

namespace {

// Reward series for `prefix` from the scalar event stream, or `fallback`
// (the TrainOneEpisode return values) when the stream has nothing for it.
std::vector<double> RewardSeries(const std::string& prefix,
                                 const std::vector<double>& fallback) {
  std::vector<double> series =
      lsched::obs::ScalarEventWriter::Global().SeriesValues(prefix +
                                                            ".reward");
  return series.empty() ? fallback : series;
}

}  // namespace

int main() {
  using namespace lsched;
  using namespace lsched::bench;
  const BenchConfig cfg = BenchConfig::FromEnv();
  const int total_episodes = cfg.episodes;
  const int checkpoints = 5;
  const int step = std::max(1, total_episodes / checkpoints);
  PrintCsvHeader();

  // --- 14a: test latency vs training episodes -----------------------------
  std::printf("Figure 14a — TPCH test avg query duration (sec) vs training "
              "episodes\n");
  std::printf("%10s %10s %10s\n", "episodes", "LSched", "Decima");
  const auto test = TestWorkload(Benchmark::kTpch, cfg.eval_queries, false,
                                 cfg.eval_interarrival, cfg.seed + 99);
  {
    LSchedModel lmodel(DefaultLSchedConfig());
    DecimaModel dmodel(DecimaConfig{});
    SimEngine train_engine = MakeEngine(cfg.threads, cfg.seed);
    SimEngine eval_engine = MakeEngine(cfg.threads, cfg.seed + 1);
    TrainConfig tcfg;
    tcfg.learning_rate = 2e-3;
    tcfg.episodes = 0;  // driven manually below
    tcfg.telemetry_prefix = "train.fig14a";
    ReinforceTrainer ltrainer(&lmodel, &train_engine, tcfg);
    DecimaTrainer dtrainer(&dmodel, &train_engine, 0, 2e-3);
    WorkloadFactory factory = TrainFactory(Benchmark::kTpch);
    Rng rng(cfg.seed);
    for (int done = 0; done < total_episodes; done += step) {
      for (int e = 0; e < step; ++e) {
        const auto w = factory(done + e, &rng);
        ltrainer.TrainOneEpisode(w);
        dtrainer.TrainOneEpisode(w);
      }
      LSchedAgent lagent(&lmodel);
      DecimaScheduler dagent(&dmodel);
      const double llat = eval_engine.Run(test, &lagent).avg_latency;
      const double dlat = eval_engine.Run(test, &dagent).avg_latency;
      std::printf("%10d %10.3f %10.3f\n", done + step, llat, dlat);
      PrintCsvRow("fig14a", "LSched", cfg.eval_queries, cfg.threads,
                  "avg_latency_ep" + std::to_string(done + step), llat);
      PrintCsvRow("fig14a", "Decima", cfg.eval_queries, cfg.threads,
                  "avg_latency_ep" + std::to_string(done + step), dlat);
    }
  }

  // --- 14b: transfer learning TPCH -> SSB ---------------------------------
  std::printf("\nFigure 14b — SSB avg episode reward vs episodes, with and "
              "without transfer learning from the TPCH model\n");
  std::printf("%10s %14s %14s\n", "episodes", "with_TL", "without_TL");
  auto base = TrainedLSched(cfg, Benchmark::kTpch, "full",
                            DefaultLSchedConfig());

  LSchedModel with_tl(DefaultLSchedConfig());
  with_tl.params()->CopyValuesFrom(*base->params());
  with_tl.FreezeForTransfer();
  LSchedModel without_tl(DefaultLSchedConfig());

  SimEngine engine = MakeEngine(cfg.threads, cfg.seed + 6);
  TrainConfig tl_cfg;
  tl_cfg.learning_rate = 2e-3;
  tl_cfg.telemetry_prefix = "train.tl";
  TrainConfig scratch_cfg = tl_cfg;
  scratch_cfg.telemetry_prefix = "train.scratch";
  ReinforceTrainer tl_trainer(&with_tl, &engine, tl_cfg);
  ReinforceTrainer scratch_trainer(&without_tl, &engine, scratch_cfg);
  WorkloadFactory factory = TrainFactory(Benchmark::kSsb);
  Rng rng(cfg.seed + 7);
  std::vector<double> tl_returned, scratch_returned;
  for (int e = 0; e < total_episodes; ++e) {
    const auto w = factory(e, &rng);
    tl_returned.push_back(tl_trainer.TrainOneEpisode(w));
    scratch_returned.push_back(scratch_trainer.TrainOneEpisode(w));
  }
  // The curves themselves come from the event stream the trainers fed.
  const std::vector<double> tl_rewards = RewardSeries("train.tl", tl_returned);
  const std::vector<double> scratch_rewards =
      RewardSeries("train.scratch", scratch_returned);
  // Report the mean reward over each window (smoother curve).
  auto window_mean = [&](const std::vector<double>& v, int end) {
    const int begin = std::max(0, end - step);
    double s = 0.0;
    for (int i = begin; i < end && i < static_cast<int>(v.size()); ++i) {
      s += v[i];
    }
    return s / std::max(1, end - begin);
  };
  for (int done = step; done <= total_episodes; done += step) {
    const double tl_mean = window_mean(tl_rewards, done);
    const double scratch_mean = window_mean(scratch_rewards, done);
    std::printf("%10d %14.2f %14.2f\n", done, tl_mean, scratch_mean);
    PrintCsvRow("fig14b", "with_TL", cfg.eval_queries, cfg.threads,
                "mean_reward_ep" + std::to_string(done), tl_mean);
    PrintCsvRow("fig14b", "without_TL", cfg.eval_queries, cfg.threads,
                "mean_reward_ep" + std::to_string(done), scratch_mean);
  }
  return 0;
}
