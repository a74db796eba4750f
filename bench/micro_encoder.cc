// Micro-benchmarks of the learned scheduler's per-decision costs: feature
// extraction, query encoding (TCN+GAT vs GCN fallback, and Decima's GCN),
// the serving cache's incremental refresh and re-encode, and the full
// predictor forward pass — the ingredients of the Fig. 13a overhead.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <vector>

#include "bench/bench_common.h"
#include "core/agent.h"
#include "core/encoder.h"
#include "core/predictor.h"
#include "sched/decima.h"
#include "workload/workload.h"

namespace lsched {
namespace {

struct Fixture {
  Fixture(int num_queries, bool use_tcn) {
    WorkloadConfig wcfg;
    wcfg.benchmark = Benchmark::kTpch;
    wcfg.num_queries = num_queries;
    wcfg.scale_factors = {10};
    Rng rng(5);
    auto workload = GenerateWorkload(wcfg, &rng);
    for (auto& sub : workload) {
      queries.push_back(
          std::make_unique<QueryState>(static_cast<QueryId>(queries.size()),
                                       std::move(sub.plan), 0.0));
    }
    for (int i = 0; i < 60; ++i) ctx.AddThread(ThreadInfo{.id = i});
    for (auto& q : queries) ctx.AddQuery(q.get());

    LSchedConfig cfg;
    cfg.hidden_dim = 12;
    cfg.summary_dim = 12;
    cfg.head_hidden = 16;
    cfg.use_tree_conv = use_tcn;
    model = std::make_unique<LSchedModel>(cfg);
    extractor = std::make_unique<FeatureExtractor>(cfg.features);
    features = extractor->Extract(ctx);
  }

  std::vector<std::unique_ptr<QueryState>> queries;
  SchedulingContext ctx;
  std::unique_ptr<LSchedModel> model;
  std::unique_ptr<FeatureExtractor> extractor;
  StateFeatures features;
};

void BM_FeatureExtraction(benchmark::State& s) {
  Fixture fx(static_cast<int>(s.range(0)), true);
  for (auto _ : s) {
    benchmark::DoNotOptimize(fx.extractor->Extract(fx.ctx));
  }
}
BENCHMARK(BM_FeatureExtraction)->Arg(4)->Arg(16)->Arg(64);

void BM_EncodeState(benchmark::State& s) {
  Fixture fx(static_cast<int>(s.range(0)), true);
  for (auto _ : s) {
    Tape tape;
    benchmark::DoNotOptimize(EncodeState(fx.model.get(), fx.features, &tape));
  }
}
BENCHMARK(BM_EncodeState)->Arg(4)->Arg(16)->Arg(64);

void BM_EncodeStateGcn(benchmark::State& s) {
  Fixture fx(static_cast<int>(s.range(0)), false);
  for (auto _ : s) {
    Tape tape;
    benchmark::DoNotOptimize(EncodeState(fx.model.get(), fx.features, &tape));
  }
}
BENCHMARK(BM_EncodeStateGcn)->Arg(4)->Arg(16)->Arg(64);

void BM_FullPredictorForward(benchmark::State& s) {
  Fixture fx(static_cast<int>(s.range(0)), true);
  for (auto _ : s) {
    Tape tape;
    const EncodedState enc = EncodeState(fx.model.get(), fx.features, &tape);
    benchmark::DoNotOptimize(
        RunPredictor(fx.model.get(), fx.features, enc, &tape));
  }
}
BENCHMARK(BM_FullPredictorForward)->Arg(4)->Arg(16)->Arg(64);

void BM_AgentScheduleDecision(benchmark::State& s) {
  Fixture fx(static_cast<int>(s.range(0)), true);
  LSchedAgent agent(fx.model.get());
  SchedulingEvent event;
  for (auto _ : s) {
    benchmark::DoNotOptimize(agent.Schedule(event, fx.ctx));
  }
}
BENCHMARK(BM_AgentScheduleDecision)->Arg(4)->Arg(16)->Arg(64);

/// Median microseconds per call over `reps` timed invocations (after one
/// warmup). Manual timing rather than google-benchmark state so the same
/// numbers land in the perf-trajectory snapshot.
double MedianUsPerCall(const std::function<void()>& fn, int reps) {
  fn();
  std::vector<double> us;
  us.reserve(static_cast<size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    us.push_back(std::chrono::duration<double, std::micro>(t1 - t0).count());
  }
  std::sort(us.begin(), us.end());
  return us[us.size() / 2];
}

/// Median microseconds of `timed` over `reps` rounds, each after an
/// untimed `setup` (after one warmup round).
double MedianUsAfterSetup(const std::function<void()>& setup,
                          const std::function<void()>& timed, int reps) {
  setup();
  timed();
  std::vector<double> us;
  us.reserve(static_cast<size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    setup();
    const auto t0 = std::chrono::steady_clock::now();
    timed();
    const auto t1 = std::chrono::steady_clock::now();
    us.push_back(std::chrono::duration<double, std::micro>(t1 - t0).count());
  }
  std::sort(us.begin(), us.end());
  return us[us.size() / 2];
}

/// The serving cache over every query of `fx`. Each Bump() gives every
/// query a new version with one changed monitor column (operator 0's
/// scheduled flag flips), the change a work-order event makes.
struct CacheRounds {
  explicit CacheRounds(Fixture* fixture) : fx(fixture) {
    Refresh();
    Encode();
  }
  void Bump() {
    ++version;
    for (auto& q : fx->queries) q->set_op_scheduled(0, !q->op_scheduled(0));
  }
  void Refresh() {
    for (auto& q : fx->queries) {
      cache.GetStructural(*q, version, *fx->model, *fx->extractor);
    }
  }
  void Encode() {
    arena.Reset();
    for (auto& q : fx->queries) {
      cache.EnsureEncoded(
          &cache.GetStructural(*q, version, *fx->model, *fx->extractor),
          *fx->model, &arena);
    }
  }
  Fixture* fx;
  EncodingCache cache;
  ScratchArena arena;
  uint64_t version = 1;
};

void WriteEncoderSnapshot() {
  const char* env = std::getenv("LSCHED_ENCODER_REPS");
  const int reps = env != nullptr && std::atoi(env) > 0 ? std::atoi(env) : 30;
  Fixture tcn(16, /*use_tcn=*/true);
  Fixture gcn(16, /*use_tcn=*/false);
  PerfSnapshot snap = MakePerfSnapshot("encoder");
  snap.Add("queries", 16);
  snap.Add("reps", reps);
  snap.Add("extract.p50_us", MedianUsPerCall([&] {
             benchmark::DoNotOptimize(tcn.extractor->Extract(tcn.ctx));
           }, reps));
  snap.Add("encode_tcn.p50_us", MedianUsPerCall([&] {
             Tape tape;
             benchmark::DoNotOptimize(
                 EncodeState(tcn.model.get(), tcn.features, &tape));
           }, reps));
  // A version bump of every query: its monitor columns and candidates are
  // re-extracted, its static part kept.
  CacheRounds rounds(&tcn);
  snap.Add("refresh.p50_us",
           MedianUsAfterSetup([&] { rounds.Bump(); }, [&] { rounds.Refresh(); },
                              reps));
  // Every query re-encoded after one monitor-column change.
  snap.Add("reencode.p50_us", MedianUsAfterSetup(
                                  [&] {
                                    rounds.Bump();
                                    rounds.Refresh();
                                  },
                                  [&] { rounds.Encode(); }, reps));
  snap.Add("encode_gcn.p50_us", MedianUsPerCall([&] {
             Tape tape;
             benchmark::DoNotOptimize(
                 EncodeState(gcn.model.get(), gcn.features, &tape));
           }, reps));
  // Decima's tape encoder over the same queries.
  DecimaModel decima{DecimaConfig()};
  const DecimaStateFeatures decima_state =
      DecimaScheduler::ExtractFeatures(tcn.ctx);
  snap.Add("encode_decima.p50_us", MedianUsPerCall([&] {
             Tape tape;
             benchmark::DoNotOptimize(Encode(&decima, decima_state, &tape));
           }, reps));
  snap.Add("forward.p50_us", MedianUsPerCall([&] {
             Tape tape;
             const EncodedState enc =
                 EncodeState(tcn.model.get(), tcn.features, &tape);
             benchmark::DoNotOptimize(
                 RunPredictor(tcn.model.get(), tcn.features, enc, &tape));
           }, reps));
  bench::WriteBenchSnapshot(snap);
}

}  // namespace
}  // namespace lsched

int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  lsched::WriteEncoderSnapshot();
  return 0;
}
