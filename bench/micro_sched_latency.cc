// Per-event scheduler decision latency (DESIGN.md §9) for every shipped
// policy. Each policy is handed the engine's live SchedulingContext, so
// the learned policies serve through cached per-query encodings and
// batched tape-free GEMMs; the timed region is the Schedule() call alone.
//
// Emits the standard bench_common CSV schema
//   figure,scheduler,queries,threads,metric,value
// with per-policy metrics {p50,p99,mean}_us and events.
#include <chrono>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "exec/scheduling_context.h"
#include "sched/decima.h"
#include "sched/heuristics.h"
#include "sched/selftune.h"
#include "util/math_util.h"

namespace lsched {
namespace {

/// Decorator that times every Schedule() call.
class TimingScheduler : public Scheduler {
 public:
  explicit TimingScheduler(Scheduler* inner) : inner_(inner) {}

  std::string name() const override { return inner_->name(); }
  void Reset() override { inner_->Reset(); }
  void OnQueryCompleted(QueryId query, double latency) override {
    inner_->OnQueryCompleted(query, latency);
  }

  SchedulingDecision Schedule(const SchedulingEvent& event,
                              const SchedulingContext& ctx) override {
    const auto t0 = std::chrono::steady_clock::now();
    SchedulingDecision decision = inner_->Schedule(event, ctx);
    const auto t1 = std::chrono::steady_clock::now();
    latencies_us_.push_back(
        std::chrono::duration<double, std::micro>(t1 - t0).count());
    return decision;
  }

  const std::vector<double>& latencies_us() const { return latencies_us_; }

 private:
  Scheduler* inner_;
  std::vector<double> latencies_us_;
};

struct LatencyStats {
  double p50_us = 0.0;
  double p99_us = 0.0;
  double mean_us = 0.0;
  int events = 0;
};

LatencyStats RunOnce(Scheduler* policy,
                     const std::vector<QuerySubmission>& workload,
                     const bench::BenchConfig& cfg) {
  SimEngine engine = bench::MakeEngine(cfg.threads, cfg.seed + 9);
  TimingScheduler timing(policy);
  engine.Run(workload, &timing);
  LatencyStats stats;
  stats.events = static_cast<int>(timing.latencies_us().size());
  if (stats.events == 0) return stats;
  stats.p50_us = Percentile(timing.latencies_us(), 50.0);
  stats.p99_us = Percentile(timing.latencies_us(), 99.0);
  stats.mean_us = Mean(timing.latencies_us());
  return stats;
}

int ReadEnvInt(const char* name, int fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return std::atoi(v);
}

}  // namespace
}  // namespace lsched

int main() {
  using namespace lsched;
  using namespace lsched::bench;
  const BenchConfig cfg = BenchConfig::FromEnv();
  const int num_queries = ReadEnvInt("LSCHED_SCHED_LATENCY_QUERIES", 40);

  // Untrained weights: decision latency does not depend on the values, only
  // on the network shapes and the serving machinery.
  LSchedModel lsched_model(DefaultLSchedConfig());
  DecimaModel decima_model(DecimaConfig{});

  struct NamedFactory {
    std::string name;
    std::function<std::unique_ptr<Scheduler>()> make;
  };
  const std::vector<NamedFactory> policies = {
      {"FIFO", [] { return std::make_unique<FifoScheduler>(); }},
      {"Fair", [] { return std::make_unique<FairScheduler>(); }},
      {"SJF", [] { return std::make_unique<SjfScheduler>(); }},
      {"HPF", [] { return std::make_unique<HpfScheduler>(); }},
      {"CriticalPath",
       [] { return std::make_unique<CriticalPathScheduler>(); }},
      {"Quickstep", [] { return std::make_unique<QuickstepScheduler>(); }},
      {"SelfTune", [] { return std::make_unique<SelfTuneScheduler>(); }},
      {"LSched",
       [&] { return std::make_unique<LSchedAgent>(&lsched_model); }},
      {"Decima",
       [&] { return std::make_unique<DecimaScheduler>(&decima_model); }},
  };

  const auto workload = TestWorkload(Benchmark::kTpch, num_queries, false,
                                     cfg.eval_interarrival, cfg.seed + 77);

  PerfSnapshot snap = MakePerfSnapshot("sched_latency");
  snap.Add("queries", num_queries);
  snap.Add("threads", cfg.threads);
  PrintCsvHeader();
  for (const NamedFactory& policy : policies) {
    std::unique_ptr<Scheduler> sched = policy.make();
    const LatencyStats stats = RunOnce(sched.get(), workload, cfg);
    const std::vector<std::pair<std::string, double>> metrics = {
        {"p50_us", stats.p50_us},
        {"p99_us", stats.p99_us},
        {"mean_us", stats.mean_us},
        {"events", static_cast<double>(stats.events)},
    };
    for (const auto& [metric, value] : metrics) {
      PrintCsvRow("micro_sched_latency", policy.name, num_queries,
                  cfg.threads, metric, value);
      snap.Add(policy.name + "." + metric, value);
    }
  }
  return WriteBenchSnapshot(snap) ? 0 : 1;
}
