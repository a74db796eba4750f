// Command-line driver for training, evaluating, and comparing schedulers
// on the benchmark workloads without writing any C++.
//
//   lsched_cli train   --benchmark=tpch --episodes=100 --out=model.bin
//   lsched_cli eval    --benchmark=tpch --model=model.bin --queries=80
//   lsched_cli compare --benchmark=ssb  --model=model.bin --batch
//   lsched_cli report  --events=events.jsonl --decisions=decisions.csv
//   lsched_cli chaos   --seed=1 --duration-seconds=120 --threads=4
//   lsched_cli serve   --seed=1 --duration-seconds=60 --threads=4 --tenants=3
//   lsched_cli explain 17 --trace=trace.csv
//   lsched_cli top     --metrics-port=9100 [--watch] [--interval-ms=1000]
//   lsched_cli top     --profile=profile.csv
//   lsched_cli --version
//
// Flags (all optional unless noted):
//   --benchmark=tpch|ssb|job   workload family            [tpch]
//   --episodes=N               training episodes          [100]
//   --queries=N                evaluation queries         [80]
//   --threads=N                simulated worker threads   [60]
//   --interarrival-ms=N        mean arrival gap           [50]
//   --batch                    batch arrivals (all at t=0)
//   --seed=N                   master seed                [1]
//   --model=PATH               model to load (eval/compare)
//   --out=PATH                 checkpoint to write (train, required)
//   --transfer-from=PATH       warm start + freeze for transfer training
//   --events=PATH              scalar event JSONL (report; see
//                              LSCHED_SCALAR_EVENTS)
//   --decisions=PATH           decision-log CSV (report; see
//                              LSCHED_DECISION_LOG)
//   --duration-seconds=S       soak budget (chaos)        [30]
//   --workloads=N              max fuzzed workloads, 0 = until the
//                              duration budget runs out (chaos)
//   --scenario=NAME            shape the arrival stream with a workload
//                              scenario preset (chaos, serve): steady,
//                              diurnal, flash_crowd, drift_ramp, elastic,
//                              adversarial. Empty = plain Poisson.
//   --fault-log=PATH           where to dump the fault log when a chaos
//                              iteration fails             [fault_log.txt]
//   --tenants=N                serving tenants (serve)     [3]
//   --max-live=N               admission bound (serve)     [32]
//   --metrics-port=P           Prometheus exporter port, 0 = ephemeral,
//                              < 0 = off (serve)           [-1]
//   --slo-ms=N                 per-tenant latency SLO target, <= 0 = no SLO
//                              (serve)                     [0]
//   --slo-percentile=F         SLO percentile in (0,1) (serve) [0.99]
//   --trace-out=PATH           dump the per-query lifetime trace CSV on
//                              drain (serve; the input of `explain`)
//   --trace=PATH               lifetime-trace CSV to read (explain)
//   --profile-hz=F             sampling-profiler rate, 0 = off (serve) [0]
//   --profile-out=PATH         profiler CSV to write on drain (serve)
//                              [profile.csv]
//   --profile=PATH             profiler CSV to summarize offline (top)
//   --watch                    live refresh instead of one-shot (top)
//   --interval-ms=N            watch refresh interval (top)       [1000]
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "core/agent.h"
#include "core/trainer.h"
#include "obs/decision_log.h"
#include "obs/query_trace.h"
#include "obs/drift.h"
#include "obs/exporter.h"
#include "obs/profiler.h"
#include "obs/scalar_events.h"
#include "serve/serving_daemon.h"
#include "sched/decima.h"
#include "sched/guarded_policy.h"
#include "sched/heuristics.h"
#include "sched/selftune.h"
#include "testing/faultpoint.h"
#include "testing/fuzzer.h"
#include "testing/invariants.h"
#include "util/build_info.h"
#include "util/clock.h"
#include "workload/scenario.h"
#include "workload/workload.h"

namespace lsched {
namespace {

struct Args {
  std::string command;
  Benchmark benchmark = Benchmark::kTpch;
  int episodes = 100;
  int queries = 80;
  int threads = 60;
  double interarrival = 0.05;
  bool batch = false;
  uint64_t seed = 1;
  std::string model_path;
  std::string out_path;
  std::string transfer_from;
  std::string events_path;
  std::string decisions_path;
  double duration_seconds = 30.0;
  int workloads = 0;  // 0 = run until the duration budget is spent
  std::string scenario;  // empty = plain Poisson arrivals
  std::string fault_log_path = "fault_log.txt";
  int tenants = 3;
  int max_live = 32;
  int metrics_port = -1;  // < 0 = exporter off
  double slo_ms = 0.0;    // <= 0 = no SLO
  double slo_percentile = 0.99;
  std::string trace_out_path;
  std::string trace_path;
  int64_t explain_query = -1;
  double profile_hz = 0.0;  // <= 0 = sampling profiler off
  std::string profile_out_path = "profile.csv";
  std::string profile_path;  // top: offline CSV to summarize
  bool watch = false;
  int interval_ms = 1000;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  if (argc < 2) return false;
  args->command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* prefix) -> const char* {
      const size_t n = std::strlen(prefix);
      return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
    };
    if (const char* v = value("--benchmark=")) {
      if (std::strcmp(v, "tpch") == 0) {
        args->benchmark = Benchmark::kTpch;
      } else if (std::strcmp(v, "ssb") == 0) {
        args->benchmark = Benchmark::kSsb;
      } else if (std::strcmp(v, "job") == 0) {
        args->benchmark = Benchmark::kJob;
      } else {
        std::fprintf(stderr, "unknown benchmark: %s\n", v);
        return false;
      }
    } else if (const char* v2 = value("--episodes=")) {
      args->episodes = std::atoi(v2);
    } else if (const char* v3 = value("--queries=")) {
      args->queries = std::atoi(v3);
    } else if (const char* v4 = value("--threads=")) {
      args->threads = std::atoi(v4);
    } else if (const char* v5 = value("--interarrival-ms=")) {
      args->interarrival = std::atof(v5) / 1000.0;
    } else if (arg == "--batch") {
      args->batch = true;
    } else if (const char* v6 = value("--seed=")) {
      args->seed = static_cast<uint64_t>(std::atoll(v6));
    } else if (const char* v7 = value("--model=")) {
      args->model_path = v7;
    } else if (const char* v8 = value("--out=")) {
      args->out_path = v8;
    } else if (const char* v9 = value("--transfer-from=")) {
      args->transfer_from = v9;
    } else if (const char* v10 = value("--events=")) {
      args->events_path = v10;
    } else if (const char* v11 = value("--decisions=")) {
      args->decisions_path = v11;
    } else if (const char* v12 = value("--duration-seconds=")) {
      args->duration_seconds = std::atof(v12);
    } else if (const char* v13 = value("--workloads=")) {
      args->workloads = std::atoi(v13);
    } else if (const char* v14 = value("--fault-log=")) {
      args->fault_log_path = v14;
    } else if (const char* v15 = value("--tenants=")) {
      args->tenants = std::atoi(v15);
    } else if (const char* v16 = value("--max-live=")) {
      args->max_live = std::atoi(v16);
    } else if (const char* v17 = value("--metrics-port=")) {
      args->metrics_port = std::atoi(v17);
    } else if (const char* v18 = value("--slo-ms=")) {
      args->slo_ms = std::atof(v18);
    } else if (const char* v19 = value("--slo-percentile=")) {
      args->slo_percentile = std::atof(v19);
    } else if (const char* v20 = value("--trace-out=")) {
      args->trace_out_path = v20;
    } else if (const char* v21 = value("--trace=")) {
      args->trace_path = v21;
    } else if (const char* v22 = value("--profile-hz=")) {
      args->profile_hz = std::atof(v22);
    } else if (const char* v23 = value("--profile-out=")) {
      args->profile_out_path = v23;
    } else if (const char* v24 = value("--profile=")) {
      args->profile_path = v24;
    } else if (arg == "--watch") {
      args->watch = true;
    } else if (const char* v25 = value("--interval-ms=")) {
      args->interval_ms = std::max(50, std::atoi(v25));
    } else if (const char* v26 = value("--scenario=")) {
      args->scenario = v26;
    } else if (args->command == "explain" && !arg.empty() && arg[0] != '-') {
      char* end = nullptr;
      args->explain_query = std::strtoll(arg.c_str(), &end, 10);
      if (end == arg.c_str() || *end != '\0' || args->explain_query < 0) {
        std::fprintf(stderr, "explain: bad query id '%s'\n", arg.c_str());
        return false;
      }
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

LSchedConfig DefaultConfig() {
  LSchedConfig cfg;
  cfg.hidden_dim = 12;
  cfg.summary_dim = 12;
  cfg.head_hidden = 16;
  return cfg;
}

std::vector<QuerySubmission> EvalWorkload(const Args& args) {
  WorkloadConfig cfg;
  cfg.benchmark = args.benchmark;
  cfg.split = WorkloadSplit::kTest;
  cfg.num_queries = args.queries;
  cfg.batch = args.batch;
  cfg.mean_interarrival_seconds = args.interarrival;
  Rng rng(args.seed + 7777);
  return GenerateWorkload(cfg, &rng);
}

std::function<std::vector<QuerySubmission>(int, Rng*)> TrainFactoryForCli(
    Benchmark benchmark) {
  return MakeEpisodeFactory(benchmark, 10, 30, 0.02, 0.12);
}

int RunTrain(const Args& args) {
  if (args.out_path.empty()) {
    std::fprintf(stderr, "train requires --out=PATH\n");
    return 2;
  }
  LSchedModel model(DefaultConfig());
  if (!args.transfer_from.empty()) {
    LSchedModel base(DefaultConfig());
    const Status st = base.Load(args.transfer_from);
    if (!st.ok()) {
      std::fprintf(stderr, "cannot load %s: %s\n", args.transfer_from.c_str(),
                   st.ToString().c_str());
      return 2;
    }
    model.params()->CopyValuesFrom(*base.params());
    const int frozen = model.FreezeForTransfer();
    std::printf("transfer warm start from %s (%d tensors frozen)\n",
                args.transfer_from.c_str(), frozen);
  }
  SimEngineConfig ecfg;
  ecfg.num_threads = args.threads;
  ecfg.seed = args.seed;
  SimEngine engine(ecfg);
  TrainConfig tcfg;
  tcfg.episodes = args.episodes;
  tcfg.seed = args.seed;
  tcfg.log_every = std::max(1, args.episodes / 10);
  ReinforceTrainer trainer(&model, &engine, tcfg);
  std::printf("training on %s for %d episodes (%d threads)...\n",
              BenchmarkName(args.benchmark), args.episodes, args.threads);
  const TrainStats stats = trainer.Train(TrainFactoryForCli(args.benchmark));
  std::printf("final episode avg latency: %.3fs\n",
              stats.episode_avg_latency.back());
  const Status st = model.Save(args.out_path);
  if (!st.ok()) {
    std::fprintf(stderr, "save failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("model written to %s\n", args.out_path.c_str());
  return 0;
}

int RunEval(const Args& args) {
  LSchedModel model(DefaultConfig());
  if (args.model_path.empty() || !model.Load(args.model_path).ok()) {
    std::fprintf(stderr, "eval requires a loadable --model=PATH\n");
    return 2;
  }
  SimEngineConfig ecfg;
  ecfg.num_threads = args.threads;
  ecfg.seed = args.seed;
  SimEngine engine(ecfg);
  LSchedAgent agent(&model);
  const EpisodeResult r = engine.Run(EvalWorkload(args), &agent);
  std::printf("%s %s x%d: avg=%.3fs p90=%.3fs makespan=%.3fs actions=%d "
              "sched_overhead=%.1fms\n",
              BenchmarkName(args.benchmark),
              args.batch ? "batch" : "streaming", args.queries, r.avg_latency,
              r.p90_latency, r.makespan, r.num_actions,
              1000.0 * r.scheduler_wall_seconds);
  return 0;
}

int RunCompare(const Args& args) {
  SimEngineConfig ecfg;
  ecfg.num_threads = args.threads;
  ecfg.seed = args.seed;
  SimEngine engine(ecfg);
  const auto workload = EvalWorkload(args);

  LSchedModel model(DefaultConfig());
  const bool have_model =
      !args.model_path.empty() && model.Load(args.model_path).ok();
  LSchedAgent lsched(&model);
  FifoScheduler fifo;
  FairScheduler fair;
  SjfScheduler sjf;
  QuickstepScheduler quickstep;
  CriticalPathScheduler cp;
  SelfTuneScheduler selftune;

  std::printf("%s %s x%d queries, %d threads:\n",
              BenchmarkName(args.benchmark),
              args.batch ? "batch" : "streaming", args.queries, args.threads);
  std::printf("%-12s %10s %10s %10s\n", "scheduler", "avg(s)", "p90(s)",
              "makespan");
  std::vector<std::pair<std::string, Scheduler*>> all;
  if (have_model) all.push_back({"LSched", &lsched});
  all.insert(all.end(), {{"Fair", &fair},
                         {"SJF", &sjf},
                         {"Quickstep", &quickstep},
                         {"SelfTune", &selftune},
                         {"CriticalPath", &cp},
                         {"FIFO", &fifo}});
  for (auto& [name, sched] : all) {
    const EpisodeResult r = engine.Run(workload, sched);
    std::printf("%-12s %10.3f %10.3f %10.3f\n", name.c_str(), r.avg_latency,
                r.p90_latency, r.makespan);
  }
  if (!have_model) {
    std::printf("(pass --model=PATH to include a trained LSched policy)\n");
  }
  return 0;
}

// ---------------------------------------------------------------------------
// report: offline rendering of the training telemetry stream and the
// prediction-drift picture, from the files the env exporters write
// (LSCHED_SCALAR_EVENTS → JSONL, LSCHED_DECISION_LOG → CSV).
// ---------------------------------------------------------------------------

// Compresses a series into a fixed-width ASCII strip chart: each column is
// the mean of its bucket, mapped onto nine density levels.
std::string Sparkline(const std::vector<double>& values, int width = 48) {
  static const char kLevels[] = " .:-=+*#%";
  const int num_levels = static_cast<int>(sizeof(kLevels)) - 2;
  if (values.empty()) return "";
  const int cols = std::min<int>(width, static_cast<int>(values.size()));
  std::vector<double> bucketed(cols, 0.0);
  std::vector<int> counts(cols, 0);
  for (size_t i = 0; i < values.size(); ++i) {
    if (!std::isfinite(values[i])) continue;
    const int c = static_cast<int>(i * cols / values.size());
    bucketed[c] += values[i];
    ++counts[c];
  }
  double lo = 0.0, hi = 0.0;
  bool any = false;
  for (int c = 0; c < cols; ++c) {
    if (counts[c] == 0) continue;
    bucketed[c] /= counts[c];
    if (!any || bucketed[c] < lo) lo = bucketed[c];
    if (!any || bucketed[c] > hi) hi = bucketed[c];
    any = true;
  }
  if (!any) return std::string(cols, '?');
  const double span = hi > lo ? hi - lo : 1.0;
  std::string out(cols, ' ');
  for (int c = 0; c < cols; ++c) {
    if (counts[c] == 0) continue;
    const int level =
        static_cast<int>((bucketed[c] - lo) / span * num_levels + 0.5);
    out[c] = kLevels[std::max(0, std::min(num_levels, level))];
  }
  return out;
}

int ReportEvents(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open events file: %s\n", path.c_str());
    return 1;
  }
  std::vector<obs::ScalarEvent> events;
  if (!obs::ParseScalarEventsJsonl(in, &events)) {
    std::fprintf(stderr, "malformed events file: %s\n", path.c_str());
    return 1;
  }
  // Group by tag in file (= append) order; std::map gives a stable listing.
  std::map<std::string, std::vector<double>> series;
  for (const obs::ScalarEvent& e : events) series[e.tag].push_back(e.value);
  std::printf("== learning curves: %s (%zu events, %zu tags) ==\n",
              path.c_str(), events.size(), series.size());
  std::printf("%-28s %6s %12s %12s %12s %12s\n", "tag", "n", "first", "last",
              "min", "max");
  for (const auto& [tag, values] : series) {
    double lo = values.front(), hi = values.front();
    for (double v : values) {
      if (std::isfinite(v)) {
        lo = std::min(lo, v);
        hi = std::max(hi, v);
      }
    }
    std::printf("%-28s %6zu %12.4g %12.4g %12.4g %12.4g\n", tag.c_str(),
                values.size(), values.front(), values.back(), lo, hi);
    if (values.size() > 1) {
      std::printf("  [%s]\n", Sparkline(values).c_str());
    }
  }
  return 0;
}

int ReportDecisions(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open decisions file: %s\n", path.c_str());
    return 1;
  }
  std::vector<obs::DecisionRecord> records;
  if (!obs::ParseDecisionCsv(in, &records)) {
    std::fprintf(stderr, "malformed decision CSV: %s\n", path.c_str());
    return 1;
  }
  // Offline we have the whole stream, so quantiles are exact (sorted), and
  // a DriftMonitor replay reproduces the online Page-Hinkley score the
  // serving process would have seen for this log.
  struct OpStats {
    std::vector<double> errors;
  };
  std::map<std::string, OpStats> by_op;
  obs::DriftConfig dcfg;
  dcfg.export_gauges = false;
  obs::DriftMonitor replay(dcfg);
  int64_t usable = 0;
  for (const obs::DecisionRecord& r : records) {
    if (!std::isfinite(r.predicted_score) || r.realized_seconds <= 0.0) {
      continue;
    }
    ++usable;
    const std::string key = r.op_type.empty() ? "unknown" : r.op_type;
    by_op[key].errors.push_back(r.predicted_score - r.realized_seconds);
    replay.ObserveRecord(r);
  }
  std::printf("== prediction drift: %s (%zu decisions, %lld scored) ==\n",
              path.c_str(), records.size(), static_cast<long long>(usable));
  if (usable == 0) {
    std::printf("(no decisions carry both a predicted score and realized "
                "cost; nothing to analyze)\n");
    return 0;
  }
  std::printf("%-16s %8s %12s %12s %12s\n", "op_type", "n", "err_mean",
              "err_p50", "err_p99");
  auto quantile = [](std::vector<double>& v, double q) {
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const size_t i = static_cast<size_t>(pos);
    const double frac = pos - static_cast<double>(i);
    return i + 1 < v.size() ? v[i] * (1.0 - frac) + v[i + 1] * frac : v[i];
  };
  for (auto& [op, stats] : by_op) {
    double mean = 0.0;
    for (double e : stats.errors) mean += e;
    mean /= static_cast<double>(stats.errors.size());
    std::printf("%-16s %8zu %12.4g %12.4g %12.4g\n", op.c_str(),
                stats.errors.size(), mean, quantile(stats.errors, 0.5),
                quantile(stats.errors, 0.99));
  }
  std::printf("drift score (Page-Hinkley / lambda): %.3f%s\n",
              replay.drift_score(),
              replay.alarmed() ? "  ** drift alarm fired during replay **"
                               : "");
  return 0;
}

int RunReport(const Args& args) {
  if (args.events_path.empty() && args.decisions_path.empty()) {
    std::fprintf(stderr,
                 "report requires --events=PATH and/or --decisions=PATH\n");
    return 2;
  }
  int rc = 0;
  if (!args.events_path.empty()) {
    rc = ReportEvents(args.events_path);
  }
  if (!args.decisions_path.empty()) {
    if (!args.events_path.empty()) std::printf("\n");
    const int rc2 = ReportDecisions(args.decisions_path);
    if (rc == 0) rc = rc2;
  }
  return rc;
}

// ---------------------------------------------------------------------------
// chaos: a seeded soak over fuzzed workloads with fuzzed fault/cancellation
// scripts (DESIGN.md §10). Each iteration runs the script through the
// SimEngine twice (byte-identical replay check), then through the RealEngine
// (real threads, real kernels), with a ValidatingScheduler wrapped around a
// GuardedPolicy so every snapshot, decision, and episode invariant is
// checked while the guard's fallback path stays hot. On the first violation
// the decision log and fault log are dumped for offline triage; exit 1.
// ---------------------------------------------------------------------------

int ChaosFail(const Args& args, uint64_t seed, const std::string& what) {
  std::fprintf(stderr, "chaos: workload seed %llu FAILED: %s\n",
               static_cast<unsigned long long>(seed), what.c_str());
  const std::string decisions_path =
      args.decisions_path.empty() ? "chaos_decisions.csv" : args.decisions_path;
  if (obs::DecisionLog::Global().WriteCsv(decisions_path)) {
    std::fprintf(stderr, "chaos: decision log dumped to %s\n",
                 decisions_path.c_str());
  }
  if (FaultInjector::Global().WriteLog(args.fault_log_path)) {
    std::fprintf(stderr, "chaos: fault log dumped to %s\n",
                 args.fault_log_path.c_str());
  }
  FaultInjector::Global().Clear();
  return 1;
}

/// Reports an unknown --scenario= value alongside the preset list. An empty
/// name (scenario mode off) passes.
bool CheckScenarioName(const std::string& name) {
  if (name.empty() || ScenarioByName(name).has_value()) return true;
  std::string have;
  for (const std::string& n : ScenarioNames()) {
    if (!have.empty()) have += ", ";
    have += n;
  }
  std::fprintf(stderr, "unknown scenario '%s' (have: %s)\n", name.c_str(),
               have.c_str());
  return false;
}

/// Highest simultaneous logical pool size a run reaches: the base thread
/// count plus the running maximum of the elasticity deltas.
int PeakPool(int base, const std::vector<ThreadPoolEvent>& events) {
  std::vector<ThreadPoolEvent> sorted = events;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const ThreadPoolEvent& a, const ThreadPoolEvent& b) {
                     return a.time < b.time;
                   });
  int running = base;
  int peak = base;
  for (const ThreadPoolEvent& e : sorted) {
    running += e.delta;
    peak = std::max(peak, running);
  }
  return std::max(peak, base);
}

int RunChaos(const Args& args) {
  if (!CheckScenarioName(args.scenario)) return 2;
  FuzzerOptions fopts;
  fopts.chaos = true;
  fopts.min_queries = 6;
  fopts.max_queries = 16;
  fopts.scenario = args.scenario;
  const int sim_threads = std::max(1, args.threads);
  const int real_threads = std::max(1, std::min(args.threads, 8));

  Stopwatch clock;
  int iterations = 0;
  int64_t fallbacks = 0;
  int64_t fires = 0;
  while ((args.workloads == 0 || iterations < args.workloads) &&
         clock.ElapsedSeconds() < args.duration_seconds) {
    const uint64_t seed =
        args.seed + static_cast<uint64_t>(iterations) * 0x9e3779b97f4a7c15ULL;
    WorkloadFuzzer fuzzer(seed, fopts);
    FuzzedWorkload w = fuzzer.NextWorkload();
    // Sporadic scheduler failures on top of the fuzzed script keep the
    // guard's fallback/recovery machinery exercised every iteration.
    FaultRule decide;
    decide.point = "policy_decide";
    decide.probability = 0.05;
    decide.action = {FaultType::kError, 0.0};
    w.faults.rules.push_back(decide);
    const size_t num_queries = w.sim_queries.size();

    auto check = [&](const EpisodeResult& r, const ValidatingScheduler& v,
                     int pool_size, const char* engine) -> std::string {
      if (!v.violations().empty()) {
        return std::string(engine) + ": " + v.violations().front();
      }
      const Status st = ValidateEpisodeResult(r, num_queries, pool_size);
      if (!st.ok()) return std::string(engine) + ": " + st.ToString();
      if (r.final_statuses.size() != num_queries) {
        return std::string(engine) + ": missing final statuses";
      }
      for (size_t qi = 0; qi < num_queries; ++qi) {
        if (r.final_statuses[qi] != w.expected_statuses[qi]) {
          return std::string(engine) + ": query " + std::to_string(qi) +
                 " ended " + QueryStatusName(r.final_statuses[qi]) +
                 ", script demands " +
                 QueryStatusName(w.expected_statuses[qi]);
        }
      }
      return "";
    };

    // Two identically seeded simulator runs: the fault schedule is
    // reinstalled before each (resetting rule RNGs and counters), so the
    // episodes must replay byte-for-byte.
    SimEngineConfig scfg;
    scfg.num_threads = sim_threads;
    scfg.seed = seed;
    scfg.cancels = w.cancels;
    scfg.thread_events = w.sim_thread_events;  // scenario elasticity
    const int sim_pool = PeakPool(sim_threads, w.sim_thread_events);
    EpisodeResult sim[2];
    for (int rep = 0; rep < 2; ++rep) {
      FaultInjector::Global().Install(w.faults);
      SjfScheduler sjf;
      GuardedPolicy guarded(&sjf);
      ValidatingScheduler validating(&guarded);
      SimEngine engine(scfg);
      sim[rep] = engine.Run(w.sim_queries, &validating);
      fallbacks += guarded.fallback_count();
      fires += FaultInjector::Global().total_fires();
      const std::string err = check(sim[rep], validating, sim_pool, "sim");
      if (!err.empty()) return ChaosFail(args, seed, err);
    }
    const std::string diff = DiffEpisodeResults(sim[0], sim[1]);
    if (!diff.empty()) {
      return ChaosFail(args, seed, "sim replay diverged: " + diff);
    }

    // Same script against real threads and real kernels: terminal statuses
    // are scripted, so they must agree with the simulator's.
    {
      FaultInjector::Global().Install(w.faults);
      RealEngineConfig rcfg;
      rcfg.num_threads = real_threads;
      rcfg.cancels = w.cancels;
      rcfg.thread_events = w.real_thread_events;  // scenario elasticity
      SjfScheduler sjf;
      GuardedPolicy guarded(&sjf);
      ValidatingScheduler validating(&guarded);
      RealEngine engine(w.catalog.get(), rcfg);
      const RealRunResult rr = engine.Run(w.real_queries, &validating);
      fallbacks += guarded.fallback_count();
      fires += FaultInjector::Global().total_fires();
      const std::string err =
          check(rr.episode, validating,
                PeakPool(real_threads, w.real_thread_events), "real");
      if (!err.empty()) return ChaosFail(args, seed, err);
    }
    FaultInjector::Global().Clear();
    ++iterations;
  }

  std::printf("chaos: %d workloads clean in %.1fs (%lld faults fired, "
              "%lld guard fallbacks)\n",
              iterations, clock.ElapsedSeconds(),
              static_cast<long long>(fires),
              static_cast<long long>(fallbacks));
  if (iterations > 0 && fallbacks == 0) {
    std::fprintf(stderr,
                 "chaos: guard fallback path never exercised — the soak "
                 "did not test what it claims to\n");
    return 1;
  }
  return 0;
}

int RunExplain(const Args& args) {
  // Replay a dumped lifetime trace (serve --trace-out= / LSCHED_QUERY_TRACE)
  // into a human-readable timeline attributing each wait segment to the
  // serving decision that caused it. Pure offline tooling: works on traces
  // produced by any engine.
  if (args.trace_path.empty()) {
    std::fprintf(stderr, "explain: --trace=PATH is required\n");
    return 2;
  }
  std::ifstream in(args.trace_path);
  if (!in) {
    std::fprintf(stderr, "explain: cannot open %s\n",
                 args.trace_path.c_str());
    return 1;
  }
  std::vector<obs::QueryTraceRecord> records;
  if (!obs::ParseQueryTraceCsv(in, &records)) {
    std::fprintf(stderr, "explain: malformed trace CSV %s\n",
                 args.trace_path.c_str());
    return 1;
  }
  if (args.explain_query < 0) {
    // No query named: list what the trace holds so the user can pick one.
    std::printf("%s: %zu query traces\n", args.trace_path.c_str(),
                records.size());
    std::printf("%8s %6s %8s %10s %8s %6s\n", "query", "tenant", "status",
                "latency_s", "edges", "drops");
    for (const obs::QueryTraceRecord& r : records) {
      std::printf("%8lld %6d %8s %10.4f %8zu %6lld\n",
                  static_cast<long long>(r.query), r.tenant,
                  QueryStatusName(static_cast<QueryStatus>(r.final_status)),
                  r.terminal_time - r.arrival_time, r.edges.size(),
                  static_cast<long long>(r.dropped_edges));
    }
    return 0;
  }
  // Most recent record wins when the ring saw the id more than once.
  const obs::QueryTraceRecord* found = nullptr;
  for (const obs::QueryTraceRecord& r : records) {
    if (r.query == args.explain_query) found = &r;
  }
  if (found == nullptr) {
    std::fprintf(stderr,
                 "explain: query %lld not in %s (%zu traces retained; the "
                 "log is a bounded ring — rerun with a larger capture or "
                 "explain a later query)\n",
                 static_cast<long long>(args.explain_query),
                 args.trace_path.c_str(), records.size());
    return 1;
  }
  std::fputs(obs::RenderExplain(*found).c_str(), stdout);
  return 0;
}

// ---------------------------------------------------------------------------
// top: live worker-state utilization against a running daemon's /metrics
// (one-shot or --watch refresh), or an offline summary of a sampling-
// profiler CSV (--profile=). Plain POSIX sockets against the daemon's
// exporter.
// ---------------------------------------------------------------------------

std::string TopHttpGet(int port, const std::string& target) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return "";
  }
  const std::string req = "GET " + target + " HTTP/1.0\r\n\r\n";
  (void)::send(fd, req.data(), req.size(), 0);
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  const size_t hdr = response.find("\r\n\r\n");
  return hdr == std::string::npos ? "" : response.substr(hdr + 4);
}

struct TopSnapshot {
  bool ok = false;
  // worker id -> cumulative seconds per state (accountant gauge order).
  std::map<int, std::array<double, prof::kNumWorkerStates>> workers;
  double overhead_fraction = -1.0;
};

TopSnapshot ScrapeTop(int port) {
  TopSnapshot snap;
  const std::string body = TopHttpGet(port, "/metrics");
  if (body.empty()) return snap;
  snap.ok = true;
  std::istringstream is(body);
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t sp = line.find(' ');
    if (sp == std::string::npos) continue;
    const std::string name = line.substr(0, sp);
    const double value = std::atof(line.c_str() + sp + 1);
    if (name == "exec_sched_overhead_fraction") {
      snap.overhead_fraction = value;
      continue;
    }
    // exec_worker<i>_<state>_seconds (obs::PrometheusName of the
    // EpisodeRecorder's exec.worker<i>.<state>_seconds gauges).
    if (name.rfind("exec_worker", 0) != 0) continue;
    const char* p = name.c_str() + std::strlen("exec_worker");
    char* end = nullptr;
    const long worker = std::strtol(p, &end, 10);
    if (end == p || *end != '_') continue;
    const std::string rest(end + 1);
    for (int s = 0; s < prof::kNumWorkerStates; ++s) {
      const std::string want =
          std::string(
              prof::WorkerStateName(static_cast<prof::WorkerState>(s))) +
          "_seconds";
      if (rest == want) {
        snap.workers[static_cast<int>(worker)][static_cast<size_t>(s)] =
            value;
        break;
      }
    }
  }
  return snap;
}

/// Renders one top frame. With a previous snapshot, percentages are over
/// the interval delta (live utilization); without one, over the cumulative
/// buckets since the episode started.
std::string RenderTop(const TopSnapshot& cur, const TopSnapshot* prev) {
  std::ostringstream os;
  char buf[192];
  std::snprintf(buf, sizeof(buf), "%-6s %9s %9s %6s %8s %9s %9s\n", "worker",
                "dispatch%", "execute%", "idle%", "stalled%", "draining%",
                "wall_s");
  os << buf;
  double busy = 0.0, wall = 0.0;
  for (const auto& [worker, seconds] : cur.workers) {
    std::array<double, prof::kNumWorkerStates> delta = seconds;
    if (prev != nullptr) {
      const auto it = prev->workers.find(worker);
      if (it != prev->workers.end()) {
        for (int s = 0; s < prof::kNumWorkerStates; ++s) {
          delta[static_cast<size_t>(s)] -= it->second[static_cast<size_t>(s)];
        }
      }
    }
    double total = 0.0;
    for (double d : delta) total += d;
    if (total <= 0.0) continue;
    const double inv = 100.0 / total;
    std::snprintf(buf, sizeof(buf),
                  "%-6d %9.1f %9.1f %6.1f %8.1f %9.1f %9.3f\n", worker,
                  delta[0] * inv, delta[1] * inv, delta[2] * inv,
                  delta[3] * inv, delta[4] * inv, total);
    os << buf;
    busy += delta[1];
    wall += total;
  }
  if (wall > 0.0) {
    std::snprintf(buf, sizeof(buf), "pool executing: %.1f%% of %.3fs %s\n",
                  100.0 * busy / wall, wall,
                  prev != nullptr ? "(interval)" : "(cumulative)");
    os << buf;
  }
  if (cur.overhead_fraction >= 0.0) {
    std::snprintf(buf, sizeof(buf), "scheduler overhead fraction: %.4f%%\n",
                  100.0 * cur.overhead_fraction);
    os << buf;
  }
  return os.str();
}

int RunTop(const Args& args) {
  if (!args.profile_path.empty()) {
    // Offline mode: summarize a sampling-profiler CSV.
    std::ifstream in(args.profile_path);
    if (!in) {
      std::fprintf(stderr, "top: cannot open %s\n", args.profile_path.c_str());
      return 1;
    }
    std::ostringstream text;
    text << in.rdbuf();
    std::vector<prof::ProfileSample> samples;
    if (!prof::ParseProfileCsv(text.str(), &samples)) {
      std::fprintf(stderr, "top: malformed profile CSV %s\n",
                   args.profile_path.c_str());
      return 1;
    }
    std::fputs(prof::RenderProfileSummary(samples).c_str(), stdout);
    return 0;
  }
  if (args.metrics_port < 0) {
    std::fprintf(stderr,
                 "top: --metrics-port=P (a running daemon's exporter port) "
                 "or --profile=CSV is required\n");
    return 2;
  }
  TopSnapshot cur = ScrapeTop(args.metrics_port);
  if (!cur.ok) {
    std::fprintf(stderr, "top: no /metrics at 127.0.0.1:%d\n",
                 args.metrics_port);
    return 1;
  }
  if (!args.watch) {
    std::fputs(RenderTop(cur, nullptr).c_str(), stdout);
    return 0;
  }
  // Live refresh: interval deltas, until the daemon goes away or ^C.
  TopSnapshot prev = cur;
  for (;;) {
    std::this_thread::sleep_for(std::chrono::milliseconds(args.interval_ms));
    cur = ScrapeTop(args.metrics_port);
    if (!cur.ok) {
      std::fprintf(stderr, "top: daemon went away\n");
      return 0;
    }
    // ANSI clear-screen + home keeps the frame in place like top(1).
    std::fputs("\x1b[2J\x1b[H", stdout);
    std::printf("lsched top — 127.0.0.1:%d (refresh %dms)\n",
                args.metrics_port, args.interval_ms);
    std::fputs(RenderTop(cur, &prev).c_str(), stdout);
    std::fflush(stdout);
    prev = cur;
  }
}

int RunVersion() {
  std::printf("lsched_cli %s\n", buildinfo::kGitSha);
  std::printf("  compiler   : %s\n", buildinfo::kCompiler);
  std::printf("  build type : %s\n", buildinfo::kBuildType);
  return 0;
}

int RunServe(const Args& args) {
  // A live multi-tenant serving soak: start the daemon against real worker
  // threads, feed it a seeded Poisson arrival stream with fuzzed tenant and
  // priority tags (plus sporadic cancels) for the duration budget, then
  // drain gracefully and audit conservation — every accepted submission
  // must reach exactly one terminal state and the per-tenant ledgers must
  // sum back to the stream totals.
  if (!CheckScenarioName(args.scenario)) return 2;
  std::optional<ScenarioSpec> scenario;
  if (!args.scenario.empty()) scenario = ScenarioByName(args.scenario);
  // Scenario presets are authored at their own base rate; map that onto the
  // wall clock so the preset's base rate lands on 1/--interarrival-ms and
  // the traffic shape (bursts, diurnal swing) stretches accordingly.
  const double time_scale =
      scenario ? args.interarrival * scenario->rate.base_rate : 1.0;
  FuzzerOptions fopts;
  fopts.num_tenants = std::max(1, args.tenants);
  fopts.high_priority_fraction = 0.15;
  fopts.low_priority_fraction = 0.25;
  WorkloadFuzzer fuzzer(args.seed, fopts);
  const auto catalog = fuzzer.FuzzCatalog();
  std::vector<QueryPlan> plans;
  for (int i = 0; i < 8; ++i) plans.push_back(fuzzer.FuzzPlan(*catalog));

  ServingDaemonConfig cfg;
  cfg.policy.max_live_queries = args.max_live;
  for (int t = 0; t < fopts.num_tenants; ++t) {
    cfg.policy.tenant_weights.push_back({t, 1.0 + t});
  }
  cfg.real.num_threads = std::max(1, std::min(args.threads, 8));
  cfg.real.flush_window_queries = 8;
  if (scenario) {
    // Elasticity rides along: the preset's pool events, rescaled to wall
    // seconds, fire once during the soak (ServeLoop applies due events).
    cfg.real.thread_events =
        ScaleThreadEvents(scenario->thread_events, time_scale);
  }
  if (args.slo_ms > 0.0) {
    TenantSlo slo;
    slo.target_seconds = args.slo_ms / 1000.0;
    slo.percentile = args.slo_percentile;
    for (int t = 0; t < fopts.num_tenants; ++t) {
      cfg.policy.tenant_slos.push_back({t, slo});
    }
  }
  if (!args.trace_out_path.empty()) {
    obs::SetEnabled(true);  // trace capture needs the obs runtime on
  }

  obs::MetricsExporter exporter;
  if (args.metrics_port >= 0) {
    if (exporter.Start(args.metrics_port)) {
      std::fprintf(stderr, "serve: metrics on 127.0.0.1:%d/metrics\n",
                   exporter.port());
    } else {
      std::fprintf(stderr, "serve: metrics exporter failed to start on "
                   "port %d\n", args.metrics_port);
    }
  }

  // Sampling profiler: the RealEngine registers its worker accountants on
  // Start(), and the profiler snapshots their states at --profile-hz into
  // a bounded ring dumped as CSV on drain (the input of `top --profile=`).
  bool profiling = false;
  if (args.profile_hz > 0.0) {
    obs::SetEnabled(true);
    profiling = prof::SamplingProfiler::Global().Start(args.profile_hz);
    if (!profiling) {
      std::fprintf(stderr, "serve: sampling profiler failed to start\n");
    }
  }

  SjfScheduler sjf;
  GuardedPolicy guarded(&sjf);
  ValidatingScheduler validating(&guarded);
  ServingDaemon daemon(cfg);
  daemon.Start(catalog.get(), &validating);

  Rng rng(args.seed ^ 0x5eedf00dULL);
  Stopwatch clock;
  int64_t submitted = 0;
  int64_t cancels_sent = 0;
  QueryId last_id = kInvalidQuery;
  // Scenario presets describe a few seconds of traffic shape; cycle that
  // window for the whole soak so a long run sees the pattern repeatedly.
  constexpr double kScenarioCycleSeconds = 4.0;
  while (clock.ElapsedSeconds() < args.duration_seconds) {
    double gap;
    if (scenario) {
      // Lewis-Shedler thinning against the preset's rate curve, evaluated
      // in scenario time (wall time / time_scale) modulo the cycle window.
      const double lambda_max = scenario->rate.MaxRate();
      double t = clock.ElapsedSeconds() / time_scale;
      gap = 0.0;
      do {
        const double step = rng.Exponential(1.0 / lambda_max);
        t += step;
        gap += step * time_scale;
      } while (gap < args.duration_seconds &&
               rng.Uniform() * lambda_max >
                   scenario->rate.RateAt(
                       std::fmod(t, kScenarioCycleSeconds)));
    } else {
      gap = rng.Exponential(args.interarrival);
    }
    const double remaining = args.duration_seconds - clock.ElapsedSeconds();
    if (remaining <= 0.0) break;
    std::this_thread::sleep_for(
        std::chrono::duration<double>(std::min(gap, remaining)));
    const QueryPlan& plan =
        plans[rng.UniformInt(static_cast<uint64_t>(plans.size()))];
    const QueryId id = daemon.Submit(plan, fuzzer.FuzzTag());
    if (id == kInvalidQuery) break;  // ingress closed (should not happen)
    last_id = id;
    ++submitted;
    if (rng.Uniform() < 0.05) {
      daemon.Cancel(static_cast<QueryId>(
          rng.UniformInt(static_cast<int64_t>(0), last_id)));
      ++cancels_sent;
    }
  }

  const RealRunResult result = daemon.Stop();
  exporter.Stop();
  if (profiling) {
    auto& profiler = prof::SamplingProfiler::Global();
    profiler.Stop();
    const auto samples = profiler.Snapshot();
    if (profiler.WriteCsv(args.profile_out_path)) {
      std::fprintf(stderr, "serve: %zu profile samples (%lld dropped) -> %s\n",
                   samples.size(),
                   static_cast<long long>(profiler.dropped()),
                   args.profile_out_path.c_str());
    } else {
      std::fprintf(stderr, "serve: cannot write profile CSV %s\n",
                   args.profile_out_path.c_str());
    }
    std::fputs(prof::RenderProfileSummary(samples).c_str(), stdout);
    prof::RegisterDefaultCounterTables();
    std::fputs(prof::CounterTables::Global().Render().c_str(), stdout);
  }
  if (!args.trace_out_path.empty()) {
    if (obs::QueryTraceLog::Global().WriteCsv(args.trace_out_path)) {
      std::fprintf(stderr, "serve: %zu query traces -> %s\n",
                   obs::QueryTraceLog::Global().size(),
                   args.trace_out_path.c_str());
    } else {
      std::fprintf(stderr, "serve: cannot write trace CSV %s\n",
                   args.trace_out_path.c_str());
    }
  }
  const EpisodeResult& e = result.episode;

  auto fail = [&](const std::string& why) {
    std::fprintf(stderr, "serve: FAILED after %lld submissions: %s\n",
                 static_cast<long long>(submitted), why.c_str());
    return 1;
  };
  if (!validating.violations().empty()) {
    return fail("scheduler contract: " + validating.violations().front());
  }
  const Status st =
      ValidateEpisodeResult(e, static_cast<size_t>(submitted),
                            PeakPool(cfg.real.num_threads,
                                     cfg.real.thread_events));
  if (!st.ok()) return fail(st.ToString());
  if (e.final_statuses.size() != static_cast<size_t>(submitted)) {
    return fail("missing final statuses");
  }
  for (QueryStatus s : e.final_statuses) {
    if (!IsTerminalStatus(s)) return fail("non-terminal final status");
  }
  const int64_t terminal = static_cast<int64_t>(e.query_latencies.size()) +
                           e.num_queries_cancelled + e.num_queries_failed +
                           e.num_queries_shed;
  if (terminal != submitted) {
    return fail("terminal conservation: " + std::to_string(terminal) +
                " != " + std::to_string(submitted));
  }
  int64_t arrived = 0, tenant_terminal = 0;
  std::printf(
      "tenant  weight  arrived admitted complete cancel fail shed "
      "service_s    p50_s    p99_s     burn\n");
  for (TenantId t : daemon.tenants().ids()) {
    const TenantStats* s = daemon.tenants().stats(t);
    arrived += s->arrived;
    tenant_terminal += s->Terminal();
    std::printf("%6d %7.1f %8lld %8lld %8lld %6lld %4lld %4lld %9.3f %8.4f "
                "%8.4f %8.3f\n",
                t, daemon.tenants().weight(t),
                static_cast<long long>(s->arrived),
                static_cast<long long>(s->admitted),
                static_cast<long long>(s->completed),
                static_cast<long long>(s->cancelled),
                static_cast<long long>(s->failed),
                static_cast<long long>(s->shed), s->service_seconds,
                s->latency_p50.Value(), s->latency_p99.Value(),
                s->BurnRate());
  }
  if (arrived != submitted) {
    return fail("per-tenant arrivals: " + std::to_string(arrived) + " != " +
                std::to_string(submitted));
  }
  if (tenant_terminal != submitted) {
    return fail("per-tenant terminals: " + std::to_string(tenant_terminal) +
                " != " + std::to_string(submitted));
  }
  std::printf(
      "serve: %lld queries in %.1fs clean drain (%lld completed, %lld "
      "cancelled, %lld failed, %lld shed; %lld cancel requests, %lld door "
      "sheds, %lld displacements)\n",
      static_cast<long long>(submitted), clock.ElapsedSeconds(),
      static_cast<long long>(e.query_latencies.size()),
      static_cast<long long>(e.num_queries_cancelled),
      static_cast<long long>(e.num_queries_failed),
      static_cast<long long>(e.num_queries_shed),
      static_cast<long long>(cancels_sent),
      static_cast<long long>(daemon.policy().num_shed()),
      static_cast<long long>(daemon.policy().num_displacements()));
  return 0;
}

}  // namespace
}  // namespace lsched

int main(int argc, char** argv) {
  lsched::Args args;
  if (!lsched::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s train|eval|compare|report|chaos|serve|explain|"
                 "top|--version "
                 "[--benchmark=tpch|ssb|job] "
                 "[--episodes=N] [--queries=N] [--threads=N] [--batch] "
                 "[--model=PATH] [--out=PATH] [--transfer-from=PATH] "
                 "[--events=PATH] [--decisions=PATH] [--duration-seconds=S] "
                 "[--workloads=N] [--scenario=NAME] [--fault-log=PATH] "
                 "[--tenants=N] "
                 "[--max-live=N] [--metrics-port=P] [--slo-ms=N] "
                 "[--slo-percentile=F] [--trace-out=PATH] "
                 "[--trace=PATH] [--profile-hz=F] [--profile-out=PATH] "
                 "[--profile=PATH] [--watch] [--interval-ms=N] [query-id]\n",
                 argv[0]);
    return 2;
  }
  if (args.command == "--version" || args.command == "version") {
    return lsched::RunVersion();
  }
  if (args.command == "train") return lsched::RunTrain(args);
  if (args.command == "eval") return lsched::RunEval(args);
  if (args.command == "compare") return lsched::RunCompare(args);
  if (args.command == "report") return lsched::RunReport(args);
  if (args.command == "chaos") return lsched::RunChaos(args);
  if (args.command == "serve") return lsched::RunServe(args);
  if (args.command == "explain") return lsched::RunExplain(args);
  if (args.command == "top") return lsched::RunTop(args);
  std::fprintf(stderr, "unknown command: %s\n", args.command.c_str());
  return 2;
}
