#include "testing/differential.h"

#include <cmath>
#include <sstream>
#include <utility>

#include "core/agent.h"
#include "core/model.h"
#include "exec/real_engine.h"
#include "exec/sim_engine.h"
#include "sched/decima.h"
#include "sched/heuristics.h"
#include "sched/selftune.h"
#include "testing/faultpoint.h"
#include "testing/invariants.h"
#include "testing/oracle.h"
#include "util/logging.h"

namespace lsched {

namespace {

/// Scheduler that owns the model its agent reads from (factories must
/// return self-contained objects).
class OwningLSchedScheduler : public Scheduler {
 public:
  OwningLSchedScheduler() : model_(TinyConfig()), agent_(&model_) {}

  std::string name() const override { return agent_.name(); }
  void Reset() override { agent_.Reset(); }
  SchedulingDecision Schedule(const SchedulingEvent& event,
                              const SchedulingContext& ctx) override {
    return agent_.Schedule(event, ctx);
  }
  void OnQueryCompleted(QueryId query, double latency) override {
    agent_.OnQueryCompleted(query, latency);
  }

 private:
  static LSchedConfig TinyConfig() {
    LSchedConfig config;
    config.hidden_dim = 8;
    config.summary_dim = 8;
    config.head_hidden = 8;
    return config;
  }

  LSchedModel model_;
  LSchedAgent agent_;
};

class OwningDecimaScheduler : public Scheduler {
 public:
  OwningDecimaScheduler() : model_(TinyConfig()), agent_(&model_) {}

  std::string name() const override { return agent_.name(); }
  void Reset() override { agent_.Reset(); }
  SchedulingDecision Schedule(const SchedulingEvent& event,
                              const SchedulingContext& ctx) override {
    return agent_.Schedule(event, ctx);
  }
  void OnQueryCompleted(QueryId query, double latency) override {
    agent_.OnQueryCompleted(query, latency);
  }

 private:
  static DecimaConfig TinyConfig() {
    DecimaConfig config;
    config.hidden_dim = 8;
    config.summary_dim = 8;
    config.head_hidden = 8;
    return config;
  }

  DecimaModel model_;
  DecimaScheduler agent_;
};

bool ChecksumsMatch(double oracle, double engine) {
  const double tol = std::max(1e-6, 1e-9 * std::abs(oracle));
  return std::abs(oracle - engine) <= tol;
}

/// Compares an engine run's terminal statuses against the chaos script's
/// expectations. Returns mismatch descriptions (empty = all as scripted).
std::vector<std::string> DiffTerminalStatuses(
    const std::vector<QueryStatus>& expected,
    const std::vector<QueryStatus>& actual) {
  std::vector<std::string> out;
  if (actual.size() != expected.size()) {
    out.push_back("final_statuses has " + std::to_string(actual.size()) +
                  " entries, chaos script expects " +
                  std::to_string(expected.size()));
    return out;
  }
  for (size_t i = 0; i < expected.size(); ++i) {
    if (actual[i] != expected[i]) {
      out.push_back("query " + std::to_string(i) + " terminated " +
                    QueryStatusName(actual[i]) + ", chaos script expects " +
                    QueryStatusName(expected[i]));
    }
  }
  return out;
}

}  // namespace

std::vector<NamedSchedulerFactory> HeuristicSchedulerFactories() {
  return {
      {"FIFO", [] { return std::make_unique<FifoScheduler>(); }},
      {"Fair", [] { return std::make_unique<FairScheduler>(); }},
      {"SJF", [] { return std::make_unique<SjfScheduler>(); }},
      {"HPF", [] { return std::make_unique<HpfScheduler>(); }},
      {"CriticalPath", [] { return std::make_unique<CriticalPathScheduler>(); }},
      {"Quickstep", [] { return std::make_unique<QuickstepScheduler>(); }},
      {"SelfTune", [] { return std::make_unique<SelfTuneScheduler>(); }},
  };
}

std::vector<NamedSchedulerFactory> LearnedSchedulerFactories() {
  return {
      {"LSched", [] { return std::make_unique<OwningLSchedScheduler>(); }},
      {"Decima", [] { return std::make_unique<OwningDecimaScheduler>(); }},
  };
}

uint64_t WorkloadSeed(uint64_t base_seed, int workload_index) {
  // splitmix64 over (base + index): independent, individually replayable
  // workload seeds.
  uint64_t z = base_seed + 0x9E3779B97F4A7C15ULL *
                               static_cast<uint64_t>(workload_index + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::string DifferentialReport::Summary() const {
  std::ostringstream out;
  out << "differential sweep: seed=" << seed << " workloads=" << workloads_run
      << " queries=" << queries_run << " real_runs=" << real_engine_runs
      << " sim_runs=" << sim_engine_runs << " mismatches=" << mismatches.size()
      << "\n";
  for (const std::string& m : mismatches) {
    out << "  MISMATCH: " << m << "\n";
  }
  out << "repro: LSCHED_FUZZ_SEED=" << seed
      << " LSCHED_FUZZ_WORKLOADS=" << workloads_run
      << " ctest -R differential_test --output-on-failure";
  return out.str();
}

DifferentialReport RunDifferential(
    uint64_t seed, int num_workloads,
    const std::vector<NamedSchedulerFactory>& factories,
    const DifferentialOptions& options) {
  DifferentialReport report;
  report.seed = seed;

  for (int wi = 0; wi < num_workloads; ++wi) {
    const uint64_t wseed = WorkloadSeed(seed, wi);
    WorkloadFuzzer fuzzer(wseed, options.fuzzer);
    FuzzedWorkload workload = fuzzer.NextWorkload();
    ++report.workloads_run;
    report.queries_run += static_cast<int>(workload.real_queries.size());

    auto add_mismatch = [&](const std::string& what) {
      std::ostringstream msg;
      msg << what << " [workload " << wi << ", workload_seed " << wseed << "]";
      LSCHED_LOG(Error) << "differential mismatch: " << msg.str();
      report.mismatches.push_back(msg.str());
    };

    // Chaos workloads carry a fault/cancel script plus the terminal status
    // every query must reach; engines run with the script installed and
    // oracle comparisons are restricted to queries expected to finish.
    const bool chaos = !workload.expected_statuses.empty();
    auto expect_done = [&](size_t qi) {
      return !chaos ||
             workload.expected_statuses[qi] == QueryStatus::kDone;
    };

    // Ground truth: oracle result per query. The oracle always runs
    // fault-free (it defines WHAT a query computes, not how it fares).
    FaultInjector::Global().Clear();
    OracleExecutor oracle(workload.catalog.get());
    std::vector<OracleQueryResult> expected;
    bool oracle_ok = true;
    for (size_t qi = 0; qi < workload.real_queries.size(); ++qi) {
      Result<OracleQueryResult> r =
          oracle.Execute(workload.real_queries[qi].plan);
      if (!r.ok()) {
        add_mismatch("oracle failed on query " + std::to_string(qi) + ": " +
                     r.status().ToString());
        oracle_ok = false;
        break;
      }
      expected.push_back(std::move(r).value());
    }
    if (!oracle_ok) continue;

    for (const NamedSchedulerFactory& factory : factories) {
      // RealEngine across thread counts: sink results must equal the
      // oracle's regardless of policy and parallelism.
      for (int threads : options.real_thread_counts) {
        std::unique_ptr<Scheduler> policy = factory.make();
        ValidatingScheduler validating(policy.get());
        RealEngineConfig config;
        config.num_threads = threads;
        config.chunk_rows = options.chunk_rows;
        config.cancels = workload.cancels;
        RealEngine engine(workload.catalog.get(), config);
        if (chaos) FaultInjector::Global().Install(workload.faults);
        RealRunResult run = engine.Run(workload.real_queries, &validating);
        FaultInjector::Global().Clear();
        ++report.real_engine_runs;

        const std::string where =
            factory.name + " x" + std::to_string(threads);
        if (run.sink_row_counts.size() != expected.size()) {
          add_mismatch(where + ": engine reported " +
                       std::to_string(run.sink_row_counts.size()) +
                       " queries, oracle " + std::to_string(expected.size()));
          continue;
        }
        for (size_t qi = 0; qi < expected.size(); ++qi) {
          if (!expect_done(qi)) continue;  // no sink for a dead query
          if (run.sink_row_counts[qi] != expected[qi].sink_rows) {
            add_mismatch(where + " query " + std::to_string(qi) +
                         ": sink rows " +
                         std::to_string(run.sink_row_counts[qi]) +
                         " != oracle " +
                         std::to_string(expected[qi].sink_rows));
          }
          if (!ChecksumsMatch(expected[qi].sink_checksum,
                              run.sink_checksums[qi])) {
            std::ostringstream msg;
            msg << where << " query " << qi << ": sink checksum "
                << run.sink_checksums[qi] << " != oracle "
                << expected[qi].sink_checksum;
            add_mismatch(msg.str());
          }
        }
        if (chaos) {
          for (const std::string& d : DiffTerminalStatuses(
                   workload.expected_statuses, run.episode.final_statuses)) {
            add_mismatch(where + ": " + d);
          }
        }
        for (const std::string& v : validating.violations()) {
          add_mismatch(where + ": " + v);
        }
        Status episode_ok = ValidateEpisodeResult(
            run.episode, workload.real_queries.size(), threads);
        if (!episode_ok.ok()) {
          add_mismatch(where + ": " + episode_ok.ToString());
        }
      }

      // SimEngine: run the exact same plans twice under a fresh scheduler
      // each time; the telemetry must be byte-identical (determinism) and
      // satisfy the episode invariants.
      if (options.run_sim) {
        EpisodeResult episodes[2];
        bool sim_ok = true;
        for (int rep = 0; rep < 2; ++rep) {
          std::unique_ptr<Scheduler> policy = factory.make();
          ValidatingScheduler validating(policy.get());
          SimEngineConfig config;
          config.num_threads = options.sim_threads;
          config.cancels = workload.cancels;
          SimEngine engine(config);
          // Install before EACH rep: rule-local RNG/counter state resets,
          // so both reps see an identical firing sequence.
          if (chaos) FaultInjector::Global().Install(workload.faults);
          episodes[rep] = engine.Run(workload.sim_queries, &validating);
          FaultInjector::Global().Clear();
          ++report.sim_engine_runs;
          if (chaos) {
            for (const std::string& d : DiffTerminalStatuses(
                     workload.expected_statuses,
                     episodes[rep].final_statuses)) {
              add_mismatch(factory.name + " [sim]: " + d);
              sim_ok = false;
            }
          }
          for (const std::string& v : validating.violations()) {
            add_mismatch(factory.name + " [sim]: " + v);
            sim_ok = false;
          }
          Status episode_ok = ValidateEpisodeResult(
              episodes[rep], workload.sim_queries.size(),
              options.sim_threads);
          if (!episode_ok.ok()) {
            add_mismatch(factory.name + " [sim]: " + episode_ok.ToString());
            sim_ok = false;
          }
        }
        if (sim_ok) {
          const std::string diff = DiffEpisodeResults(episodes[0], episodes[1]);
          if (!diff.empty()) {
            add_mismatch(factory.name + " [sim]: nondeterministic episode: " +
                         diff);
          }
        }
      }
    }
  }
  return report;
}

}  // namespace lsched
