// Scenario: extending the library with your own scheduling policy. The
// Scheduler interface is the same one the engines drive LSched through, so
// a custom policy immediately works on both the simulator and the real
// threaded engine. This example implements a deadline-aware policy that
// boosts queries older than an SLA threshold, and validates it against the
// built-in heuristics.
//
// It overrides the one Scheduler entry point, Schedule(event,
// SchedulingContext) (DESIGN.md §9): the context is a live,
// incrementally-maintained view (O(1) FindQuery / free-thread count,
// per-query change versions), not a per-event snapshot rebuild.
//
//   ./build/examples/custom_scheduler
#include <algorithm>
#include <cstdio>

#include "exec/scheduler.h"
#include "exec/scheduling_context.h"
#include "sched/heuristics.h"
#include "workload/workload.h"

using namespace lsched;

namespace {

/// Oldest-past-deadline first; otherwise shortest-remaining-first. Each
/// chosen query gets full pipelines and a bounded thread share.
class SlaScheduler : public Scheduler {
 public:
  explicit SlaScheduler(double sla_seconds) : sla_(sla_seconds) {}

  std::string name() const override { return "SLA"; }

  SchedulingDecision Schedule(const SchedulingEvent& event,
                              const SchedulingContext& ctx) override {
    (void)event;
    SchedulingDecision d;
    // Rank: past-deadline queries first (oldest first), then by estimated
    // remaining work.
    std::vector<QueryState*> order;
    for (QueryState* q : ctx.queries()) {
      if (!q->SchedulableOps().empty()) order.push_back(q);
    }
    std::sort(order.begin(), order.end(), [&](QueryState* a, QueryState* b) {
      const double age_a = ctx.now() - a->arrival_time();
      const double age_b = ctx.now() - b->arrival_time();
      const bool late_a = age_a > sla_;
      const bool late_b = age_b > sla_;
      if (late_a != late_b) return late_a;
      if (late_a) return age_a > age_b;
      return a->EstimateQueryRemainingSeconds() <
             b->EstimateQueryRemainingSeconds();
    });
    const int total = ctx.total_threads();
    int budget = ctx.num_free_threads();
    for (QueryState* q : order) {
      if (budget <= 0) break;
      for (int root : q->SchedulableOps()) {
        const std::vector<int> chain = q->ValidPipelineFrom(root);
        // Moderate pipelining: at most 3 stages (avoids buffer thrash).
        const int degree =
            std::min<int>(3, static_cast<int>(chain.size()));
        d.pipelines.push_back(PipelineChoice{q->id(), root, degree});
      }
      const int share = std::max(1, total / 2);
      d.parallelism.push_back(ParallelismChoice{q->id(), share});
      budget -= share;
    }
    return d;
  }

 private:
  double sla_;
};

}  // namespace

int main() {
  WorkloadConfig wcfg;
  wcfg.benchmark = Benchmark::kJob;
  wcfg.num_queries = 30;
  wcfg.mean_interarrival_seconds = 0.05;
  Rng rng(21);
  const auto workload = GenerateWorkload(wcfg, &rng);

  SimEngineConfig ecfg;
  ecfg.num_threads = 16;
  SimEngine engine(ecfg);

  SlaScheduler sla(1.0);
  FairScheduler fair;
  SjfScheduler sjf;
  std::printf("30 JOB queries, 16 threads:\n");
  std::printf("%-8s %10s %10s %12s\n", "policy", "avg(s)", "p90(s)",
              "#actions");
  for (auto& [name, sched] : std::vector<std::pair<const char*, Scheduler*>>{
           {"SLA", &sla}, {"Fair", &fair}, {"SJF", &sjf}}) {
    const EpisodeResult r = engine.Run(workload, sched);
    std::printf("%-8s %10.3f %10.3f %12d\n", name, r.avg_latency,
                r.p90_latency, r.num_actions);
  }
  return 0;
}
