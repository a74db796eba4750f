// Dispatch-throughput microbench: work-orders/sec through RealEngine's
// coordinator→worker handoff over the lock-free worklist (DESIGN.md §12).
//
// The workload is deliberately dispatch-bound: many small work orders
// (tiny chunk size, cheap select+count plans, all queries arriving at
// once) so the handoff cost — not kernel time — dominates. The headline
// metric is work_orders_per_sec (higher is better; bench_compare
// recognizes the per_sec suffix).
//
// Emits the standard bench_common CSV schema and BENCH_dispatch.json for
// the perf-trajectory job. Env: LSCHED_DISPATCH_QUERIES (default 24),
// LSCHED_DISPATCH_REPS (default 3; best rep is reported),
// LSCHED_DISPATCH_THREADS (default 8).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "bench/bench_common.h"
#include "exec/real_engine.h"
#include "plan/plan_builder.h"
#include "sched/heuristics.h"
#include "storage/table_generator.h"
#include "util/perf_snapshot.h"

namespace lsched {
namespace {

int g_threads = 8;
constexpr size_t kChunkRows = 64;  // small chunks → many work orders
constexpr int64_t kRows = 40000;

std::unique_ptr<Catalog> MakeCatalog(uint64_t seed = 42) {
  auto catalog = std::make_unique<Catalog>();
  Rng rng(seed);
  TableSpec t;
  t.name = "t";
  t.num_rows = kRows;
  t.block_capacity = 64;  // one block ≈ one source work order
  t.columns = {
      {"k", DataType::kInt64, ColumnDistribution::kSequential, 0, 0, 0},
      {"v", DataType::kDouble, ColumnDistribution::kUniformReal, 0, 1, 0}};
  if (!catalog->AddRelation(GenerateTable(t, &rng)).ok()) return nullptr;
  return catalog;
}

/// select(t, v in [lo, lo+0.5]) → COUNT(*): two streaming stages + a
/// blocking tail, one work order per source block.
QueryPlan CountPlan(const Catalog& catalog, double lo) {
  PlanBuilder b(&catalog);
  const RelationId t_id = *catalog.FindRelation("t");
  PlanBuilder::NodeOptions src;
  src.selectivity = 0.5;
  src.kernel.filter_column = 1;
  src.kernel.filter_lo = lo;
  src.kernel.filter_hi = lo + 0.5;
  const int scan = b.AddSource(OperatorType::kSelect, t_id, src);
  PlanBuilder::NodeOptions agg;
  agg.kernel.agg_fn = AggFn::kCount;
  agg.kernel.group_by_column = -1;
  agg.kernel.agg_column = 1;
  b.AddOp(OperatorType::kHashAggregate, {scan}, agg);
  auto plan = b.Build();
  if (!plan.ok()) std::abort();
  return std::move(plan).value();
}

struct DispatchStats {
  double work_orders_per_sec = 0.0;
  double wall_seconds = 0.0;
  int64_t work_orders = 0;
};

DispatchStats RunOnce(const Catalog* catalog, int num_queries) {
  std::vector<RealQuerySubmission> workload;
  for (int i = 0; i < num_queries; ++i) {
    RealQuerySubmission sub;
    sub.plan = CountPlan(*catalog, 0.04 * static_cast<double>(i % 12));
    sub.arrival_offset_seconds = 0.0;  // all at once: the pool stays hot
    workload.push_back(std::move(sub));
  }
  RealEngineConfig cfg;
  cfg.num_threads = g_threads;
  cfg.chunk_rows = kChunkRows;
  RealEngine engine(catalog, cfg);
  FifoScheduler fifo;

  const auto t0 = std::chrono::steady_clock::now();
  const RealRunResult result = engine.Run(workload, &fifo);
  const auto t1 = std::chrono::steady_clock::now();

  DispatchStats stats;
  stats.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  stats.work_orders = result.episode.num_work_orders_completed;
  if (stats.wall_seconds > 0.0) {
    stats.work_orders_per_sec =
        static_cast<double>(stats.work_orders) / stats.wall_seconds;
  }
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
  const int num_queries = ReadEnvInt("LSCHED_DISPATCH_QUERIES", 24);
  const int reps = ReadEnvInt("LSCHED_DISPATCH_REPS", 3);
  g_threads = ReadEnvInt("LSCHED_DISPATCH_THREADS", 8);

  auto catalog = MakeCatalog();
  if (catalog == nullptr) return 1;

  // Warm-up: touch every block once so the timed reps pay no first-use
  // costs.
  (void)RunOnce(catalog.get(), 2);

  PrintCsvHeader();
  PerfSnapshot snap = MakePerfSnapshot("dispatch");
  snap.Add("queries", num_queries);
  snap.Add("threads", g_threads);

  DispatchStats best;
  for (int rep = 0; rep < reps; ++rep) {
    const DispatchStats stats = RunOnce(catalog.get(), num_queries);
    if (stats.work_orders_per_sec > best.work_orders_per_sec) best = stats;
  }
  PrintCsvRow("micro_dispatch", "worklist", num_queries, g_threads,
              "work_orders_per_sec", best.work_orders_per_sec);
  PrintCsvRow("micro_dispatch", "worklist", num_queries, g_threads,
              "work_orders", static_cast<double>(best.work_orders));
  PrintCsvRow("micro_dispatch", "worklist", num_queries, g_threads,
              "wall_seconds", best.wall_seconds);
  snap.Add("work_orders_per_sec", best.work_orders_per_sec);
  snap.Add("work_orders", static_cast<double>(best.work_orders));

  return WriteBenchSnapshot(snap) ? 0 : 1;
}
