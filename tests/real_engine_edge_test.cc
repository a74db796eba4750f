#include <gtest/gtest.h>

#include <memory>
#include <utility>

#include "exec/real_engine.h"
#include "plan/plan_builder.h"
#include "sched/heuristics.h"
#include "testing/fuzzer.h"
#include "testing/invariants.h"
#include "testing/oracle.h"

namespace lsched {
namespace {

/// Runs `workload` against `catalog` under FIFO with the given engine
/// config and asserts the sink results equal the oracle's.
void ExpectMatchesOracle(const Catalog& catalog,
                         const std::vector<RealQuerySubmission>& workload,
                         RealEngineConfig config) {
  OracleExecutor oracle(&catalog);
  FifoScheduler policy;
  ValidatingScheduler validating(&policy);
  RealEngine engine(&catalog, config);
  RealRunResult run = engine.Run(workload, &validating);
  ASSERT_EQ(run.sink_row_counts.size(), workload.size());
  for (size_t i = 0; i < workload.size(); ++i) {
    Result<OracleQueryResult> expected = oracle.Execute(workload[i].plan);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    EXPECT_EQ(run.sink_row_counts[i], expected->sink_rows) << "query " << i;
    EXPECT_NEAR(run.sink_checksums[i], expected->sink_checksum,
                1e-6 + 1e-9 * std::abs(expected->sink_checksum))
        << "query " << i;
  }
  EXPECT_TRUE(validating.violations().empty())
      << validating.violations().front();
  Status episode_ok = ValidateEpisodeResult(run.episode, workload.size(),
                                            config.num_threads);
  EXPECT_TRUE(episode_ok.ok()) << episode_ok.ToString();
}

TEST(RealEngineEdgeTest, SingleThreadMatchesOracle) {
  WorkloadFuzzer fuzzer(11);
  FuzzedWorkload w = fuzzer.NextWorkload();
  RealEngineConfig config;
  config.num_threads = 1;
  config.chunk_rows = 128;
  ExpectMatchesOracle(*w.catalog, w.real_queries, config);
}

TEST(RealEngineEdgeTest, OneRowChunksMatchOracle) {
  // chunk_rows=1 maximizes work-order counts and interleavings: every
  // intermediate row becomes its own work order.
  WorkloadFuzzer fuzzer(12, {.min_rows = 20, .max_rows = 60});
  FuzzedWorkload w = fuzzer.NextWorkload();
  RealEngineConfig config;
  config.num_threads = 4;
  config.chunk_rows = 1;
  ExpectMatchesOracle(*w.catalog, w.real_queries, config);
}

TEST(RealEngineEdgeTest, EmptyWorkloadCompletes) {
  WorkloadFuzzer fuzzer(13);
  std::unique_ptr<Catalog> catalog = fuzzer.FuzzCatalog();
  FifoScheduler policy;
  RealEngine engine(catalog.get(), {});
  RealRunResult run = engine.Run({}, &policy);
  EXPECT_TRUE(run.sink_row_counts.empty());
  EXPECT_TRUE(run.episode.query_latencies.empty());
  EXPECT_EQ(run.episode.num_work_orders_dispatched, 0);
  EXPECT_EQ(run.episode.avg_latency, 0.0);
}

TEST(RealEngineEdgeTest, SingleOperatorPlanMatchesOracle) {
  WorkloadFuzzer fuzzer(14);
  std::unique_ptr<Catalog> catalog = fuzzer.FuzzCatalog();
  PlanBuilder b(catalog.get());
  b.AddSource(OperatorType::kTableScan, 0, {});
  auto plan = b.Build();
  ASSERT_TRUE(plan.ok());
  std::vector<RealQuerySubmission> workload;
  workload.push_back({std::move(plan).value(), 0.0});

  RealEngineConfig config;
  config.num_threads = 2;
  ExpectMatchesOracle(*catalog, workload, config);

  // The scan of t0 must emit exactly the base table.
  OracleExecutor oracle(catalog.get());
  Result<OracleQueryResult> r = oracle.Execute(workload[0].plan);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->sink_rows, catalog->relation(0).num_rows());
}

TEST(RealEngineEdgeTest, EdgeConfigsAgreeWithEachOther) {
  // Same workload under wildly different execution configs: all runs must
  // agree on sink results (transitively, via the oracle).
  WorkloadFuzzer fuzzer(15, {.min_rows = 30, .max_rows = 90});
  FuzzedWorkload w = fuzzer.NextWorkload();
  for (const auto& [threads, chunk_rows] :
       {std::pair<int, size_t>{1, 1}, {8, 7}, {2, 4096}}) {
    RealEngineConfig config;
    config.num_threads = threads;
    config.chunk_rows = chunk_rows;
    ExpectMatchesOracle(*w.catalog, w.real_queries, config);
  }
}

TEST(RealEngineEdgeTest, CancelsAndPoolShrinkLandMidLease) {
  // One-row chunks make pipelines of hundreds of work orders, so workers
  // hold long leases while the scripted cancels and pool shrink land.
  FuzzerOptions options;
  options.min_rows = 1500;
  options.max_rows = 3000;
  options.min_queries = 3;
  options.max_queries = 3;
  WorkloadFuzzer fuzzer(16, options);
  FuzzedWorkload w = fuzzer.NextWorkload();
  RealEngineConfig config;
  config.num_threads = 4;
  config.chunk_rows = 1;
  config.cancels = {{0, 0.002}, {2, 0.005}};
  config.thread_events = {{0.003, -2}};
  FifoScheduler policy;
  ValidatingScheduler validating(&policy);
  RealEngine engine(w.catalog.get(), config);
  RealRunResult run = engine.Run(w.real_queries, &validating);

  OracleExecutor oracle(w.catalog.get());
  ASSERT_EQ(run.episode.final_statuses.size(), w.real_queries.size());
  for (size_t i = 0; i < w.real_queries.size(); ++i) {
    const QueryStatus status = run.episode.final_statuses[i];
    if (status == QueryStatus::kCancelled) {
      EXPECT_TRUE(i == 0 || i == 2) << "query " << i;
      continue;
    }
    ASSERT_EQ(status, QueryStatus::kDone) << "query " << i;
    Result<OracleQueryResult> expected = oracle.Execute(w.real_queries[i].plan);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    EXPECT_EQ(run.sink_row_counts[i], expected->sink_rows) << "query " << i;
    EXPECT_NEAR(run.sink_checksums[i], expected->sink_checksum,
                1e-6 + 1e-9 * std::abs(expected->sink_checksum))
        << "query " << i;
  }
  EXPECT_TRUE(validating.violations().empty())
      << validating.violations().front();
  const Status episode_ok = ValidateEpisodeResult(
      run.episode, w.real_queries.size(), config.num_threads);
  EXPECT_TRUE(episode_ok.ok()) << episode_ok.ToString();
}

}  // namespace
}  // namespace lsched
