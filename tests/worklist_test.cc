#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "exec/real_engine.h"
#include "exec/worklist.h"
#include "plan/plan_builder.h"
#include "sched/heuristics.h"
#include "storage/table_generator.h"
#include "testing/faultpoint.h"

namespace lsched {
namespace {

// ---------------------------------------------------------------------------
// Single-threaded contract
// ---------------------------------------------------------------------------

TEST(WorklistContractTest, FifoOrderAndSize) {
  Worklist<int> list(64);
  EXPECT_EQ(list.Size(), 0u);
  int out = -1;
  EXPECT_FALSE(list.TryPopClaim(&out));
  for (int i = 0; i < 10; ++i) list.Push(i);
  EXPECT_EQ(list.Size(), 10u);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(list.TryPopClaim(&out));
    EXPECT_EQ(out, i);
  }
  EXPECT_FALSE(list.TryPopClaim(&out));
}

TEST(WorklistContractTest, DrainReturnsRemainingInOrder) {
  Worklist<int> list(64);
  for (int i = 0; i < 8; ++i) list.Push(i);
  int out = -1;
  ASSERT_TRUE(list.TryPopClaim(&out));
  const std::vector<int> rest = list.Drain();
  ASSERT_EQ(rest.size(), 7u);
  for (int i = 0; i < 7; ++i) EXPECT_EQ(rest[static_cast<size_t>(i)], i + 1);
  EXPECT_EQ(list.Size(), 0u);
}

TEST(WorklistContractTest, PopClaimWaitTimesOutOnEmpty) {
  Worklist<int> list(64);
  int out = -1;
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(list.PopClaimWait(&out, std::chrono::milliseconds(5)));
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  // The wait must be bounded (well under a second even on loaded CI).
  EXPECT_LT(elapsed, std::chrono::seconds(5));
}

TEST(WorklistContractTest, PopClaimWaitWakesOnConcurrentPush) {
  Worklist<int> list(64);
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    list.Push(42);
  });
  int out = -1;
  // Generous timeout: the push lands long before it; the test is that the
  // sleeping consumer is actually woken rather than timing out.
  bool got = false;
  for (int i = 0; i < 1000 && !got; ++i) {
    got = list.PopClaimWait(&out, std::chrono::milliseconds(20));
  }
  producer.join();
  ASSERT_TRUE(got);
  EXPECT_EQ(out, 42);
}

TEST(WorklistContractTest, MoveOnlyPayloadSupported) {
  Worklist<std::unique_ptr<int>> list(64);
  list.Push(std::make_unique<int>(7));
  std::unique_ptr<int> out;
  ASSERT_TRUE(list.TryPopClaim(&out));
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(*out, 7);
}

// ---------------------------------------------------------------------------
// Ring-specific behavior
// ---------------------------------------------------------------------------

TEST(WorklistRingTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(Worklist<int>(1).capacity(), 64u);
  EXPECT_EQ(Worklist<int>(64).capacity(), 64u);
  EXPECT_EQ(Worklist<int>(65).capacity(), 128u);
  EXPECT_EQ(Worklist<int>(1000).capacity(), 1024u);
}

TEST(WorklistRingTest, WrapAroundPreservesEveryItem) {
  Worklist<int> list(64);  // smallest ring: wraps many times below
  int next_push = 0, next_pop = 0;
  // Interleaved batches larger than half the ring force repeated
  // wrap-around of both position counters and every cell's sequence.
  for (int round = 0; round < 100; ++round) {
    for (int i = 0; i < 48; ++i) list.Push(next_push++);
    int out = -1;
    for (int i = 0; i < 48; ++i) {
      ASSERT_TRUE(list.TryPopClaim(&out));
      ASSERT_EQ(out, next_pop++);
    }
  }
  EXPECT_EQ(list.Size(), 0u);
}

// ---------------------------------------------------------------------------
// Concurrency: claim-exactly-once conservation
// ---------------------------------------------------------------------------

/// MPMC hammer: P producers push distinct ids, C consumers claim via
/// PopClaimWait. Every id must be claimed exactly once — the conservation
/// property RealEngine's in-flight counters are built on. Run under TSan in
/// CI, this is also the data-race gate for the lock-free ring.
TEST(WorklistHammerTest, ClaimExactlyOnce) {
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr int kPerProducer = 20000;
  constexpr int kTotal = kProducers * kPerProducer;

  Worklist<int> list(256);
  std::vector<std::atomic<int>> claims(kTotal);
  for (auto& c : claims) c.store(0, std::memory_order_relaxed);
  std::atomic<int> claimed{0};

  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        list.Push(p * kPerProducer + i);
      }
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      int item = -1;
      while (claimed.load(std::memory_order_relaxed) < kTotal) {
        if (list.PopClaimWait(&item, std::chrono::milliseconds(1))) {
          claims[static_cast<size_t>(item)].fetch_add(
              1, std::memory_order_relaxed);
          claimed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  ASSERT_EQ(claimed.load(), kTotal);
  for (int i = 0; i < kTotal; ++i) {
    ASSERT_EQ(claims[static_cast<size_t>(i)].load(), 1)
        << "item " << i << " claimed " << claims[static_cast<size_t>(i)].load()
        << " times";
  }
  EXPECT_EQ(list.Size(), 0u);
}

/// Drain racing against pushes and pops: whatever mixture of TryPopClaim
/// and Drain observes each item, the union must still be exactly-once.
TEST(WorklistHammerTest, DrainDuringPush) {
  constexpr int kProducers = 3;
  constexpr int kPerProducer = 10000;
  constexpr int kTotal = kProducers * kPerProducer;

  Worklist<int> list(256);
  std::vector<std::atomic<int>> claims(kTotal);
  for (auto& c : claims) c.store(0, std::memory_order_relaxed);
  std::atomic<int> claimed{0};
  std::atomic<bool> producing{true};

  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        list.Push(p * kPerProducer + i);
      }
    });
  }
  // One popping consumer plus the main thread draining concurrently.
  threads.emplace_back([&] {
    int item = -1;
    while (claimed.load(std::memory_order_relaxed) < kTotal) {
      if (list.PopClaimWait(&item, std::chrono::milliseconds(1))) {
        claims[static_cast<size_t>(item)].fetch_add(1,
                                                    std::memory_order_relaxed);
        claimed.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  while (claimed.load(std::memory_order_relaxed) < kTotal) {
    for (int item : list.Drain()) {
      claims[static_cast<size_t>(item)].fetch_add(1, std::memory_order_relaxed);
      claimed.fetch_add(1, std::memory_order_relaxed);
    }
    std::this_thread::yield();
  }
  producing.store(false);
  for (auto& t : threads) t.join();

  ASSERT_EQ(claimed.load(), kTotal);
  for (int i = 0; i < kTotal; ++i) {
    ASSERT_EQ(claims[static_cast<size_t>(i)].load(), 1) << "item " << i;
  }
}

// ---------------------------------------------------------------------------
// RealEngine over the worklist
// ---------------------------------------------------------------------------

constexpr int64_t kDimRows = 800;
constexpr int64_t kFactRows = 3200;

std::unique_ptr<Catalog> MakeCatalog(uint64_t seed = 11) {
  auto catalog = std::make_unique<Catalog>();
  Rng rng(seed);
  TableSpec dim;
  dim.name = "dim";
  dim.num_rows = kDimRows;
  dim.block_capacity = 128;
  dim.columns = {
      {"k", DataType::kInt64, ColumnDistribution::kSequential, 0, 0, 0},
      {"w", DataType::kDouble, ColumnDistribution::kUniformReal, 0, 1, 0}};
  TableSpec fact;
  fact.name = "fact";
  fact.num_rows = kFactRows;
  fact.block_capacity = 128;
  fact.columns = {
      {"fk", DataType::kInt64, ColumnDistribution::kForeignKey, 0,
       static_cast<double>(kDimRows), 0},
      {"val", DataType::kDouble, ColumnDistribution::kUniformReal, 0, 1, 0}};
  EXPECT_TRUE(catalog->AddRelation(GenerateTable(dim, &rng)).ok());
  EXPECT_TRUE(catalog->AddRelation(GenerateTable(fact, &rng)).ok());
  return catalog;
}

QueryPlan JoinCountPlan(const Catalog& catalog, double lo, double hi) {
  PlanBuilder b(&catalog);
  const RelationId dim_id = *catalog.FindRelation("dim");
  const RelationId fact_id = *catalog.FindRelation("fact");

  PlanBuilder::NodeOptions dim_opts;
  dim_opts.selectivity = 1.0;
  const int dim_scan = b.AddSource(OperatorType::kTableScan, dim_id, dim_opts);

  PlanBuilder::NodeOptions build_opts;
  build_opts.kernel.build_key = 0;
  const int build = b.AddOp(OperatorType::kBuildHash, {dim_scan}, build_opts);

  PlanBuilder::NodeOptions fact_opts;
  fact_opts.selectivity = (hi - lo);
  fact_opts.kernel.filter_column = 1;
  fact_opts.kernel.filter_lo = lo;
  fact_opts.kernel.filter_hi = hi;
  const int fact_scan = b.AddSource(OperatorType::kSelect, fact_id, fact_opts);

  PlanBuilder::NodeOptions probe_opts;
  probe_opts.selectivity = 1.0;
  probe_opts.kernel.probe_key = 0;
  const int probe =
      b.AddOp(OperatorType::kProbeHash, {fact_scan, build}, probe_opts);

  PlanBuilder::NodeOptions agg_opts;
  agg_opts.kernel.agg_fn = AggFn::kCount;
  agg_opts.kernel.group_by_column = -1;
  agg_opts.kernel.agg_column = 1;
  b.AddOp(OperatorType::kHashAggregate, {probe}, agg_opts);
  auto plan = b.Build();
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  return std::move(plan).value();
}

std::vector<RealQuerySubmission> MakeWorkload(const Catalog& catalog, int n) {
  std::vector<RealQuerySubmission> workload;
  for (int i = 0; i < n; ++i) {
    const double lo = 0.05 * static_cast<double>(i % 6);
    RealQuerySubmission sub;
    sub.plan = JoinCountPlan(catalog, lo, lo + 0.5);
    sub.arrival_offset_seconds = 0.002 * i;
    workload.push_back(std::move(sub));
  }
  return workload;
}

RealRunResult RunEngine(const Catalog* catalog, int queries) {
  RealEngineConfig cfg;
  cfg.num_threads = 4;
  cfg.chunk_rows = 128;
  RealEngine engine(catalog, cfg);
  FifoScheduler fifo;
  return engine.Run(MakeWorkload(*catalog, queries), &fifo);
}

/// A deterministic fault storm through the worklist-fed pool: one query's
/// work orders always fail (probability 1.0, query-scoped, beyond retry
/// budget), so that query — and only that query — must end FAILED while
/// everything else completes.
TEST(WorklistEngineTest, ChaosFaultStormFailsOnlyTheFaultedQuery) {
  auto catalog = MakeCatalog();

  FaultSchedule schedule;
  schedule.seed = 23;
  FaultRule rule;
  rule.point = "work_order_exec";
  rule.query = 3;
  rule.probability = 1.0;  // every attempt of query 3 fails, replay-stable
  rule.action = {FaultType::kError, 0.0};
  schedule.rules.push_back(rule);

  FaultInjector::Global().Install(schedule);
  const RealRunResult result = RunEngine(catalog.get(), 8);
  FaultInjector::Global().Clear();

  ASSERT_EQ(result.episode.final_statuses.size(), 8u);
  EXPECT_EQ(result.episode.num_queries_failed, 1);
  for (size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(result.episode.final_statuses[i],
              i == 3 ? QueryStatus::kFailed : QueryStatus::kDone)
        << "query " << i;
  }
}

}  // namespace
}  // namespace lsched
