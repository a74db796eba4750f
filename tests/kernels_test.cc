#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <new>
#include <set>
#include <thread>

#include "exec/kernels.h"
#include "plan/plan_builder.h"
#include "storage/table_generator.h"
#include "testing/oracle.h"

// Sanitizers replace operator new themselves, so only plain builds count
// allocations.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define LSCHED_COUNT_ALLOCS 0
#else
#define LSCHED_COUNT_ALLOCS 1
#endif

#if LSCHED_COUNT_ALLOCS
namespace {
std::atomic<int64_t> g_allocations{0};
}  // namespace

// Out of line, so the compiler does not pair an inlined free() with an
// inlined operator new.
__attribute__((noinline)) void* operator new(size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
__attribute__((noinline)) void operator delete(void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p, size_t) noexcept {
  std::free(p);
}
#endif

namespace lsched {
namespace {

/// t(k sequential 0..N-1, g uniform 0..7, v uniform [0,1)); d(k, w).
class KernelsTest : public ::testing::Test {
 protected:
  static constexpr int64_t kRows = 3000;
  static constexpr int64_t kDimRows = 500;
  static constexpr size_t kChunk = 256;

  void SetUp() override {
    Rng rng(77);
    TableSpec t;
    t.name = "t";
    t.num_rows = kRows;
    t.block_capacity = kChunk;
    t.columns = {
        {"k", DataType::kInt64, ColumnDistribution::kSequential, 0, 0, 0},
        {"g", DataType::kInt64, ColumnDistribution::kUniformInt, 0, 7, 0},
        {"v", DataType::kDouble, ColumnDistribution::kUniformReal, 0, 1, 0}};
    TableSpec d;
    d.name = "d";
    d.num_rows = kDimRows;
    d.block_capacity = kChunk;
    d.columns = {
        {"k", DataType::kInt64, ColumnDistribution::kSequential, 0, 0, 0},
        {"w", DataType::kDouble, ColumnDistribution::kUniformReal, 0, 1, 0}};
    t_id_ = *catalog_.AddRelation(GenerateTable(t, &rng));
    d_id_ = *catalog_.AddRelation(GenerateTable(d, &rng));
  }

  /// Runs all work orders of each op of `plan` in topological order,
  /// finalizing each op when done (single-threaded reference execution).
  void RunAll(const QueryPlan& plan, QueryExecution* exec) {
    for (int op : plan.TopologicalOrder()) {
      const int wos = exec->NumWorkOrders(op);
      for (int i = 0; i < wos; ++i) {
        ASSERT_TRUE(exec->ExecuteWorkOrder({op}, i).ok());
      }
      ASSERT_TRUE(exec->FinalizeOperator(op).ok());
    }
  }

  /// Sink row count and checksum (sum of every value) of `op`'s output,
  /// the summary the oracle reports.
  static std::pair<int64_t, double> Summary(const QueryExecution& exec,
                                            int op) {
    const RowStore& out = exec.output(op);
    double sum = 0.0;
    for (double v : out.rows().data) sum += v;
    return {static_cast<int64_t>(out.num_rows()), sum};
  }

  /// Runs `plan` single-threaded and checks its one sink against the
  /// oracle.
  void ExpectMatchesOracle(const QueryPlan& plan, int sink) {
    QueryExecution exec(&catalog_, &plan, kChunk);
    RunAll(plan, &exec);
    const auto want = OracleExecutor(&catalog_).Execute(plan);
    ASSERT_TRUE(want.ok());
    const auto [rows, checksum] = Summary(exec, sink);
    EXPECT_EQ(rows, want->sink_rows);
    EXPECT_NEAR(checksum, want->sink_checksum,
                1e-9 * std::max(1.0, std::abs(want->sink_checksum)));
  }

  /// Sorted copy of `op`'s output rows, for order-free comparison.
  static std::vector<std::vector<double>> SortedRows(
      const QueryExecution& exec, int op) {
    const RowStore& out = exec.output(op);
    std::vector<std::vector<double>> rows;
    for (size_t r = 0; r < out.num_rows(); ++r) {
      const double* row = out.rows().row(r);
      rows.emplace_back(row, row + out.num_cols());
    }
    std::sort(rows.begin(), rows.end());
    return rows;
  }

  Catalog catalog_;
  RelationId t_id_ = 0;
  RelationId d_id_ = 0;
};

TEST_F(KernelsTest, RowStoreChunking) {
  RowStore store(2, 10);
  for (int i = 0; i < 25; ++i) {
    const double row[2] = {static_cast<double>(i), 2.0 * i};
    store.AppendRow(row, 2);
  }
  EXPECT_EQ(store.num_rows(), 25u);
  EXPECT_EQ(store.num_chunks(), 3u);
  RowBatch rows;
  store.ChunkInto(2, &rows);
  ASSERT_EQ(rows.num_rows(), 5u);  // 25 - 20
  EXPECT_EQ(rows.cols, 2);
  EXPECT_DOUBLE_EQ(rows.row(0)[0], 20.0);
  EXPECT_DOUBLE_EQ(rows.row(4)[1], 48.0);
  store.ChunkInto(3, &rows);  // past the end: empty
  EXPECT_EQ(rows.num_rows(), 0u);
}

TEST_F(KernelsTest, SelectFiltersAndProjects) {
  PlanBuilder b(&catalog_);
  PlanBuilder::NodeOptions opts;
  opts.kernel.filter_column = 2;  // v
  opts.kernel.filter_lo = 0.25;
  opts.kernel.filter_hi = 0.5;
  opts.kernel.project_columns = {0};  // keep k only
  const int op = b.AddSource(OperatorType::kSelect, t_id_, opts);
  auto plan = b.Build();
  ASSERT_TRUE(plan.ok());
  QueryExecution exec(&catalog_, &*plan, kChunk);
  RunAll(*plan, &exec);

  // Reference count.
  const Relation& rel = catalog_.relation(t_id_);
  int64_t expected = 0;
  for (size_t blk = 0; blk < rel.num_blocks(); ++blk) {
    for (double v : rel.block(blk).DoubleColumn(2)) {
      if (v >= 0.25 && v <= 0.5) ++expected;
    }
  }
  EXPECT_EQ(static_cast<int64_t>(exec.output(op).num_rows()), expected);
  EXPECT_EQ(exec.output(op).num_cols(), 1);
}

TEST_F(KernelsTest, HashJoinMatchesEveryForeignKey) {
  // Join t against d on t.g-as-key? Use k mod: t.k joined to d.k matches
  // only k < kDimRows.
  PlanBuilder b(&catalog_);
  const int dscan = b.AddSource(OperatorType::kTableScan, d_id_, {});
  PlanBuilder::NodeOptions bopts;
  bopts.kernel.build_key = 0;
  const int build = b.AddOp(OperatorType::kBuildHash, {dscan}, bopts);
  const int tscan = b.AddSource(OperatorType::kTableScan, t_id_, {});
  PlanBuilder::NodeOptions popts;
  popts.kernel.probe_key = 0;  // t.k
  const int probe = b.AddOp(OperatorType::kProbeHash, {tscan, build}, popts);
  auto plan = b.Build();
  ASSERT_TRUE(plan.ok());
  QueryExecution exec(&catalog_, &*plan, kChunk);
  RunAll(*plan, &exec);
  // Exactly the first kDimRows of t have a matching d.k.
  EXPECT_EQ(exec.output(probe).num_rows(), static_cast<size_t>(kDimRows));
  // Output arity: 3 (t) + 2 (d).
  EXPECT_EQ(exec.output(probe).num_cols(), 5);
}

TEST_F(KernelsTest, GroupedAggregateSumsPerGroup) {
  PlanBuilder b(&catalog_);
  const int scan = b.AddSource(OperatorType::kTableScan, t_id_, {});
  PlanBuilder::NodeOptions aopts;
  aopts.kernel.group_by_column = 1;  // g
  aopts.kernel.agg_column = 2;       // v
  aopts.kernel.agg_fn = AggFn::kSum;
  const int agg = b.AddOp(OperatorType::kHashAggregate, {scan}, aopts);
  auto plan = b.Build();
  ASSERT_TRUE(plan.ok());
  QueryExecution exec(&catalog_, &*plan, kChunk);
  RunAll(*plan, &exec);

  // Reference sums per group.
  std::map<int64_t, double> ref;
  const Relation& rel = catalog_.relation(t_id_);
  for (size_t blk = 0; blk < rel.num_blocks(); ++blk) {
    const Block& block = rel.block(blk);
    for (size_t r = 0; r < block.num_rows(); ++r) {
      ref[block.Int64Column(1)[r]] += block.DoubleColumn(2)[r];
    }
  }
  const RowStore& out = exec.output(agg);
  ASSERT_EQ(out.num_rows(), ref.size());
  for (size_t r = 0; r < out.num_rows(); ++r) {
    const int64_t group = static_cast<int64_t>(out.at(r, 0));
    EXPECT_NEAR(out.at(r, 1), ref.at(group), 1e-6) << "group " << group;
  }
}

TEST_F(KernelsTest, PartialPlusFinalizeEqualsSingleAggregate) {
  auto make_plan = [&](bool two_phase) {
    PlanBuilder b(&catalog_);
    const int scan = b.AddSource(OperatorType::kTableScan, t_id_, {});
    PlanBuilder::NodeOptions aopts;
    aopts.kernel.group_by_column = 1;
    aopts.kernel.agg_column = 2;
    aopts.kernel.agg_fn = AggFn::kCount;
    int agg = b.AddOp(OperatorType::kHashAggregate, {scan}, aopts);
    if (two_phase) {
      PlanBuilder::NodeOptions fopts;
      fopts.kernel.agg_fn = AggFn::kCount;
      agg = b.AddOp(OperatorType::kFinalizeAggregate, {agg}, fopts);
    }
    auto plan = b.Build();
    EXPECT_TRUE(plan.ok());
    return std::make_pair(std::move(plan).value(), agg);
  };
  auto [p1, sink1] = make_plan(false);
  auto [p2, sink2] = make_plan(true);
  QueryExecution e1(&catalog_, &p1, kChunk), e2(&catalog_, &p2, kChunk);
  RunAll(p1, &e1);
  RunAll(p2, &e2);
  // Same number of groups, same total counts.
  ASSERT_EQ(e1.output(sink1).num_rows(), e2.output(sink2).num_rows());
  double total1 = 0.0, total2 = 0.0;
  for (size_t r = 0; r < e1.output(sink1).num_rows(); ++r) {
    total1 += e1.output(sink1).at(r, 1);
    total2 += e2.output(sink2).at(r, 1);
  }
  EXPECT_DOUBLE_EQ(total1, total2);
  EXPECT_DOUBLE_EQ(total1, static_cast<double>(kRows));
}

TEST_F(KernelsTest, DistinctKeepsOneRowPerKey) {
  PlanBuilder b(&catalog_);
  const int scan = b.AddSource(OperatorType::kTableScan, t_id_, {});
  PlanBuilder::NodeOptions dopts;
  dopts.kernel.group_by_column = 1;  // g in 0..7
  const int distinct = b.AddOp(OperatorType::kDistinct, {scan}, dopts);
  auto plan = b.Build();
  ASSERT_TRUE(plan.ok());
  QueryExecution exec(&catalog_, &*plan, kChunk);
  RunAll(*plan, &exec);
  EXPECT_EQ(exec.output(distinct).num_rows(), 8u);
}

TEST_F(KernelsTest, LimitStopsAtN) {
  PlanBuilder b(&catalog_);
  const int scan = b.AddSource(OperatorType::kTableScan, t_id_, {});
  PlanBuilder::NodeOptions lopts;
  lopts.kernel.limit = 42;
  const int limit = b.AddOp(OperatorType::kLimit, {scan}, lopts);
  auto plan = b.Build();
  ASSERT_TRUE(plan.ok());
  QueryExecution exec(&catalog_, &*plan, kChunk);
  RunAll(*plan, &exec);
  EXPECT_EQ(exec.output(limit).num_rows(), 42u);
}

TEST_F(KernelsTest, SortRunsThenMergeGloballySorted) {
  PlanBuilder b(&catalog_);
  const int scan = b.AddSource(OperatorType::kTableScan, t_id_, {});
  PlanBuilder::NodeOptions sopts;
  sopts.kernel.sort_column = 2;
  const int runs = b.AddOp(OperatorType::kSortRuns, {scan}, sopts);
  const int merged = b.AddOp(OperatorType::kMergeSortedRuns, {runs}, sopts);
  auto plan = b.Build();
  ASSERT_TRUE(plan.ok());
  QueryExecution exec(&catalog_, &*plan, kChunk);
  RunAll(*plan, &exec);
  const RowStore& out = exec.output(merged);
  ASSERT_EQ(out.num_rows(), static_cast<size_t>(kRows));
  for (size_t r = 1; r < out.num_rows(); ++r) {
    EXPECT_LE(out.at(r - 1, 2), out.at(r, 2));
  }
}

TEST_F(KernelsTest, MergeJoinOverSortedInputs) {
  PlanBuilder b(&catalog_);
  // Sort both sides on k, then merge-join on k.
  const int tscan = b.AddSource(OperatorType::kTableScan, t_id_, {});
  PlanBuilder::NodeOptions sort_t;
  sort_t.kernel.sort_column = 0;
  const int truns = b.AddOp(OperatorType::kSortRuns, {tscan}, sort_t);
  const int tsorted = b.AddOp(OperatorType::kMergeSortedRuns, {truns}, sort_t);
  const int dscan = b.AddSource(OperatorType::kTableScan, d_id_, {});
  const int druns = b.AddOp(OperatorType::kSortRuns, {dscan}, sort_t);
  const int dsorted = b.AddOp(OperatorType::kMergeSortedRuns, {druns}, sort_t);
  PlanBuilder::NodeOptions mj;
  mj.kernel.probe_key = 0;
  mj.kernel.build_key = 0;
  const int join =
      b.AddOp(OperatorType::kMergeJoin, {tsorted, dsorted}, mj);
  auto plan = b.Build();
  ASSERT_TRUE(plan.ok());
  QueryExecution exec(&catalog_, &*plan, kChunk);
  RunAll(*plan, &exec);
  EXPECT_EQ(exec.output(join).num_rows(), static_cast<size_t>(kDimRows));
}

TEST_F(KernelsTest, IndexNestedLoopJoinUsesPrebuiltIndex) {
  PlanBuilder b(&catalog_);
  PlanBuilder::NodeOptions scan_opts;
  scan_opts.kernel.filter_column = 2;
  scan_opts.kernel.filter_lo = 0.0;
  scan_opts.kernel.filter_hi = 0.3;
  const int scan = b.AddSource(OperatorType::kSelect, t_id_, scan_opts);
  PlanBuilder::NodeOptions inlj;
  inlj.kernel.probe_key = 0;  // t.k
  inlj.kernel.index_relation = d_id_;
  inlj.kernel.index_key = 0;  // d.k
  const int join = b.AddOp(OperatorType::kIndexNestedLoopJoin, {scan}, inlj);
  b.AddBaseInput(join, d_id_);
  auto plan = b.Build();
  ASSERT_TRUE(plan.ok());
  QueryExecution exec(&catalog_, &*plan, kChunk);
  RunAll(*plan, &exec);

  // Reference: selected t rows with k < kDimRows.
  const Relation& rel = catalog_.relation(t_id_);
  int64_t expected = 0;
  for (size_t blk = 0; blk < rel.num_blocks(); ++blk) {
    const Block& block = rel.block(blk);
    for (size_t r = 0; r < block.num_rows(); ++r) {
      if (block.DoubleColumn(2)[r] <= 0.3 &&
          block.Int64Column(0)[r] < kDimRows) {
        ++expected;
      }
    }
  }
  EXPECT_EQ(static_cast<int64_t>(exec.output(join).num_rows()), expected);
}

TEST_F(KernelsTest, TopKKeepsLargest) {
  PlanBuilder b(&catalog_);
  const int scan = b.AddSource(OperatorType::kTableScan, t_id_, {});
  PlanBuilder::NodeOptions topts;
  topts.kernel.limit = 7;
  topts.kernel.sort_column = 2;
  const int topk = b.AddOp(OperatorType::kTopK, {scan}, topts);
  auto plan = b.Build();
  ASSERT_TRUE(plan.ok());
  QueryExecution exec(&catalog_, &*plan, kChunk);
  RunAll(*plan, &exec);

  const Relation& rel = catalog_.relation(t_id_);
  std::vector<double> vals;
  for (size_t blk = 0; blk < rel.num_blocks(); ++blk) {
    for (double v : rel.block(blk).DoubleColumn(2)) vals.push_back(v);
  }
  std::sort(vals.rbegin(), vals.rend());
  const RowStore& out = exec.output(topk);
  ASSERT_EQ(out.num_rows(), 7u);
  std::multiset<double> got, want;
  for (size_t r = 0; r < 7; ++r) {
    got.insert(out.at(r, 2));
    want.insert(vals[r]);
  }
  EXPECT_EQ(got, want);
}

TEST_F(KernelsTest, WindowAppendsRunningSum) {
  PlanBuilder b(&catalog_);
  const int scan = b.AddSource(OperatorType::kTableScan, t_id_, {});
  PlanBuilder::NodeOptions wopts;
  wopts.kernel.group_by_column = 1;
  wopts.kernel.agg_column = 2;
  const int window = b.AddOp(OperatorType::kWindow, {scan}, wopts);
  auto plan = b.Build();
  ASSERT_TRUE(plan.ok());
  QueryExecution exec(&catalog_, &*plan, kChunk);
  RunAll(*plan, &exec);
  const RowStore& out = exec.output(window);
  EXPECT_EQ(out.num_rows(), static_cast<size_t>(kRows));
  EXPECT_EQ(out.num_cols(), 4);  // input 3 + running sum
  // The final running sum per group equals the group total.
  std::map<int64_t, double> last, ref;
  for (size_t r = 0; r < out.num_rows(); ++r) {
    last[static_cast<int64_t>(out.at(r, 1))] = out.at(r, 3);
    ref[static_cast<int64_t>(out.at(r, 1))] += out.at(r, 2);
  }
  for (const auto& [g, total] : ref) {
    EXPECT_NEAR(last.at(g), total, 1e-6);
  }
}

TEST_F(KernelsTest, FusedPipelineEqualsStagedExecution) {
  auto make = [&]() {
    PlanBuilder b(&catalog_);
    PlanBuilder::NodeOptions s1;
    s1.kernel.filter_column = 2;
    s1.kernel.filter_lo = 0.2;
    s1.kernel.filter_hi = 1.0;
    const int scan = b.AddSource(OperatorType::kSelect, t_id_, s1);
    PlanBuilder::NodeOptions s2;
    s2.kernel.filter_column = 2;
    s2.kernel.filter_lo = 0.0;
    s2.kernel.filter_hi = 0.6;
    const int sel = b.AddOp(OperatorType::kSelect, {scan}, s2);
    auto plan = b.Build();
    EXPECT_TRUE(plan.ok());
    return std::make_pair(std::move(plan).value(), std::make_pair(scan, sel));
  };
  auto [p1, ops1] = make();
  auto [p2, ops2] = make();

  // Fused: one chain work order per source block.
  QueryExecution fused(&catalog_, &p1, kChunk);
  const int wos = fused.NumWorkOrders(ops1.first);
  for (int i = 0; i < wos; ++i) {
    ASSERT_TRUE(
        fused.ExecuteWorkOrder({ops1.first, ops1.second}, i).ok());
  }
  // Staged: run the scan fully, then the select over its output.
  QueryExecution staged(&catalog_, &p2, kChunk);
  RunAll(p2, &staged);
  EXPECT_EQ(fused.output(ops1.second).num_rows(),
            staged.output(ops2.second).num_rows());
}

TEST_F(KernelsTest, StateBytesGrowWithConsumedRows) {
  PlanBuilder b(&catalog_);
  const int scan = b.AddSource(OperatorType::kTableScan, d_id_, {});
  PlanBuilder::NodeOptions bopts;
  bopts.kernel.build_key = 0;
  const int build = b.AddOp(OperatorType::kBuildHash, {scan}, bopts);
  auto plan = b.Build();
  ASSERT_TRUE(plan.ok());
  QueryExecution exec(&catalog_, &*plan, kChunk);
  for (int i = 0; i < exec.NumWorkOrders(scan); ++i) {
    ASSERT_TRUE(exec.ExecuteWorkOrder({scan}, i).ok());
  }
  ASSERT_TRUE(exec.FinalizeOperator(scan).ok());
  EXPECT_EQ(exec.StateBytes(build), 0u);
  ASSERT_TRUE(exec.ExecuteWorkOrder({build}, 0).ok());
  const size_t after_one = exec.StateBytes(build);
  EXPECT_GT(after_one, 0u);
  ASSERT_TRUE(exec.ExecuteWorkOrder({build}, 1).ok());
  EXPECT_GT(exec.StateBytes(build), after_one);
}

TEST_F(KernelsTest, TopKWithTiedKeysMatchesOracle) {
  // g takes 8 values over 3000 rows, so the cut at 7 falls inside a tie:
  // the rows kept are the earliest of the tied ones, as the oracle's
  // stable sort keeps them.
  PlanBuilder b(&catalog_);
  const int scan = b.AddSource(OperatorType::kTableScan, t_id_, {});
  PlanBuilder::NodeOptions topts;
  topts.kernel.limit = 7;
  topts.kernel.sort_column = 1;
  const int topk = b.AddOp(OperatorType::kTopK, {scan}, topts);
  auto plan = b.Build();
  ASSERT_TRUE(plan.ok());
  ExpectMatchesOracle(*plan, topk);
}

TEST_F(KernelsTest, WindowMatchesOracle) {
  PlanBuilder b(&catalog_);
  const int scan = b.AddSource(OperatorType::kTableScan, t_id_, {});
  PlanBuilder::NodeOptions wopts;
  wopts.kernel.group_by_column = 1;
  wopts.kernel.agg_column = 2;
  const int window = b.AddOp(OperatorType::kWindow, {scan}, wopts);
  auto plan = b.Build();
  ASSERT_TRUE(plan.ok());
  ExpectMatchesOracle(*plan, window);
}

TEST_F(KernelsTest, IntersectMatchesOracle) {
  PlanBuilder b(&catalog_);
  const int tscan = b.AddSource(OperatorType::kTableScan, t_id_, {});
  const int dscan = b.AddSource(OperatorType::kTableScan, d_id_, {});
  const int both = b.AddOp(OperatorType::kIntersect, {tscan, dscan}, {});
  auto plan = b.Build();
  ASSERT_TRUE(plan.ok());
  ExpectMatchesOracle(*plan, both);
}

TEST_F(KernelsTest, ConcurrentBuildAndProbeEqualSingleThreaded) {
  PlanBuilder b(&catalog_);
  const int dscan = b.AddSource(OperatorType::kTableScan, d_id_, {});
  PlanBuilder::NodeOptions bopts;
  bopts.kernel.build_key = 0;
  const int build = b.AddOp(OperatorType::kBuildHash, {dscan}, bopts);
  const int tscan = b.AddSource(OperatorType::kTableScan, t_id_, {});
  PlanBuilder::NodeOptions popts;
  popts.kernel.probe_key = 0;
  const int probe = b.AddOp(OperatorType::kProbeHash, {tscan, build}, popts);
  auto plan = b.Build();
  ASSERT_TRUE(plan.ok());

  QueryExecution reference(&catalog_, &*plan, kChunk);
  RunAll(*plan, &reference);

  // Two threads start each phase together and split its work orders.
  auto run_split = [](int wos, const std::function<void(int)>& run_wo) {
    std::atomic<int> ready{0};
    auto worker = [&](int parity) {
      ready.fetch_add(1);
      while (ready.load() < 2) {
      }
      for (int i = parity; i < wos; i += 2) run_wo(i);
    };
    std::thread a(worker, 0), c(worker, 1);
    a.join();
    c.join();
  };
  QueryExecution exec(&catalog_, &*plan, kChunk);
  for (int i = 0; i < exec.NumWorkOrders(dscan); ++i) {
    ASSERT_TRUE(exec.ExecuteWorkOrder({dscan}, i).ok());
  }
  ASSERT_TRUE(exec.FinalizeOperator(dscan).ok());
  const int build_wos = exec.NumWorkOrders(build);
  ASSERT_GE(build_wos, 2);
  run_split(build_wos, [&](int i) {
    EXPECT_TRUE(exec.ExecuteWorkOrder({build}, i).ok());
  });
  ASSERT_TRUE(exec.FinalizeOperator(build).ok());
  // Both probing threads race to build the index at their first probe.
  run_split(exec.NumWorkOrders(tscan), [&](int i) {
    WorkOrderScratch scratch;
    EXPECT_TRUE(exec.ExecuteWorkOrder({tscan, probe}, i, &scratch).ok());
  });
  EXPECT_EQ(exec.output(probe).num_rows(), static_cast<size_t>(kDimRows));
  EXPECT_EQ(SortedRows(exec, probe), SortedRows(reference, probe));
}

#if LSCHED_COUNT_ALLOCS
/// Runs `passes` rounds over every work order of `chain` on one reused
/// scratch and returns the heap allocations made, less the growths of the
/// chain's output stores (a store grows geometrically, so those are a
/// handful per query, not per work order). Two warm-up rounds come first:
/// the scratch batches swap roles from stage to stage, so within two
/// rounds each has grown to every work order's size in every role.
int64_t AllocationsBeyondStoreGrowth(QueryExecution* exec,
                                     const std::vector<int>& chain,
                                     int passes, int64_t* store_growths) {
  WorkOrderScratch scratch;
  const int wos = exec->NumWorkOrders(chain[0]);
  for (int warm = 0; warm < 2 * wos; ++warm) {
    EXPECT_TRUE(exec->ExecuteWorkOrder(chain, warm % wos, &scratch).ok());
  }
  int64_t allocations = 0;
  *store_growths = 0;
  std::vector<size_t> caps(chain.size());
  for (int pass = 0; pass < passes; ++pass) {
    for (int i = 0; i < wos; ++i) {
      for (size_t c = 0; c < chain.size(); ++c) {
        caps[c] = exec->output(chain[c]).rows().data.capacity();
      }
      const int64_t before = g_allocations.load();
      const Status st = exec->ExecuteWorkOrder(chain, i, &scratch);
      allocations += g_allocations.load() - before;
      EXPECT_TRUE(st.ok());
      for (size_t c = 0; c < chain.size(); ++c) {
        *store_growths +=
            exec->output(chain[c]).rows().data.capacity() != caps[c];
      }
    }
  }
  return allocations - *store_growths;
}

TEST_F(KernelsTest, SteadyStateScanSelectProjectAllocatesNothing) {
  PlanBuilder b(&catalog_);
  PlanBuilder::NodeOptions sopts;
  sopts.kernel.filter_column = 2;
  sopts.kernel.filter_lo = 0.2;
  sopts.kernel.filter_hi = 0.9;
  sopts.kernel.project_columns = {0, 2};
  const int sel = b.AddSource(OperatorType::kSelect, t_id_, sopts);
  PlanBuilder::NodeOptions popts;
  popts.kernel.project_columns = {1, 0};
  const int proj = b.AddOp(OperatorType::kProject, {sel}, popts);
  auto plan = b.Build();
  ASSERT_TRUE(plan.ok());
  QueryExecution exec(&catalog_, &*plan, kChunk);
  int64_t growths = 0;
  EXPECT_EQ(AllocationsBeyondStoreGrowth(&exec, {sel, proj}, 20, &growths),
            0);
  // 240 work orders; the two stores grew only a few dozen times.
  EXPECT_LT(growths, 60);
}

TEST_F(KernelsTest, SteadyStateProbeAllocatesNothing) {
  PlanBuilder b(&catalog_);
  const int dscan = b.AddSource(OperatorType::kTableScan, d_id_, {});
  PlanBuilder::NodeOptions bopts;
  bopts.kernel.build_key = 0;
  const int build = b.AddOp(OperatorType::kBuildHash, {dscan}, bopts);
  const int tscan = b.AddSource(OperatorType::kTableScan, t_id_, {});
  PlanBuilder::NodeOptions popts;
  popts.kernel.probe_key = 0;
  const int probe = b.AddOp(OperatorType::kProbeHash, {tscan, build}, popts);
  auto plan = b.Build();
  ASSERT_TRUE(plan.ok());
  QueryExecution exec(&catalog_, &*plan, kChunk);
  for (int op : {dscan, build}) {
    for (int i = 0; i < exec.NumWorkOrders(op); ++i) {
      ASSERT_TRUE(exec.ExecuteWorkOrder({op}, i).ok());
    }
    ASSERT_TRUE(exec.FinalizeOperator(op).ok());
  }
  int64_t growths = 0;
  EXPECT_EQ(AllocationsBeyondStoreGrowth(&exec, {tscan, probe}, 20, &growths),
            0);
  EXPECT_LT(growths, 60);
}
#else
TEST_F(KernelsTest, SteadyStateScanSelectProjectAllocatesNothing) {
  GTEST_SKIP() << "allocation counting is off in sanitizer builds";
}
TEST_F(KernelsTest, SteadyStateProbeAllocatesNothing) {
  GTEST_SKIP() << "allocation counting is off in sanitizer builds";
}
#endif

}  // namespace
}  // namespace lsched
