#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>

#include "plan/plan_builder.h"
#include "storage/table_generator.h"
#include "testing/differential.h"
#include "testing/faultpoint.h"
#include "testing/fuzzer.h"
#include "testing/oracle.h"

namespace lsched {
namespace {

/// Structural fingerprint of a plan: node types, kernel parameters, edge
/// topology. Two plans with equal signatures execute identically.
std::string PlanSignature(const QueryPlan& plan) {
  std::ostringstream out;
  for (const PlanNode& n : plan.nodes()) {
    const KernelSpec& k = n.kernel;
    out << n.id << ":" << OperatorTypeName(n.type) << "(f" << k.filter_column
        << "," << k.filter_lo << "," << k.filter_hi << ";b" << k.build_key
        << ";p" << k.probe_key << ";g" << k.group_by_column << ";a"
        << k.agg_column << "," << static_cast<int>(k.agg_fn) << ";s"
        << k.sort_column << ";l" << k.limit << ";i" << k.index_relation << ","
        << k.index_key << ";proj";
    for (int c : k.project_columns) out << "_" << c;
    out << ";wo" << n.num_work_orders << ")\n";
  }
  for (const PlanEdge& e : plan.edges()) {
    out << e.producer << "->" << e.consumer << (e.pipeline_breaking ? "!" : "")
        << "\n";
  }
  return out.str();
}

double CatalogChecksum(const Catalog& catalog) {
  double sum = 0.0;
  for (RelationId r = 0; r < static_cast<RelationId>(catalog.num_relations());
       ++r) {
    const Relation& rel = catalog.relation(r);
    for (size_t b = 0; b < rel.num_blocks(); ++b) {
      const Block& block = rel.block(b);
      for (size_t c = 0; c < block.num_columns(); ++c) {
        for (size_t row = 0; row < block.num_rows(); ++row) {
          sum += block.ValueAsDouble(c, row);
        }
      }
    }
  }
  return sum;
}

TEST(WorkloadFuzzerTest, SameSeedSameWorkload) {
  for (uint64_t seed : {1ULL, 99ULL, 123456789ULL}) {
    WorkloadFuzzer a(seed);
    WorkloadFuzzer b(seed);
    FuzzedWorkload wa = a.NextWorkload();
    FuzzedWorkload wb = b.NextWorkload();
    ASSERT_EQ(wa.real_queries.size(), wb.real_queries.size());
    ASSERT_EQ(wa.catalog->num_relations(), wb.catalog->num_relations());
    EXPECT_DOUBLE_EQ(CatalogChecksum(*wa.catalog), CatalogChecksum(*wb.catalog));
    for (size_t i = 0; i < wa.real_queries.size(); ++i) {
      EXPECT_EQ(PlanSignature(wa.real_queries[i].plan),
                PlanSignature(wb.real_queries[i].plan));
      EXPECT_DOUBLE_EQ(wa.real_queries[i].arrival_offset_seconds,
                       wb.real_queries[i].arrival_offset_seconds);
      EXPECT_DOUBLE_EQ(wa.sim_queries[i].arrival_time,
                       wb.sim_queries[i].arrival_time);
    }
  }
}

TEST(WorkloadFuzzerTest, DifferentSeedsDiverge) {
  WorkloadFuzzer a(7);
  WorkloadFuzzer b(8);
  // A weak but deterministic statement: over a few workloads, at least one
  // structural difference shows up.
  std::string sig_a, sig_b;
  for (int i = 0; i < 5; ++i) {
    for (const auto& q : a.NextWorkload().real_queries) {
      sig_a += PlanSignature(q.plan);
    }
    for (const auto& q : b.NextWorkload().real_queries) {
      sig_b += PlanSignature(q.plan);
    }
  }
  EXPECT_NE(sig_a, sig_b);
}

TEST(WorkloadFuzzerTest, PlansAreValidAndOracleExecutable) {
  for (uint64_t seed = 0; seed < 40; ++seed) {
    WorkloadFuzzer fuzzer(seed);
    FuzzedWorkload w = fuzzer.NextWorkload();
    OracleExecutor oracle(w.catalog.get());
    for (const auto& q : w.real_queries) {
      EXPECT_TRUE(q.plan.Validate().ok()) << "seed " << seed;
      for (const PlanNode& n : q.plan.nodes()) {
        EXPECT_GE(n.num_work_orders, 1)
            << "seed " << seed << " node " << n.id;
      }
      Result<OracleQueryResult> r = oracle.Execute(q.plan);
      ASSERT_TRUE(r.ok()) << "seed " << seed << ": " << r.status().ToString();
      EXPECT_GE(r->sink_rows, 0);
    }
  }
}

TEST(WorkloadFuzzerTest, ChaosScriptsAreDeterministicAndConsistent) {
  FuzzerOptions opts;
  opts.chaos = true;
  opts.min_queries = 3;
  opts.max_queries = 6;
  for (uint64_t seed : {11ULL, 77ULL}) {
    WorkloadFuzzer a(seed, opts);
    WorkloadFuzzer b(seed, opts);
    const FuzzedWorkload wa = a.NextWorkload();
    const FuzzedWorkload wb = b.NextWorkload();
    // Same seed => same chaos script.
    ASSERT_EQ(wa.expected_statuses.size(), wa.sim_queries.size());
    ASSERT_EQ(wa.expected_statuses, wb.expected_statuses);
    ASSERT_EQ(wa.cancels.size(), wb.cancels.size());
    ASSERT_EQ(wa.faults.rules.size(), wb.faults.rules.size());
    EXPECT_EQ(wa.faults.seed, wb.faults.seed);
    // Script consistency: every cancelled query has a cancel request, every
    // failing query a query-scoped always-fail rule.
    for (size_t qi = 0; qi < wa.expected_statuses.size(); ++qi) {
      const QueryStatus expect = wa.expected_statuses[qi];
      bool has_cancel = false, has_fail_rule = false;
      for (const CancelRequest& c : wa.cancels) {
        if (c.query == static_cast<QueryId>(qi)) has_cancel = true;
      }
      for (const FaultRule& r : wa.faults.rules) {
        if (r.query == static_cast<int64_t>(qi) &&
            r.point == "work_order_exec" &&
            r.action.type == FaultType::kError) {
          has_fail_rule = true;
        }
      }
      EXPECT_EQ(has_cancel, expect == QueryStatus::kCancelled) << qi;
      EXPECT_EQ(has_fail_rule, expect == QueryStatus::kFailed) << qi;
    }
  }
}

/// Differential chaos sweep (satellite 3): under a fuzzed fault/cancel
/// script, Sim and Real must drive every query to the SAME scripted
/// terminal status, and completed queries must still match the oracle.
TEST(WorkloadFuzzerTest, DifferentialChaosTerminalStatusesAgree) {
  DifferentialOptions options;
  options.fuzzer.chaos = true;
  options.real_thread_counts = {2};
  options.sim_threads = 4;
  std::vector<NamedSchedulerFactory> factories;
  for (auto& f : HeuristicSchedulerFactories()) {
    if (f.name == "FIFO" || f.name == "SJF") factories.push_back(f);
  }
  const DifferentialReport report =
      RunDifferential(20250806, 4, factories, options);
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_GT(report.queries_run, 0);
}

TEST(WorkloadFuzzerTest, ArrivalsAreNondecreasing) {
  WorkloadFuzzer fuzzer(5, {});
  for (int i = 0; i < 10; ++i) {
    FuzzedWorkload w = fuzzer.NextWorkload();
    for (size_t q = 1; q < w.real_queries.size(); ++q) {
      EXPECT_GE(w.real_queries[q].arrival_offset_seconds,
                w.real_queries[q - 1].arrival_offset_seconds);
      EXPECT_GE(w.sim_queries[q].arrival_time,
                w.sim_queries[q - 1].arrival_time);
    }
    EXPECT_EQ(w.real_queries.front().arrival_offset_seconds, 0.0);
  }
}

TEST(WorkloadFuzzerTest, CoversDiverseOperatorMix) {
  std::set<OperatorType> seen;
  for (uint64_t seed = 0; seed < 80; ++seed) {
    WorkloadFuzzer fuzzer(seed);
    FuzzedWorkload w = fuzzer.NextWorkload();
    for (const auto& q : w.real_queries) {
      for (const PlanNode& n : q.plan.nodes()) seen.insert(n.type);
    }
  }
  for (OperatorType t : {OperatorType::kTableScan, OperatorType::kSelect,
                         OperatorType::kBuildHash, OperatorType::kProbeHash,
                         OperatorType::kUnion, OperatorType::kIntersect,
                         OperatorType::kSortRuns,
                         OperatorType::kMergeSortedRuns,
                         OperatorType::kMergeJoin,
                         OperatorType::kIndexNestedLoopJoin,
                         OperatorType::kNestedLoopJoin,
                         OperatorType::kHashAggregate,
                         OperatorType::kFinalizeAggregate,
                         OperatorType::kDistinct, OperatorType::kTopK,
                         OperatorType::kProject}) {
    EXPECT_TRUE(seen.count(t) > 0)
        << "fuzzer never generated " << OperatorTypeName(t);
  }
  // The order-dependent operators must never appear (oracle contract).
  EXPECT_EQ(seen.count(OperatorType::kLimit), 0u);
  EXPECT_EQ(seen.count(OperatorType::kWindow), 0u);
}

/// Oracle vs a hand-computed result on a tiny hand-built table: 10 rows,
/// id 0..9, val = id * 2. Filter val in [4, 10] -> ids {2,3,4,5}; scalar sum
/// of val = 4+6+8+10 = 28.
TEST(OracleExecutorTest, MatchesHandComputedReference) {
  auto catalog = std::make_unique<Catalog>();
  auto rel = std::make_unique<Relation>(
      "tiny",
      Schema({{"id", DataType::kInt64}, {"val", DataType::kInt64}}), 4);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(rel->AppendRow({static_cast<double>(i),
                                static_cast<double>(2 * i)}).ok());
  }
  ASSERT_TRUE(catalog->AddRelation(std::move(rel)).ok());

  PlanBuilder b(catalog.get());
  PlanBuilder::NodeOptions sel;
  sel.kernel.filter_column = 1;
  sel.kernel.filter_lo = 4.0;
  sel.kernel.filter_hi = 10.0;
  const int src = b.AddSource(OperatorType::kSelect, 0, sel);
  PlanBuilder::NodeOptions agg;
  agg.kernel.group_by_column = -1;
  agg.kernel.agg_column = 1;
  agg.kernel.agg_fn = AggFn::kSum;
  b.AddOp(OperatorType::kHashAggregate, {src}, agg);
  auto plan = b.Build();
  ASSERT_TRUE(plan.ok());

  OracleExecutor oracle(catalog.get());
  Result<OracleQueryResult> r = oracle.Execute(plan.value());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->sink_rows, 1);
  // Sink row is (group key = 0 scalar, sum = 28): checksum 0 + 28.
  EXPECT_DOUBLE_EQ(r->sink_checksum, 28.0);
  // Node 0 (select) emits 4 rows; node 1 (agg) emits 1.
  ASSERT_EQ(r->node_output_rows.size(), 2u);
  EXPECT_EQ(r->node_output_rows[0], 4);
  EXPECT_EQ(r->node_output_rows[1], 1);
}

}  // namespace
}  // namespace lsched
