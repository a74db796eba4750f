#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "storage/table_generator.h"
#include "testing/fuzzer.h"
#include "util/logging.h"
#include "util/rng.h"

namespace perfbench {

using namespace lsched;

namespace {

constexpr int kTables = 3;
/// Plans in a library, and the fuzzed candidates they are chosen from.
constexpr int kLibrary = 32;
constexpr int kPool = 160;

/// The fuzzer's table layout (testing/fuzzer.cc) at chosen block sizes:
/// fuzzed plans reference these columns by position.
std::unique_ptr<Catalog> FuzzerSchemaCatalog(const InputSpec& spec,
                                             Rng* rng) {
  auto catalog = std::make_unique<Catalog>();
  LSCHED_CHECK(spec.block_rows.size() == kTables);
  for (int i = 0; i < kTables; ++i) {
    TableSpec t;
    t.name = "t" + std::to_string(i);
    t.num_rows = spec.rows_per_table;
    t.block_capacity = spec.block_rows[static_cast<size_t>(i)];
    t.columns = {
        {"id", DataType::kInt64, ColumnDistribution::kSequential, 0, 0, 0},
        {"fk", DataType::kInt64, ColumnDistribution::kForeignKey, 0,
         static_cast<double>(spec.rows_per_table), 0},
        {"val", DataType::kInt64, ColumnDistribution::kUniformInt, 0, 40, 0},
        {"grp", DataType::kInt64, ColumnDistribution::kZipfInt, 0, 8, 0.5}};
    const auto added = catalog->AddRelation(GenerateTable(t, rng));
    LSCHED_CHECK(added.ok()) << added.status().ToString();
  }
  return catalog;
}

/// The cost model's estimate of a plan's total work-order seconds.
double EstimatedCost(const QueryPlan& plan) {
  double cost = 0.0;
  for (const PlanNode& n : plan.nodes()) cost += n.num_work_orders * n.est_cost_per_wo;
  return cost;
}

/// Block nested-loop joins are quadratic in both the engine and the
/// oracle; they are left out of the libraries.
bool HasNestedLoopJoin(const QueryPlan& plan) {
  for (const PlanNode& n : plan.nodes()) {
    if (n.type == OperatorType::kNestedLoopJoin) return true;
  }
  return false;
}

}  // namespace

bool ChecksumsMatch(double oracle, double engine) {
  const double tol = std::max(1e-6, 1e-9 * std::abs(oracle));
  return std::abs(oracle - engine) <= tol;
}

ServingInputs BuildServingInputs(const InputSpec& spec, uint64_t seed) {
  WorkloadFuzzer fuzzer(seed);
  ServingInputs in;
  Rng rng(seed ^ 0xb10cULL);
  in.catalog = FuzzerSchemaCatalog(spec, &rng);
  // Fuzz a candidate pool and keep the plans at evenly spaced quantiles of
  // the cost model's estimate, between the 5th and 85th percentile: every
  // seed then gets a library with the same cost profile, without the heavy
  // tail that would otherwise decide the latency tail.
  std::vector<std::pair<double, size_t>> by_cost;
  std::vector<QueryPlan> pool;
  while (static_cast<int>(pool.size()) < kPool) {
    QueryPlan plan = fuzzer.FuzzPlan(*in.catalog);
    if (HasNestedLoopJoin(plan)) continue;
    by_cost.push_back({EstimatedCost(plan), pool.size()});
    pool.push_back(std::move(plan));
  }
  std::sort(by_cost.begin(), by_cost.end());
  const OracleExecutor oracle(in.catalog.get());
  for (int j = 0; j < kLibrary; ++j) {
    const double q = 0.05 + 0.80 * j / (kLibrary - 1);
    const size_t pick = by_cost[static_cast<size_t>(q * (by_cost.size() - 1) + 0.5)].second;
    auto result = oracle.Execute(pool[pick]);
    LSCHED_CHECK(result.ok()) << result.status().ToString();
    in.library.push_back(LibraryPlan{pool[pick], std::move(result).value(),
                                     EstimatedCost(pool[pick])});
  }
  return in;
}

}  // namespace perfbench
