#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "plan/query_plan.h"
#include "storage/catalog.h"
#include "testing/oracle.h"

namespace perfbench {

/// Shape of a serving workload's generated inputs.
struct InputSpec {
  int64_t rows_per_table = 0;
  /// Rows per catalog block, one entry per table (three tables). Fixed per
  /// workload: the fuzzer's own catalog draws 64/128/256 per table from the
  /// seed, so a query's work-order count would change from seed to seed.
  std::vector<size_t> block_rows;
};

struct LibraryPlan {
  lsched::QueryPlan plan;
  lsched::OracleQueryResult oracle;
  double est_cost = 0.0;  ///< cost model estimate, work-order seconds
};

struct ServingInputs {
  std::unique_ptr<lsched::Catalog> catalog;
  std::vector<LibraryPlan> library;
};

/// Builds the catalog (three tables of the fuzzer schema: id, fk, val,
/// grp, at the given block sizes), fuzzes a pool of candidate plans, picks
/// the library from it by estimated cost and runs the oracle on each
/// library plan. Deterministic in `seed`.
ServingInputs BuildServingInputs(const InputSpec& spec, uint64_t seed);

/// The differential harness's checksum tolerance.
bool ChecksumsMatch(double oracle, double engine);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
