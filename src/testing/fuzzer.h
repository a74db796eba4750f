#ifndef LSCHED_TESTING_FUZZER_H_
#define LSCHED_TESTING_FUZZER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "exec/real_engine.h"
#include "exec/sim_engine.h"
#include "plan/query_plan.h"
#include "serve/scripted_ingress.h"
#include "storage/catalog.h"
#include "testing/faultpoint.h"
#include "util/rng.h"

namespace lsched {

struct FuzzerOptions {
  int min_tables = 2;
  int max_tables = 4;
  int64_t min_rows = 80;
  int64_t max_rows = 700;
  int min_queries = 1;
  int max_queries = 3;
  /// Mean exponential inter-arrival gap for RealEngine submissions (wall
  /// seconds) and SimEngine submissions (virtual seconds).
  double real_arrival_mean_seconds = 0.002;
  double sim_arrival_mean_seconds = 0.05;
  /// Scenario preset name (workload/scenario.h). When set, NextWorkload()
  /// draws arrivals from the preset's time-varying rate curve instead of a
  /// homogeneous Poisson process, rescaled so the preset's base rate maps
  /// onto the mean gaps above, and exports the preset's pool-elasticity
  /// events (FuzzedWorkload::{sim,real}_thread_events) in each engine's
  /// timebase. Unknown names are a hard error.
  std::string scenario{};

  /// --- chaos mode (DESIGN.md §10) ---------------------------------------
  /// When true, NextWorkload() also fuzzes a FaultSchedule + cancellation
  /// script and records the exact terminal status every query must reach.
  bool chaos = false;
  /// Fraction of queries cancelled before they can run (t=0 cancels, which
  /// deterministically beat every arrival in both engines).
  double chaos_cancel_fraction = 0.25;
  /// Fraction of queries given a query-scoped always-fail work_order_exec
  /// rule (fails every attempt, so the query deterministically FAILs after
  /// exhausting its retries in either engine).
  double chaos_fail_fraction = 0.2;
  /// Per-hit probability of a global work-order delay fault (does not
  /// change any terminal status, just perturbs timing).
  double chaos_stall_probability = 0.08;
  double chaos_stall_seconds = 0.001;

  /// --- multi-tenant serving scripts (DESIGN.md §11) ---------------------
  /// Tenants to spread fuzzed queries across: tags are drawn per query and
  /// attached identically to both engines' submissions. 1 = single-tenant
  /// (all-default tags, the pre-serving behaviour).
  int num_tenants = 1;
  /// Priority mix of fuzzed tags: probability of kHigh and kLow (the
  /// remainder is kNormal).
  double high_priority_fraction = 0.0;
  double low_priority_fraction = 0.0;
  /// FuzzIngress(): submissions per script, mean exponential inter-arrival
  /// gap (script seconds), and the fraction of submissions that also get a
  /// scripted cancellation later in the stream.
  int script_queries = 32;
  double script_arrival_mean_seconds = 0.05;
  double script_cancel_fraction = 0.1;
};

/// One fuzzed workload: a catalog plus the same query plans packaged for
/// both engines (wall-clock arrival offsets for RealEngine, virtual arrival
/// times for SimEngine).
struct FuzzedWorkload {
  uint64_t seed = 0;  ///< the seed this workload was generated from
  std::unique_ptr<Catalog> catalog;
  std::vector<RealQuerySubmission> real_queries;
  std::vector<QuerySubmission> sim_queries;
  /// Pool-elasticity events from the scenario preset (empty without
  /// FuzzerOptions::scenario), pre-scaled to each engine's timebase. Pass
  /// to SimEngineConfig/RealEngineConfig::thread_events.
  std::vector<ThreadPoolEvent> sim_thread_events;
  std::vector<ThreadPoolEvent> real_thread_events;

  /// Chaos script (empty unless FuzzerOptions::chaos). Install `faults`
  /// into FaultInjector::Global() and pass `cancels` to the engine config;
  /// every query must then terminate in `expected_statuses[id]` regardless
  /// of engine, scheduler, or thread count.
  FaultSchedule faults;
  std::vector<CancelRequest> cancels;
  std::vector<QueryStatus> expected_statuses;
};

/// Seeded generator of randomized catalogs, plan DAGs, and arrival
/// patterns for the differential harness. Every plan it emits satisfies the
/// OracleExecutor contract (deterministic result sets under any thread
/// count): integer-valued data, no kLimit/kWindow, TopK only on a unique
/// column, Distinct only after projecting to the key.
///
/// Generated catalogs: 2-4 tables "t0".."tN", each with columns
/// id (sequential, unique), fk (foreign key into the previous table's id,
/// or into t0 itself for t0), val (uniform int), grp (skewed small-domain
/// int). Plan shapes cover pipeline chains, hash/merge/nested-loop/index
/// joins (fan-in), unions of 2-3 branches, intersects, sorts, top-k, and
/// aggregation sinks (scalar, grouped, partial+finalize, distinct).
class WorkloadFuzzer {
 public:
  explicit WorkloadFuzzer(uint64_t seed, FuzzerOptions options = {});

  uint64_t seed() const { return seed_; }

  /// Generates a complete workload (fresh catalog + queries + arrivals).
  FuzzedWorkload NextWorkload();

  /// Pieces, exposed for focused tests.
  std::unique_ptr<Catalog> FuzzCatalog();
  QueryPlan FuzzPlan(const Catalog& catalog);

  /// A fuzzed tenant/priority tag under the configured mix.
  QueryTag FuzzTag();

  /// A deterministic multi-tenant arrival script over `catalog`
  /// (DESIGN.md §11): `script_queries` tagged submissions with exponential
  /// inter-arrival gaps drawn from a small fuzzed plan library, plus
  /// scripted cancellations for a fraction of them. The same script drives
  /// SimEngine episodes, RealEngine episodes, and live daemon replays (see
  /// serve/scripted_ingress.h).
  ScriptedIngress FuzzIngress(const Catalog& catalog);

 private:
  struct Stream;  // node id + tracked schema facts while building a plan

  Stream FuzzSource(class PlanBuilder* b, const Catalog& catalog,
                    RelationId table);
  Stream FuzzChain(class PlanBuilder* b, Stream s);
  void FuzzSink(class PlanBuilder* b, const Stream& s);
  /// Fuzzes the chaos script (faults/cancels/expected_statuses) for `w`.
  void FuzzChaos(FuzzedWorkload* w);

  uint64_t seed_;
  FuzzerOptions options_;
  Rng rng_;
};

}  // namespace lsched

#endif  // LSCHED_TESTING_FUZZER_H_
