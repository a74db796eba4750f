#include "testing/fuzzer.h"

#include <algorithm>
#include <optional>
#include <string>

#include "plan/plan_builder.h"
#include "storage/table_generator.h"
#include "util/logging.h"
#include "workload/scenario.h"

namespace lsched {

namespace {

/// Column layout of every fuzzed table (see header).
constexpr int kIdCol = 0;
constexpr int kFkCol = 1;
constexpr int kValCol = 2;
constexpr int kGrpCol = 3;
constexpr int kTableArity = 4;
constexpr int64_t kValDomain = 40;  ///< val uniform in [0, kValDomain]
constexpr int64_t kGrpDomain = 8;   ///< grp in [0, kGrpDomain)

/// Aggregate functions that keep integer inputs integer-valued (kAvg is
/// excluded: division would make checksums order-sensitive in the last
/// ULPs).
AggFn RandomIntegerAggFn(Rng* rng) {
  switch (rng->UniformInt(static_cast<uint64_t>(4))) {
    case 0:
      return AggFn::kSum;
    case 1:
      return AggFn::kCount;
    case 2:
      return AggFn::kMin;
    default:
      return AggFn::kMax;
  }
}

}  // namespace

struct WorkloadFuzzer::Stream {
  int node = -1;
  int arity = kTableArity;
  /// True while column 0 is known to hold unique values (the table id
  /// column surviving filters/1:1 joins) — required for a tie-free TopK.
  bool unique0 = true;
};

WorkloadFuzzer::WorkloadFuzzer(uint64_t seed, FuzzerOptions options)
    : seed_(seed), options_(options), rng_(seed) {}

std::unique_ptr<Catalog> WorkloadFuzzer::FuzzCatalog() {
  auto catalog = std::make_unique<Catalog>();
  const int num_tables = static_cast<int>(
      rng_.UniformInt(static_cast<int64_t>(options_.min_tables),
                      static_cast<int64_t>(options_.max_tables)));
  std::vector<int64_t> rows(static_cast<size_t>(num_tables));
  for (int i = 0; i < num_tables; ++i) {
    rows[static_cast<size_t>(i)] =
        rng_.UniformInt(options_.min_rows, options_.max_rows);
  }
  static const size_t kCapacities[] = {64, 128, 256};
  for (int i = 0; i < num_tables; ++i) {
    // fk of table i references table i-1's sequential id (t0 references
    // itself), guaranteeing 1:1 hash-join fan-out against an unfiltered
    // build side.
    const int ref = i > 0 ? i - 1 : 0;
    TableSpec spec;
    spec.name = "t";
    spec.name += std::to_string(i);
    spec.num_rows = rows[static_cast<size_t>(i)];
    spec.block_capacity = kCapacities[rng_.UniformInt(static_cast<uint64_t>(3))];
    spec.columns = {
        {"id", DataType::kInt64, ColumnDistribution::kSequential, 0, 0, 0},
        {"fk", DataType::kInt64, ColumnDistribution::kForeignKey, 0,
         static_cast<double>(rows[static_cast<size_t>(ref)]), 0},
        {"val", DataType::kInt64, ColumnDistribution::kUniformInt, 0,
         static_cast<double>(kValDomain), 0},
        {"grp", DataType::kInt64, ColumnDistribution::kZipfInt, 0,
         static_cast<double>(kGrpDomain), 0.5}};
    const auto added = catalog->AddRelation(GenerateTable(spec, &rng_));
    LSCHED_CHECK(added.ok()) << added.status().ToString();
  }
  return catalog;
}

WorkloadFuzzer::Stream WorkloadFuzzer::FuzzSource(PlanBuilder* b,
                                                  const Catalog& catalog,
                                                  RelationId table) {
  (void)catalog;
  Stream s;
  const uint64_t kind = rng_.UniformInt(static_cast<uint64_t>(10));
  if (kind < 3) {  // plain scan
    s.node = b->AddSource(OperatorType::kTableScan, table, {});
    return s;
  }
  PlanBuilder::NodeOptions opts;
  if (kind < 8) {  // filter on val
    const int64_t lo = rng_.UniformInt(static_cast<int64_t>(0), 30);
    const int64_t width = rng_.UniformInt(static_cast<int64_t>(5), 25);
    opts.kernel.filter_column = kValCol;
    opts.kernel.filter_lo = static_cast<double>(lo);
    opts.kernel.filter_hi = static_cast<double>(lo + width);
    opts.selectivity =
        std::min(1.0, static_cast<double>(width + 1) /
                          static_cast<double>(kValDomain + 1));
  } else if (kind < 9) {  // filter on grp
    const int64_t hi = rng_.UniformInt(static_cast<int64_t>(0), kGrpDomain - 2);
    opts.kernel.filter_column = kGrpCol;
    opts.kernel.filter_lo = 0.0;
    opts.kernel.filter_hi = static_cast<double>(hi);
    opts.selectivity = static_cast<double>(hi + 1) /
                       static_cast<double>(kGrpDomain);
  } else {  // empty-result filter: exercises empty intermediates
    opts.kernel.filter_column = kValCol;
    opts.kernel.filter_lo = static_cast<double>(kValDomain + 60);
    opts.kernel.filter_hi = static_cast<double>(kValDomain + 80);
    opts.selectivity = 0.0;
  }
  s.node = b->AddSource(OperatorType::kSelect, table, opts);
  return s;
}

WorkloadFuzzer::Stream WorkloadFuzzer::FuzzChain(PlanBuilder* b, Stream s) {
  // Extend full-arity streams with 0-2 chained filters (pipeline chains of
  // varying length). Filters reference the base-table layout, so only apply
  // while the stream still has it.
  if (s.arity != kTableArity) return s;
  const uint64_t extra = rng_.UniformInt(static_cast<uint64_t>(3));
  for (uint64_t i = 0; i < extra; ++i) {
    PlanBuilder::NodeOptions opts;
    if (rng_.UniformInt(static_cast<uint64_t>(2)) == 0) {
      opts.kernel.filter_column = kValCol;
      opts.kernel.filter_lo = 0.0;
      opts.kernel.filter_hi = static_cast<double>(
          rng_.UniformInt(static_cast<int64_t>(15), kValDomain));
      opts.selectivity = opts.kernel.filter_hi /
                         static_cast<double>(kValDomain + 1);
    } else {
      opts.kernel.filter_column = kGrpCol;
      opts.kernel.filter_lo = 0.0;
      opts.kernel.filter_hi = static_cast<double>(
          rng_.UniformInt(static_cast<int64_t>(2), kGrpDomain - 1));
      opts.selectivity = (opts.kernel.filter_hi + 1.0) /
                         static_cast<double>(kGrpDomain);
    }
    s.node = b->AddOp(OperatorType::kSelect, {s.node}, opts);
  }
  return s;
}

void WorkloadFuzzer::FuzzSink(PlanBuilder* b, const Stream& s) {
  uint64_t choice = rng_.UniformInt(static_cast<uint64_t>(14));
  if (choice >= 12 && !s.unique0) choice = 3;  // TopK needs a unique column
  if (choice < 2) {
    return;  // raw stream sink
  }
  if (choice < 4) {  // scalar aggregate
    PlanBuilder::NodeOptions opts;
    opts.kernel.group_by_column = -1;
    opts.kernel.agg_column = static_cast<int>(
        rng_.UniformInt(static_cast<uint64_t>(s.arity)));
    opts.kernel.agg_fn = RandomIntegerAggFn(&rng_);
    b->AddOp(OperatorType::kHashAggregate, {s.node}, opts);
    return;
  }
  if (choice < 7) {  // grouped aggregate (hash or sorted flavour)
    PlanBuilder::NodeOptions opts;
    opts.kernel.group_by_column = static_cast<int>(
        rng_.UniformInt(static_cast<uint64_t>(s.arity)));
    opts.kernel.agg_column = static_cast<int>(
        rng_.UniformInt(static_cast<uint64_t>(s.arity)));
    opts.kernel.agg_fn = RandomIntegerAggFn(&rng_);
    const OperatorType type = rng_.UniformInt(static_cast<uint64_t>(2)) == 0
                                  ? OperatorType::kHashAggregate
                                  : OperatorType::kSortedAggregate;
    b->AddOp(type, {s.node}, opts);
    return;
  }
  if (choice < 9) {  // partial aggregate + finalizer
    PlanBuilder::NodeOptions partial;
    partial.kernel.group_by_column = static_cast<int>(
        rng_.UniformInt(static_cast<uint64_t>(s.arity)));
    partial.kernel.agg_column = static_cast<int>(
        rng_.UniformInt(static_cast<uint64_t>(s.arity)));
    partial.kernel.agg_fn = RandomIntegerAggFn(&rng_);
    const int p = b->AddOp(OperatorType::kHashAggregate, {s.node}, partial);
    PlanBuilder::NodeOptions fin;
    fin.kernel.group_by_column = 0;
    fin.kernel.agg_column = 1;
    fin.kernel.agg_fn = partial.kernel.agg_fn;
    b->AddOp(OperatorType::kFinalizeAggregate, {p}, fin);
    return;
  }
  if (choice < 11) {  // distinct over a single projected key column
    PlanBuilder::NodeOptions proj;
    proj.kernel.project_columns = {static_cast<int>(
        rng_.UniformInt(static_cast<uint64_t>(s.arity)))};
    const int p = b->AddOp(OperatorType::kProject, {s.node}, proj);
    PlanBuilder::NodeOptions distinct;
    distinct.kernel.group_by_column = 0;
    b->AddOp(OperatorType::kDistinct, {p}, distinct);
    return;
  }
  if (choice < 12) {  // sort pipeline
    const int sc = static_cast<int>(
        rng_.UniformInt(static_cast<uint64_t>(s.arity)));
    PlanBuilder::NodeOptions sort_opts;
    sort_opts.kernel.sort_column = sc;
    const int runs = b->AddOp(OperatorType::kSortRuns, {s.node}, sort_opts);
    b->AddOp(OperatorType::kMergeSortedRuns, {runs}, sort_opts);
    return;
  }
  // TopK on the unique id column (tie-free by construction).
  PlanBuilder::NodeOptions topk;
  topk.kernel.sort_column = 0;
  topk.kernel.limit = rng_.UniformInt(static_cast<int64_t>(1), 20);
  b->AddOp(OperatorType::kTopK, {s.node}, topk);
}

QueryPlan WorkloadFuzzer::FuzzPlan(const Catalog& catalog) {
  const int num_tables = static_cast<int>(catalog.num_relations());
  PlanBuilder b(&catalog);

  // Pick a "fact" table and the "dim" table its fk column references.
  const RelationId fact = static_cast<RelationId>(
      rng_.UniformInt(static_cast<uint64_t>(num_tables)));
  const RelationId dim = fact > 0 ? fact - 1 : 0;

  Stream s;
  const uint64_t shape = rng_.UniformInt(static_cast<uint64_t>(18));
  if (shape < 3) {  // plain chain, optionally projected
    s = FuzzChain(&b, FuzzSource(&b, catalog, fact));
    if (rng_.UniformInt(static_cast<uint64_t>(3)) == 0) {
      // Increasing column subset; unique0 survives iff column 0 leads.
      std::vector<int> keep;
      for (int c = 0; c < s.arity; ++c) {
        if (rng_.UniformInt(static_cast<uint64_t>(2)) == 0) keep.push_back(c);
      }
      if (keep.empty()) keep.push_back(kIdCol);
      PlanBuilder::NodeOptions proj;
      proj.kernel.project_columns = keep;
      s.node = b.AddOp(OperatorType::kProject, {s.node}, proj);
      s.unique0 = s.unique0 && keep[0] == kIdCol;
      s.arity = static_cast<int>(keep.size());
    }
  } else if (shape < 7) {  // hash join, optionally two levels deep
    Stream dstream = FuzzSource(&b, catalog, dim);
    PlanBuilder::NodeOptions build_opts;
    build_opts.kernel.build_key = kIdCol;
    const int build =
        b.AddOp(OperatorType::kBuildHash, {dstream.node}, build_opts);
    s = FuzzChain(&b, FuzzSource(&b, catalog, fact));
    PlanBuilder::NodeOptions probe_opts;
    probe_opts.kernel.probe_key = kFkCol;
    probe_opts.selectivity = 1.0;
    s.node = b.AddOp(OperatorType::kProbeHash, {s.node, build}, probe_opts);
    s.arity += dstream.arity;
    if (fact > 1 && rng_.UniformInt(static_cast<uint64_t>(2)) == 0) {
      // Second join level: the first dim's fk column (now at position
      // kTableArity + kFkCol) references table dim-1.
      Stream d2 = FuzzSource(&b, catalog, dim - 1);
      PlanBuilder::NodeOptions build2;
      build2.kernel.build_key = kIdCol;
      const int b2 = b.AddOp(OperatorType::kBuildHash, {d2.node}, build2);
      PlanBuilder::NodeOptions probe2;
      probe2.kernel.probe_key = kTableArity + kFkCol;
      probe2.selectivity = 1.0;
      s.node = b.AddOp(OperatorType::kProbeHash, {s.node, b2}, probe2);
      s.arity += d2.arity;
    }
  } else if (shape < 9) {  // union fan-in of 2-3 branches
    const uint64_t branches = 2 + rng_.UniformInt(static_cast<uint64_t>(2));
    std::vector<int> inputs;
    for (uint64_t i = 0; i < branches; ++i) {
      inputs.push_back(FuzzSource(&b, catalog, fact).node);
    }
    s.node = b.AddOp(OperatorType::kUnion, inputs, {});
    s.unique0 = false;  // the same id can pass several branch filters
  } else if (shape < 11) {  // intersect of two filtered branches
    const Stream left = FuzzSource(&b, catalog, fact);
    const Stream right = FuzzSource(&b, catalog, fact);
    s = left;
    s.node = b.AddOp(OperatorType::kIntersect, {left.node, right.node}, {});
  } else if (shape < 13) {  // sort pipeline mid-plan
    s = FuzzChain(&b, FuzzSource(&b, catalog, fact));
    const int sc = static_cast<int>(
        rng_.UniformInt(static_cast<uint64_t>(s.arity)));
    PlanBuilder::NodeOptions sort_opts;
    sort_opts.kernel.sort_column = sc;
    const int runs = b.AddOp(OperatorType::kSortRuns, {s.node}, sort_opts);
    s.node = b.AddOp(OperatorType::kMergeSortedRuns, {runs}, sort_opts);
  } else if (shape < 15) {  // merge join against a sorted dim
    PlanBuilder::NodeOptions sort_opts;
    sort_opts.kernel.sort_column = kIdCol;
    const Stream dstream = FuzzSource(&b, catalog, dim);
    const int runs =
        b.AddOp(OperatorType::kSortRuns, {dstream.node}, sort_opts);
    const int sorted =
        b.AddOp(OperatorType::kMergeSortedRuns, {runs}, sort_opts);
    s = FuzzChain(&b, FuzzSource(&b, catalog, fact));
    PlanBuilder::NodeOptions join;
    join.kernel.probe_key = kFkCol;
    join.kernel.build_key = kIdCol;
    join.selectivity = 1.0;
    s.node = b.AddOp(OperatorType::kMergeJoin, {s.node, sorted}, join);
    s.arity += dstream.arity;
  } else if (shape < 17) {  // index nested-loop join against a base table
    s = FuzzChain(&b, FuzzSource(&b, catalog, fact));
    PlanBuilder::NodeOptions join;
    join.kernel.index_relation = dim;
    join.kernel.index_key = kIdCol;
    join.kernel.probe_key = kFkCol;
    join.selectivity = 1.0;
    const int node =
        b.AddOp(OperatorType::kIndexNestedLoopJoin, {s.node}, join);
    b.AddBaseInput(node, dim);
    s.node = node;
    s.arity += kTableArity;
  } else {  // block nested-loop join (kept small via a tight outer filter)
    PlanBuilder::NodeOptions outer_opts;
    const int64_t lo = rng_.UniformInt(static_cast<int64_t>(0), 30);
    outer_opts.kernel.filter_column = kValCol;
    outer_opts.kernel.filter_lo = static_cast<double>(lo);
    outer_opts.kernel.filter_hi = static_cast<double>(
        lo + rng_.UniformInt(static_cast<int64_t>(2), 8));
    outer_opts.selectivity = 0.2;
    const int outer = b.AddSource(OperatorType::kSelect, fact, outer_opts);
    const Stream inner = FuzzSource(&b, catalog, dim);
    PlanBuilder::NodeOptions join;
    join.kernel.probe_key = kFkCol;
    join.kernel.build_key = kIdCol;
    join.selectivity = 1.0;
    s.node = b.AddOp(OperatorType::kNestedLoopJoin,
                     {outer, inner.node}, join);
    s.arity += inner.arity;
  }

  FuzzSink(&b, s);
  auto plan = b.Build();
  LSCHED_CHECK(plan.ok()) << "fuzzer built an invalid plan (seed " << seed_
                          << "): " << plan.status().ToString();
  return std::move(plan).value();
}

FuzzedWorkload WorkloadFuzzer::NextWorkload() {
  FuzzedWorkload w;
  w.seed = seed_;
  w.catalog = FuzzCatalog();
  const int num_queries = static_cast<int>(
      rng_.UniformInt(static_cast<int64_t>(options_.min_queries),
                      static_cast<int64_t>(options_.max_queries)));
  const bool tagged = options_.num_tenants > 1 ||
                      options_.high_priority_fraction > 0.0 ||
                      options_.low_priority_fraction > 0.0;

  // Arrival pattern: homogeneous Poisson by default; a scenario preset's
  // time-varying rate curve when one is named. Scenario time is rescaled so
  // one unit of "expected inter-arrival at the base rate" maps onto each
  // engine's configured mean gap — the preset's burst/diurnal shape carries
  // over while the fuzz run keeps its usual duration.
  std::vector<double> real_times(static_cast<size_t>(num_queries));
  std::vector<double> sim_times(static_cast<size_t>(num_queries));
  if (!options_.scenario.empty()) {
    const std::optional<ScenarioSpec> spec = ScenarioByName(options_.scenario);
    LSCHED_CHECK(spec.has_value())
        << "unknown scenario preset: " << options_.scenario;
    const std::vector<double> at =
        SampleArrivalTimes(spec->rate, num_queries, &rng_);
    const double real_scale =
        options_.real_arrival_mean_seconds * spec->rate.base_rate;
    const double sim_scale =
        options_.sim_arrival_mean_seconds * spec->rate.base_rate;
    for (int i = 0; i < num_queries; ++i) {
      real_times[static_cast<size_t>(i)] = at[static_cast<size_t>(i)] *
                                           real_scale;
      sim_times[static_cast<size_t>(i)] = at[static_cast<size_t>(i)] *
                                          sim_scale;
    }
    w.real_thread_events = ScaleThreadEvents(spec->thread_events, real_scale);
    w.sim_thread_events = ScaleThreadEvents(spec->thread_events, sim_scale);
  } else {
    double real_at = 0.0;
    double sim_at = 0.0;
    for (int i = 0; i < num_queries; ++i) {
      real_times[static_cast<size_t>(i)] = real_at;
      sim_times[static_cast<size_t>(i)] = sim_at;
      real_at += rng_.Exponential(options_.real_arrival_mean_seconds);
      sim_at += rng_.Exponential(options_.sim_arrival_mean_seconds);
    }
  }

  for (int i = 0; i < num_queries; ++i) {
    QueryPlan plan = FuzzPlan(*w.catalog);
    const QueryTag tag = tagged ? FuzzTag() : QueryTag{};
    w.real_queries.push_back(
        {plan, real_times[static_cast<size_t>(i)], tag});
    w.sim_queries.push_back(
        {std::move(plan), sim_times[static_cast<size_t>(i)], tag});
  }
  if (options_.chaos) FuzzChaos(&w);
  return w;
}

QueryTag WorkloadFuzzer::FuzzTag() {
  QueryTag tag;
  if (options_.num_tenants > 1) {
    tag.tenant = static_cast<TenantId>(
        rng_.UniformInt(0, static_cast<int64_t>(options_.num_tenants) - 1));
  }
  const double r = rng_.Uniform();
  if (r < options_.high_priority_fraction) {
    tag.priority = QueryPriority::kHigh;
  } else if (r <
             options_.high_priority_fraction + options_.low_priority_fraction) {
    tag.priority = QueryPriority::kLow;
  }
  return tag;
}

ScriptedIngress WorkloadFuzzer::FuzzIngress(const Catalog& catalog) {
  // Small plan library reused across the stream: serving workloads repeat
  // query shapes, and sharing plans keeps 1000-query scripts cheap.
  const int num_plans = static_cast<int>(rng_.UniformInt(
      2, static_cast<int64_t>(std::max(2, options_.script_queries / 8))));
  std::vector<QueryPlan> plans;
  plans.reserve(num_plans);
  for (int i = 0; i < num_plans; ++i) plans.push_back(FuzzPlan(catalog));

  std::vector<IngressEvent> events;
  events.reserve(options_.script_queries);
  double at = 0.0;
  for (int i = 0; i < options_.script_queries; ++i) {
    at += rng_.Exponential(options_.script_arrival_mean_seconds);
    const int plan_index = static_cast<int>(
        rng_.UniformInt(0, static_cast<int64_t>(num_plans) - 1));
    events.push_back(IngressEvent::Submit(at, plan_index, FuzzTag()));
    if (rng_.Uniform() < options_.script_cancel_fraction) {
      // Cancel the submission somewhere later in the stream (possibly
      // while it runs, possibly long after it finished — a no-op then).
      const double cancel_at =
          at + rng_.Exponential(4.0 * options_.script_arrival_mean_seconds);
      events.push_back(IngressEvent::Cancel(cancel_at, i));
    }
  }
  return ScriptedIngress(std::move(events), std::move(plans));
}

void WorkloadFuzzer::FuzzChaos(FuzzedWorkload* w) {
  const size_t n = w->sim_queries.size();
  w->expected_statuses.assign(n, QueryStatus::kDone);
  for (size_t i = 0; i < n; ++i) {
    const double r = rng_.Uniform();
    if (r < options_.chaos_cancel_fraction) {
      // A t=0 cancel is processed before any arrival in both engines
      // (admit-and-cancel), so the query deterministically never runs.
      CancelRequest cancel;
      cancel.query = static_cast<QueryId>(i);
      cancel.time = 0.0;
      w->cancels.push_back(cancel);
      w->expected_statuses[i] = QueryStatus::kCancelled;
    } else if (r < options_.chaos_cancel_fraction +
                       options_.chaos_fail_fraction) {
      // Query-scoped always-fail rule: every work-order attempt errors, so
      // the query FAILs after max_retries in either engine regardless of
      // thread interleaving. Placed before the global delay rule below
      // (Check returns the FIRST firing rule's action).
      FaultRule rule;
      rule.point = "work_order_exec";
      rule.query = static_cast<int64_t>(i);
      rule.probability = 1.0;
      rule.action = {FaultType::kError, 0.0};
      w->faults.rules.push_back(rule);
      w->expected_statuses[i] = QueryStatus::kFailed;
    }
  }
  if (options_.chaos_stall_probability > 0.0) {
    // Timing noise only: delays perturb completion order and retry timing
    // but never change which terminal status a query reaches.
    FaultRule stall;
    stall.point = "work_order_exec";
    stall.probability = options_.chaos_stall_probability;
    stall.action = {FaultType::kDelay, options_.chaos_stall_seconds};
    w->faults.rules.push_back(stall);
  }
  w->faults.seed = rng_.Next();
}

}  // namespace lsched
