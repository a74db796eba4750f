#include "testing/oracle.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <unordered_map>
#include <unordered_set>

namespace lsched {

namespace {

using Rows = std::vector<std::vector<double>>;

/// Mirrors the stream/side input split of QueryExecution (kernels.cc): the
/// first producer streams through binary operators; hash-join build sides
/// are consumed via operator state.
std::vector<int> StreamProducers(const QueryPlan& plan, int op) {
  const PlanNode& node = plan.node(op);
  std::vector<int> producers;
  for (int e : node.in_edges) producers.push_back(plan.edge(e).producer);
  switch (node.type) {
    case OperatorType::kProbeHash: {
      std::vector<int> out;
      for (int p : producers) {
        if (plan.node(p).type != OperatorType::kBuildHash) out.push_back(p);
      }
      return out.empty() ? producers : out;
    }
    case OperatorType::kNestedLoopJoin:
    case OperatorType::kMergeJoin:
    case OperatorType::kIntersect:
      if (producers.size() > 1) {
        producers.erase(producers.begin() + 1, producers.end());
      }
      return producers;
    default:
      return producers;
  }
}

int SideProducer(const QueryPlan& plan, int op) {
  const PlanNode& node = plan.node(op);
  std::vector<int> producers;
  for (int e : node.in_edges) producers.push_back(plan.edge(e).producer);
  switch (node.type) {
    case OperatorType::kProbeHash:
      for (int p : producers) {
        if (plan.node(p).type == OperatorType::kBuildHash) return p;
      }
      return producers.size() > 1 ? producers[1] : -1;
    case OperatorType::kNestedLoopJoin:
    case OperatorType::kMergeJoin:
    case OperatorType::kIntersect:
      return producers.size() > 1 ? producers[1] : -1;
    default:
      return -1;
  }
}

int64_t KeyOf(const std::vector<double>& row, int col) {
  const size_t c =
      col >= 0 && col < static_cast<int>(row.size()) ? static_cast<size_t>(col)
                                                     : 0;
  return static_cast<int64_t>(std::llround(row[c]));
}

void ProjectInto(const std::vector<int>& cols, std::vector<double>* row) {
  if (cols.empty()) return;
  std::vector<double> out;
  out.reserve(cols.size());
  for (int c : cols) {
    out.push_back(c >= 0 && c < static_cast<int>(row->size())
                      ? (*row)[static_cast<size_t>(c)]
                      : 0.0);
  }
  *row = std::move(out);
}

Rows RelationRows(const Relation& rel) {
  Rows rows;
  rows.reserve(static_cast<size_t>(rel.num_rows()));
  for (size_t b = 0; b < rel.num_blocks(); ++b) {
    const Block& block = rel.block(b);
    for (size_t r = 0; r < block.num_rows(); ++r) {
      std::vector<double> row(block.num_columns());
      for (size_t c = 0; c < block.num_columns(); ++c) {
        row[c] = block.ValueAsDouble(c, r);
      }
      rows.push_back(std::move(row));
    }
  }
  return rows;
}

/// All rows matching `key` in `side` on column `col` (bounded to arity),
/// appended to `row` — the naive join expansion shared by probe/NLJ/merge
/// join. The engine's merge join binary-searches a sorted right side; over
/// a sorted input that collects exactly the same match set.
void ExpandMatches(const std::vector<double>& row, int64_t key,
                   const Rows& side, int col, Rows* out) {
  for (const std::vector<double>& srow : side) {
    const size_t c = col >= 0 && col < static_cast<int>(srow.size())
                         ? static_cast<size_t>(col)
                         : 0;
    if (static_cast<int64_t>(std::llround(srow[c])) != key) continue;
    std::vector<double> joined = row;
    joined.insert(joined.end(), srow.begin(), srow.end());
    out->push_back(joined);
  }
}

}  // namespace

Result<OracleQueryResult> OracleExecutor::Execute(const QueryPlan& plan) const {
  const std::vector<int> order = plan.TopologicalOrder();
  if (order.size() != plan.num_nodes()) {
    return Status::InvalidArgument("plan is not a DAG");
  }

  // Per-node fully-materialized emitted rows, plus the rows a BuildHash
  // retained in its (conceptual) hash table.
  std::vector<Rows> outputs(plan.num_nodes());
  std::vector<Rows> build_rows(plan.num_nodes());

  for (int op : order) {
    const PlanNode& node = plan.node(op);
    const KernelSpec& k = node.kernel;

    // Resolve the streamed input: base relation for sources, concatenated
    // stream-producer outputs otherwise.
    Rows input;
    if (node.in_edges.empty()) {
      if (node.base_inputs.empty() || catalog_ == nullptr) {
        return Status::FailedPrecondition("source op without base relation");
      }
      input = RelationRows(catalog_->relation(node.base_inputs[0]));
    } else {
      for (int p : StreamProducers(plan, op)) {
        const Rows& prows = outputs[static_cast<size_t>(p)];
        input.insert(input.end(), prows.begin(), prows.end());
      }
    }

    Rows& out = outputs[static_cast<size_t>(op)];
    switch (node.type) {
      case OperatorType::kTableScan:
      case OperatorType::kUnion:
      case OperatorType::kMaterialize:
      case OperatorType::kCreateTempTable:
        out = std::move(input);
        break;

      case OperatorType::kSelect:
      case OperatorType::kIndexScan: {
        for (std::vector<double>& row : input) {
          if (k.filter_column >= 0 &&
              k.filter_column < static_cast<int>(row.size())) {
            const double v = row[static_cast<size_t>(k.filter_column)];
            if (v < k.filter_lo || v > k.filter_hi) continue;
          }
          ProjectInto(k.project_columns, &row);
          out.push_back(std::move(row));
        }
        break;
      }

      case OperatorType::kProject: {
        for (std::vector<double>& row : input) {
          ProjectInto(k.project_columns, &row);
          out.push_back(std::move(row));
        }
        break;
      }

      case OperatorType::kBuildHash:
        // Rows are retained in the hash table; nothing is emitted.
        build_rows[static_cast<size_t>(op)] = std::move(input);
        break;

      case OperatorType::kProbeHash: {
        const int build = SideProducer(plan, op);
        if (build < 0) return Status::FailedPrecondition("probe without build");
        // The hash table was keyed by the BUILD node's build_key.
        const int bkey = plan.node(build).kernel.build_key;
        const Rows& brows = build_rows[static_cast<size_t>(build)];
        for (const std::vector<double>& row : input) {
          ExpandMatches(row, KeyOf(row, k.probe_key), brows, bkey, &out);
        }
        break;
      }

      case OperatorType::kIndexNestedLoopJoin: {
        if (k.index_relation == kInvalidRelation || catalog_ == nullptr) {
          // Mirrors the engine: no index relation means an empty index.
          break;
        }
        const Rows irows = RelationRows(catalog_->relation(k.index_relation));
        for (const std::vector<double>& row : input) {
          ExpandMatches(row, KeyOf(row, k.probe_key), irows, k.index_key,
                        &out);
        }
        break;
      }

      case OperatorType::kNestedLoopJoin:
      case OperatorType::kMergeJoin: {
        const int side = SideProducer(plan, op);
        if (side < 0) return Status::FailedPrecondition("join without side");
        const Rows& srows = outputs[static_cast<size_t>(side)];
        for (const std::vector<double>& row : input) {
          ExpandMatches(row, KeyOf(row, k.probe_key), srows, k.build_key,
                        &out);
        }
        break;
      }

      case OperatorType::kSortRuns:
      case OperatorType::kMergeSortedRuns: {
        // The engine emits per-chunk runs (kSortRuns) or a full sort
        // (kMergeSortedRuns); both emit the input multiset. The oracle
        // canonicalizes to a full sort.
        const int sc = k.sort_column >= 0 ? k.sort_column : 0;
        out = std::move(input);
        std::stable_sort(out.begin(), out.end(),
                         [sc](const auto& a, const auto& b) {
                           return a[static_cast<size_t>(sc)] <
                                  b[static_cast<size_t>(sc)];
                         });
        break;
      }

      case OperatorType::kHashAggregate:
      case OperatorType::kSortedAggregate:
      case OperatorType::kFinalizeAggregate: {
        const bool finalize = node.type == OperatorType::kFinalizeAggregate;
        std::map<int64_t, std::pair<double, int64_t>> agg;
        for (const std::vector<double>& row : input) {
          const int64_t group =
              k.group_by_column >= 0 || finalize
                  ? KeyOf(row, finalize ? 0 : k.group_by_column)
                  : 0;
          const int vc = finalize ? 1
                         : (k.agg_column >= 0 &&
                            k.agg_column < static_cast<int>(row.size()))
                             ? k.agg_column
                             : static_cast<int>(row.size()) - 1;
          const double v = row[static_cast<size_t>(vc)];
          auto [it, inserted] = agg.try_emplace(group, v, 1);
          if (!inserted) {
            switch (k.agg_fn) {
              case AggFn::kSum:
              case AggFn::kAvg:
              case AggFn::kCount:
                it->second.first += v;
                break;
              case AggFn::kMin:
                it->second.first = std::min(it->second.first, v);
                break;
              case AggFn::kMax:
                it->second.first = std::max(it->second.first, v);
                break;
            }
            ++it->second.second;
          }
        }
        for (const auto& [group, acc] : agg) {
          double v = acc.first;
          if (k.agg_fn == AggFn::kCount) {
            // Partial aggregates count input rows; the finalizer sums the
            // partial counts it received.
            v = finalize ? acc.first : static_cast<double>(acc.second);
          } else if (k.agg_fn == AggFn::kAvg && finalize) {
            v = acc.first / static_cast<double>(acc.second);
          }
          out.push_back({static_cast<double>(group), v});
        }
        break;
      }

      case OperatorType::kDistinct: {
        std::unordered_set<int64_t> seen;
        for (std::vector<double>& row : input) {
          if (seen.insert(KeyOf(row, k.group_by_column)).second) {
            out.push_back(std::move(row));
          }
        }
        break;
      }

      case OperatorType::kIntersect: {
        const int other = SideProducer(plan, op);
        if (other < 0) return Status::FailedPrecondition("intersect arity");
        std::unordered_set<int64_t> keys;
        for (const std::vector<double>& srow : outputs[static_cast<size_t>(
                 other)]) {
          keys.insert(static_cast<int64_t>(std::llround(srow[0])));
        }
        for (std::vector<double>& row : input) {
          if (keys.count(KeyOf(row, 0)) > 0) out.push_back(std::move(row));
        }
        break;
      }

      case OperatorType::kTopK: {
        const int64_t limit = k.limit > 0 ? k.limit : 10;
        const int sc = k.sort_column >= 0 ? k.sort_column : 0;
        out = std::move(input);
        std::stable_sort(out.begin(), out.end(),
                         [sc](const auto& a, const auto& b) {
                           return a[static_cast<size_t>(sc)] >
                                  b[static_cast<size_t>(sc)];
                         });
        if (out.size() > static_cast<size_t>(limit)) {
          out.resize(static_cast<size_t>(limit));
        }
        break;
      }

      case OperatorType::kLimit: {
        const int64_t limit = k.limit > 0 ? k.limit : 100;
        for (std::vector<double>& row : input) {
          if (static_cast<int64_t>(out.size()) >= limit) break;
          out.push_back(std::move(row));
        }
        break;
      }

      case OperatorType::kWindow: {
        std::map<int64_t, double> running;
        for (const std::vector<double>& row : input) {
          const int64_t g = KeyOf(row, k.group_by_column);
          const int vc = k.agg_column >= 0
                             ? k.agg_column
                             : static_cast<int>(row.size()) - 1;
          running[g] += row[static_cast<size_t>(vc)];
          std::vector<double> out_row = row;
          out_row.push_back(running[g]);
          out.push_back(std::move(out_row));
        }
        break;
      }

      case OperatorType::kNumOperatorTypes:
        return Status::Unimplemented("invalid operator type");
    }
  }

  OracleQueryResult result;
  result.node_output_rows.reserve(plan.num_nodes());
  for (size_t i = 0; i < plan.num_nodes(); ++i) {
    result.node_output_rows.push_back(
        static_cast<int64_t>(outputs[i].size()));
  }
  for (int sink : plan.SinkNodes()) {
    for (const std::vector<double>& row : outputs[static_cast<size_t>(sink)]) {
      ++result.sink_rows;
      for (double v : row) result.sink_checksum += v;
    }
  }
  return result;
}

}  // namespace lsched
