#include "exec/kernels.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace lsched {

void RowStore::AppendRow(const std::vector<double>& row) {
  AppendRow(row.data(), static_cast<int>(row.size()));
}

void RowStore::AppendRow(const double* row, int n) {
  LSCHED_DCHECK(n == num_cols_) << "row arity mismatch";
  data_.insert(data_.end(), row, row + n);
}

void RowStore::ChunkRows(size_t idx,
                         std::vector<std::vector<double>>* out) const {
  const size_t begin = idx * chunk_rows_;
  const size_t end = std::min(begin + chunk_rows_, num_rows());
  const size_t n = end > begin ? end - begin : 0;
  out->resize(n);
  for (size_t i = 0; i < n; ++i) {
    std::vector<double>& row = (*out)[i];
    row.resize(static_cast<size_t>(num_cols_));
    for (int c = 0; c < num_cols_; ++c) {
      row[static_cast<size_t>(c)] = at(begin + i, c);
    }
  }
}

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
      // First producer streams; the second is the side input.
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

namespace {

inline int64_t KeyOf(const std::vector<double>& row, int col) {
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

}  // namespace

QueryExecution::QueryExecution(const Catalog* catalog, const QueryPlan* plan,
                               size_t chunk_rows)
    : catalog_(catalog), plan_(plan), chunk_rows_(chunk_rows) {
  states_.reserve(plan->num_nodes());
  outputs_.reserve(plan->num_nodes());
  for (size_t i = 0; i < plan->num_nodes(); ++i) {
    states_.push_back(std::make_unique<OpState>());
    outputs_.push_back(std::make_unique<RowStore>(
        OutputArity(static_cast<int>(i)), chunk_rows_));
  }
}

int QueryExecution::OutputArity(int op) const {
  const PlanNode& node = plan_->node(op);
  auto input_arity = [&]() -> int {
    const std::vector<int> stream = StreamProducers(*plan_, op);
    if (!stream.empty()) return OutputArity(stream[0]);
    if (!node.base_inputs.empty() && catalog_ != nullptr) {
      return static_cast<int>(
          catalog_->relation(node.base_inputs[0]).schema().num_columns());
    }
    return 1;
  };
  switch (node.type) {
    case OperatorType::kSelect:
    case OperatorType::kTableScan:
    case OperatorType::kIndexScan:
    case OperatorType::kProject: {
      if (!node.kernel.project_columns.empty()) {
        return static_cast<int>(node.kernel.project_columns.size());
      }
      return input_arity();
    }
    case OperatorType::kBuildHash:
      return input_arity();  // rows retained in the hash table
    case OperatorType::kProbeHash:
    case OperatorType::kNestedLoopJoin:
    case OperatorType::kMergeJoin: {
      const int side = SideProducer(*plan_, op);
      return input_arity() + (side >= 0 ? OutputArity(side) : 0);
    }
    case OperatorType::kIndexNestedLoopJoin: {
      int side_cols = 1;
      if (node.kernel.index_relation != kInvalidRelation &&
          catalog_ != nullptr) {
        side_cols = static_cast<int>(
            catalog_->relation(node.kernel.index_relation)
                .schema()
                .num_columns());
      }
      return input_arity() + side_cols;
    }
    case OperatorType::kHashAggregate:
    case OperatorType::kSortedAggregate:
    case OperatorType::kFinalizeAggregate:
      return 2;  // (group, aggregate)
    case OperatorType::kWindow:
      return input_arity() + 1;
    default:
      return input_arity();
  }
}

int QueryExecution::NumWorkOrders(int op) const {
  const PlanNode& node = plan_->node(op);
  if (node.in_edges.empty()) {
    if (!node.base_inputs.empty() && catalog_ != nullptr) {
      return std::max<int>(
          1, static_cast<int>(
                 catalog_->relation(node.base_inputs[0]).num_blocks()));
    }
    return 1;
  }
  size_t chunks = 0;
  for (int p : StreamProducers(*plan_, op)) {
    chunks += outputs_[p]->num_chunks();
  }
  return std::max<int>(1, static_cast<int>(chunks));
}

Status QueryExecution::InputChunk(
    int op, int index, std::vector<std::vector<double>>* rows) const {
  const PlanNode& node = plan_->node(op);
  if (node.in_edges.empty()) {
    if (node.base_inputs.empty() || catalog_ == nullptr) {
      rows->clear();
      return Status::FailedPrecondition("source op without base relation");
    }
    const Relation& rel = catalog_->relation(node.base_inputs[0]);
    if (index < 0 || index >= static_cast<int>(rel.num_blocks())) {
      rows->clear();
      return Status::OK();  // past the end: empty chunk
    }
    const Block& block = rel.block(static_cast<size_t>(index));
    // Overwrite-in-place like RowStore::ChunkRows: the caller's inner rows
    // keep their heap capacity across work orders (worker scratch path).
    rows->resize(block.num_rows());
    for (size_t r = 0; r < block.num_rows(); ++r) {
      std::vector<double>& row = (*rows)[r];
      row.resize(block.num_columns());
      for (size_t c = 0; c < block.num_columns(); ++c) {
        row[c] = block.ValueAsDouble(c, r);
      }
    }
    return Status::OK();
  }
  // Concatenated chunk space across stream producers.
  size_t remaining = static_cast<size_t>(index);
  for (int p : StreamProducers(*plan_, op)) {
    const size_t chunks = outputs_[p]->num_chunks();
    if (remaining < chunks) {
      outputs_[p]->ChunkRows(remaining, rows);
      return Status::OK();
    }
    remaining -= chunks;
  }
  rows->clear();
  return Status::OK();  // empty chunk
}

Status QueryExecution::ProcessRows(int op,
                                   std::vector<std::vector<double>>&& rows,
                                   std::vector<std::vector<double>>* out) {
  out->clear();
  const PlanNode& node = plan_->node(op);
  const KernelSpec& k = node.kernel;
  OpState& state = *states_[op];

  switch (node.type) {
    case OperatorType::kTableScan:
    case OperatorType::kUnion:
    case OperatorType::kMaterialize:
    case OperatorType::kCreateTempTable:
      *out = std::move(rows);
      return Status::OK();

    case OperatorType::kSelect:
    case OperatorType::kIndexScan: {
      for (std::vector<double>& row : rows) {
        if (k.filter_column >= 0 &&
            k.filter_column < static_cast<int>(row.size())) {
          const double v = row[static_cast<size_t>(k.filter_column)];
          if (v < k.filter_lo || v > k.filter_hi) continue;
        }
        ProjectInto(k.project_columns, &row);
        out->push_back(std::move(row));
      }
      return Status::OK();
    }

    case OperatorType::kProject: {
      for (std::vector<double>& row : rows) {
        ProjectInto(k.project_columns, &row);
        out->push_back(std::move(row));
      }
      return Status::OK();
    }

    case OperatorType::kBuildHash: {
      std::lock_guard<std::mutex> lock(state.mu);
      for (std::vector<double>& row : rows) {
        const int64_t key = KeyOf(row, k.build_key);
        state.hash_table.emplace(key, state.hash_rows.size());
        state.hash_rows.push_back(std::move(row));
      }
      return Status::OK();
    }

    case OperatorType::kProbeHash: {
      const int build = SideProducer(*plan_, op);
      if (build < 0) return Status::FailedPrecondition("probe without build");
      OpState& bstate = *states_[build];
      // The build side is complete before probing starts (the edge is
      // pipeline breaking), so reads need no lock.
      for (const std::vector<double>& row : rows) {
        const int64_t key = KeyOf(row, k.probe_key);
        auto range = bstate.hash_table.equal_range(key);
        for (auto it = range.first; it != range.second; ++it) {
          std::vector<double> joined = row;
          const std::vector<double>& brow = bstate.hash_rows[it->second];
          joined.insert(joined.end(), brow.begin(), brow.end());
          out->push_back(std::move(joined));
        }
      }
      return Status::OK();
    }

    case OperatorType::kIndexNestedLoopJoin: {
      // Lazily build the index over the base relation on first use.
      {
        std::lock_guard<std::mutex> lock(state.mu);
        if (state.hash_rows.empty() && state.rows_consumed == 0) {
          state.rows_consumed = 1;  // build-once flag
          if (k.index_relation != kInvalidRelation && catalog_ != nullptr) {
            const Relation& rel = catalog_->relation(k.index_relation);
            for (size_t b = 0; b < rel.num_blocks(); ++b) {
              const Block& block = rel.block(b);
              for (size_t r = 0; r < block.num_rows(); ++r) {
                std::vector<double> row(block.num_columns());
                for (size_t c = 0; c < block.num_columns(); ++c) {
                  row[c] = block.ValueAsDouble(c, r);
                }
                const int64_t key = KeyOf(row, k.index_key);
                state.hash_table.emplace(key, state.hash_rows.size());
                state.hash_rows.push_back(std::move(row));
              }
            }
          }
        }
      }
      for (const std::vector<double>& row : rows) {
        const int64_t key = KeyOf(row, k.probe_key);
        auto range = state.hash_table.equal_range(key);
        for (auto it = range.first; it != range.second; ++it) {
          std::vector<double> joined = row;
          const std::vector<double>& irow = state.hash_rows[it->second];
          joined.insert(joined.end(), irow.begin(), irow.end());
          out->push_back(std::move(joined));
        }
      }
      return Status::OK();
    }

    case OperatorType::kNestedLoopJoin: {
      const int inner = SideProducer(*plan_, op);
      if (inner < 0) return Status::FailedPrecondition("nlj without inner");
      const RowStore& irows = *outputs_[inner];
      for (const std::vector<double>& row : rows) {
        const int64_t key = KeyOf(row, k.probe_key);
        for (size_t r = 0; r < irows.num_rows(); ++r) {
          const int ic = k.build_key >= 0 && k.build_key < irows.num_cols()
                             ? k.build_key
                             : 0;
          if (static_cast<int64_t>(std::llround(irows.at(r, ic))) != key) {
            continue;
          }
          std::vector<double> joined = row;
          for (int c = 0; c < irows.num_cols(); ++c) {
            joined.push_back(irows.at(r, c));
          }
          out->push_back(std::move(joined));
        }
      }
      return Status::OK();
    }

    case OperatorType::kMergeJoin: {
      // Right side fully materialized and sorted by its key column; binary
      // search the match range per (sorted) left row.
      const int right = SideProducer(*plan_, op);
      if (right < 0) return Status::FailedPrecondition("mj without right");
      const RowStore& rrows = *outputs_[right];
      const int rc = k.build_key >= 0 && k.build_key < rrows.num_cols()
                         ? k.build_key
                         : 0;
      for (const std::vector<double>& row : rows) {
        const int64_t key = KeyOf(row, k.probe_key);
        // Lower bound over the sorted right store.
        size_t lo = 0, hi = rrows.num_rows();
        while (lo < hi) {
          const size_t mid = (lo + hi) / 2;
          if (static_cast<int64_t>(std::llround(rrows.at(mid, rc))) < key) {
            lo = mid + 1;
          } else {
            hi = mid;
          }
        }
        for (size_t r = lo;
             r < rrows.num_rows() &&
             static_cast<int64_t>(std::llround(rrows.at(r, rc))) == key;
             ++r) {
          std::vector<double> joined = row;
          for (int c = 0; c < rrows.num_cols(); ++c) {
            joined.push_back(rrows.at(r, c));
          }
          out->push_back(std::move(joined));
        }
      }
      return Status::OK();
    }

    case OperatorType::kSortRuns:
    case OperatorType::kMergeSortedRuns: {
      std::lock_guard<std::mutex> lock(state.mu);
      for (std::vector<double>& row : rows) {
        state.buffer.push_back(std::move(row));
      }
      return Status::OK();
    }

    case OperatorType::kHashAggregate:
    case OperatorType::kSortedAggregate:
    case OperatorType::kFinalizeAggregate: {
      std::lock_guard<std::mutex> lock(state.mu);
      const bool finalize = node.type == OperatorType::kFinalizeAggregate;
      for (const std::vector<double>& row : rows) {
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
        auto [it, inserted] = state.agg.try_emplace(group, v, 1);
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
      return Status::OK();
    }

    case OperatorType::kDistinct: {
      std::lock_guard<std::mutex> lock(state.mu);
      for (std::vector<double>& row : rows) {
        const int64_t key = KeyOf(row, k.group_by_column);
        if (state.seen.emplace(key, 1).second) {
          out->push_back(std::move(row));
        }
      }
      return Status::OK();
    }

    case OperatorType::kIntersect: {
      const int other = SideProducer(*plan_, op);
      if (other < 0) return Status::FailedPrecondition("intersect arity");
      std::lock_guard<std::mutex> lock(state.mu);
      if (state.seen.empty() && state.rows_consumed == 0) {
        state.rows_consumed = 1;
        const RowStore& orows = *outputs_[other];
        for (size_t r = 0; r < orows.num_rows(); ++r) {
          state.seen.emplace(
              static_cast<int64_t>(std::llround(orows.at(r, 0))), 1);
        }
      }
      for (std::vector<double>& row : rows) {
        if (state.seen.count(KeyOf(row, 0)) > 0) {
          state.buffer.push_back(std::move(row));
        }
      }
      return Status::OK();
    }

    case OperatorType::kTopK: {
      const int64_t limit = k.limit > 0 ? k.limit : 10;
      const int sc = k.sort_column >= 0 ? k.sort_column : 0;
      std::lock_guard<std::mutex> lock(state.mu);
      for (std::vector<double>& row : rows) {
        state.buffer.push_back(std::move(row));
      }
      std::sort(state.buffer.begin(), state.buffer.end(),
                [sc](const auto& a, const auto& b) {
                  return a[static_cast<size_t>(sc)] >
                         b[static_cast<size_t>(sc)];
                });
      if (state.buffer.size() > static_cast<size_t>(limit)) {
        state.buffer.resize(static_cast<size_t>(limit));
      }
      return Status::OK();
    }

    case OperatorType::kLimit: {
      const int64_t limit = k.limit > 0 ? k.limit : 100;
      std::lock_guard<std::mutex> lock(state.mu);
      for (std::vector<double>& row : rows) {
        if (state.rows_consumed >= limit) break;
        ++state.rows_consumed;
        out->push_back(std::move(row));
      }
      return Status::OK();
    }

    case OperatorType::kWindow: {
      std::lock_guard<std::mutex> lock(state.mu);
      for (std::vector<double>& row : rows) {
        state.buffer.push_back(std::move(row));
      }
      return Status::OK();
    }

    case OperatorType::kNumOperatorTypes:
      break;
  }
  return Status::Unimplemented(
      std::string("kernel for ") + OperatorTypeName(node.type));
}

Status QueryExecution::ExecuteWorkOrder(const std::vector<int>& chain,
                                        int index,
                                        WorkOrderScratch* scratch) {
  if (chain.empty()) return Status::InvalidArgument("empty chain");
  WorkOrderScratch local;
  WorkOrderScratch& s = scratch != nullptr ? *scratch : local;
  LSCHED_RETURN_IF_ERROR(InputChunk(chain[0], index, &s.rows));
  for (size_t i = 0; i < chain.size(); ++i) {
    LSCHED_RETURN_IF_ERROR(ProcessRows(chain[i], std::move(s.rows), &s.next));
    // Persist this stage's emissions so out-of-chain consumers can read
    // them later, then stream them into the next stage. The two scratch
    // buffers swap roles each stage, so their heap capacity survives both
    // the stage loop and (via caller-owned scratch) later work orders.
    if (!s.next.empty()) {
      std::lock_guard<std::mutex> lock(states_[chain[i]]->mu);
      for (const std::vector<double>& row : s.next) {
        outputs_[chain[i]]->AppendRow(row);
      }
    }
    s.rows.swap(s.next);
    if (s.rows.empty() && i + 1 < chain.size()) break;
  }
  return Status::OK();
}

Status QueryExecution::FinalizeOperator(int op) {
  const PlanNode& node = plan_->node(op);
  OpState& state = *states_[op];
  std::lock_guard<std::mutex> lock(state.mu);
  switch (node.type) {
    case OperatorType::kSortRuns: {
      // Emit the buffered rows as per-chunk sorted runs.
      const int sc = node.kernel.sort_column >= 0 ? node.kernel.sort_column : 0;
      for (size_t begin = 0; begin < state.buffer.size();
           begin += chunk_rows_) {
        const size_t end = std::min(begin + chunk_rows_, state.buffer.size());
        std::sort(state.buffer.begin() + static_cast<long>(begin),
                  state.buffer.begin() + static_cast<long>(end),
                  [sc](const auto& a, const auto& b) {
                    return a[static_cast<size_t>(sc)] <
                           b[static_cast<size_t>(sc)];
                  });
      }
      for (const auto& row : state.buffer) outputs_[op]->AppendRow(row);
      state.buffer.clear();
      return Status::OK();
    }
    case OperatorType::kMergeSortedRuns: {
      const int sc = node.kernel.sort_column >= 0 ? node.kernel.sort_column : 0;
      std::sort(state.buffer.begin(), state.buffer.end(),
                [sc](const auto& a, const auto& b) {
                  return a[static_cast<size_t>(sc)] <
                         b[static_cast<size_t>(sc)];
                });
      for (const auto& row : state.buffer) outputs_[op]->AppendRow(row);
      state.buffer.clear();
      return Status::OK();
    }
    case OperatorType::kHashAggregate:
    case OperatorType::kSortedAggregate:
    case OperatorType::kFinalizeAggregate: {
      for (const auto& [group, acc] : state.agg) {
        double v = acc.first;
        if (node.kernel.agg_fn == AggFn::kCount) {
          // A partial aggregate counts its input rows; the finalizer SUMS
          // the partial counts it received (acc.first), not its row count.
          v = node.type == OperatorType::kFinalizeAggregate
                  ? acc.first
                  : static_cast<double>(acc.second);
        } else if (node.kernel.agg_fn == AggFn::kAvg &&
                   node.type == OperatorType::kFinalizeAggregate) {
          v = acc.first / static_cast<double>(acc.second);
        }
        outputs_[op]->AppendRow({static_cast<double>(group), v});
      }
      return Status::OK();
    }
    case OperatorType::kTopK:
    case OperatorType::kIntersect: {
      for (const auto& row : state.buffer) outputs_[op]->AppendRow(row);
      state.buffer.clear();
      return Status::OK();
    }
    case OperatorType::kWindow: {
      // Running sum of the agg column per group (a simple window function).
      std::map<int64_t, double> running;
      for (const auto& row : state.buffer) {
        const int64_t g = KeyOf(row, node.kernel.group_by_column);
        const int vc = node.kernel.agg_column >= 0
                           ? node.kernel.agg_column
                           : static_cast<int>(row.size()) - 1;
        running[g] += row[static_cast<size_t>(vc)];
        std::vector<double> out_row = row;
        out_row.push_back(running[g]);
        outputs_[op]->AppendRow(out_row);
      }
      state.buffer.clear();
      return Status::OK();
    }
    default:
      return Status::OK();  // streaming operators already emitted
  }
}

size_t QueryExecution::StateBytes(int op) const {
  // Workers mutate these containers under the op mutex while executing
  // work orders; the coordinator calls this concurrently for progress
  // accounting, so it must take the same lock.
  OpState& s = *states_[op];
  std::lock_guard<std::mutex> lock(s.mu);
  size_t bytes = s.hash_rows.size() * 64 + s.agg.size() * 48 +
                 s.seen.size() * 24 + s.buffer.size() * 64;
  return bytes;
}

}  // namespace lsched
