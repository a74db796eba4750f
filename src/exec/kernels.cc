#include "exec/kernels.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/logging.h"

namespace lsched {

void RowStore::AppendRow(const double* row, int n) {
  LSCHED_DCHECK(n == rows_.cols) << "row arity mismatch";
  rows_.Append(row, n);
}

void RowStore::AppendRows(const RowBatch& batch) {
  if (batch.data.empty()) return;
  LSCHED_DCHECK(batch.cols == rows_.cols) << "row arity mismatch";
  rows_.data.insert(rows_.data.end(), batch.data.begin(), batch.data.end());
}

void RowStore::ChunkInto(size_t idx, RowBatch* out) const {
  const size_t begin = std::min(idx * chunk_rows_, num_rows());
  const size_t end = std::min(begin + chunk_rows_, num_rows());
  const size_t w = static_cast<size_t>(rows_.cols);
  out->cols = rows_.cols;
  out->data.assign(rows_.data.begin() + static_cast<long>(begin * w),
                   rows_.data.begin() + static_cast<long>(end * w));
}

namespace {

inline int64_t KeyAt(const double* row, int cols, int col) {
  const int c = col >= 0 && col < cols ? col : 0;
  return static_cast<int64_t>(std::llround(row[c]));
}

/// Grows `b` by one row of `n` values and returns that row.
inline double* AppendSlot(RowBatch* b, int n) {
  const size_t at = b->data.size();
  b->data.resize(at + static_cast<size_t>(n));
  return b->data.data() + at;
}

/// Appends `row` (arity `cols`) to `out`, projected to `proj` (a column
/// out of range reads 0); an empty `proj` keeps every column.
inline void AppendProjected(const double* row, int cols,
                            const std::vector<int>& proj, RowBatch* out) {
  if (proj.empty()) {
    out->Append(row, cols);
    return;
  }
  double* dst = AppendSlot(out, static_cast<int>(proj.size()));
  for (size_t j = 0; j < proj.size(); ++j) {
    const int c = proj[j];
    dst[j] = c >= 0 && c < cols ? row[c] : 0.0;
  }
}

/// Appends the row `left` (arity `lc`) followed by `right` (arity `rc`).
inline void AppendJoined(const double* left, int lc, const double* right,
                         int rc, RowBatch* out) {
  double* dst = AppendSlot(out, lc + rc);
  std::copy(left, left + lc, dst);
  std::copy(right, right + rc, dst + lc);
}

/// Appends every row of `in` to `dst`, which takes `in`'s arity when it
/// holds no rows yet.
void AppendAll(const RowBatch& in, RowBatch* dst) {
  if (in.data.empty()) return;
  if (dst->data.empty()) dst->cols = in.cols;
  LSCHED_DCHECK(dst->cols == in.cols) << "row arity mismatch";
  dst->data.insert(dst->data.end(), in.data.begin(), in.data.end());
}

/// Appends the rows of `block` to `out`, whose arity must be the block's
/// column count, transposing the block's columns into rows.
void AppendBlockRows(const Block& block, RowBatch* out) {
  const size_t cols = block.num_columns();
  const size_t n = block.num_rows();
  double* dst = AppendSlot(out, static_cast<int>(n * cols));
  for (size_t c = 0; c < cols; ++c) {
    if (block.column_type(c) == DataType::kInt64) {
      const std::vector<int64_t>& col = block.Int64Column(c);
      for (size_t r = 0; r < n; ++r) {
        dst[r * cols + c] = static_cast<double>(col[r]);
      }
    } else {
      const std::vector<double>& col = block.DoubleColumn(c);
      for (size_t r = 0; r < n; ++r) dst[r * cols + c] = col[r];
    }
  }
}

/// Orders row indices of a batch on one column, ascending or descending,
/// with ties in row order: the order a stable sort of the rows gives.
struct RowOrder {
  const RowBatch* rows;
  int col;
  bool descending;

  bool operator()(size_t a, size_t b) const {
    const double x = rows->row(a)[col];
    const double y = rows->row(b)[col];
    if (x != y) return descending ? x > y : x < y;
    return a < b;
  }
};

}  // namespace

void JoinIndex::Build(const RowBatch& rows, int key_col) {
  const size_t n = rows.num_rows();
  int bits = 1;
  while ((size_t{1} << bits) < n) ++bits;
  shift_ = 64 - bits;
  const size_t buckets = size_t{1} << bits;
  auto key = [&](size_t r) { return KeyAt(rows.row(r), rows.cols, key_col); };
  // Count each bucket's rows into offsets_[b] and turn the counts into
  // bucket ends. Placing the rows backwards, each at its bucket's end less
  // one, then leaves every bucket in row order and offsets_[b] at its
  // start.
  offsets_.assign(buckets + 1, 0);
  for (size_t r = 0; r < n; ++r) ++offsets_[Bucket(key(r))];
  for (size_t b = 1; b < buckets; ++b) offsets_[b] += offsets_[b - 1];
  offsets_[buckets] = static_cast<uint32_t>(n);
  entries_.resize(n);
  for (size_t r = n; r-- > 0;) {
    const int64_t k = key(r);
    entries_[--offsets_[Bucket(k)]] = Entry{k, r};
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

QueryExecution::QueryExecution(const Catalog* catalog, const QueryPlan* plan,
                               size_t chunk_rows)
    : catalog_(catalog), plan_(plan), chunk_rows_(chunk_rows) {
  const size_t n = plan->num_nodes();
  streams_.reserve(n);
  sides_.reserve(n);
  states_.reserve(n);
  outputs_.reserve(n);
  sole_consumers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const int op = static_cast<int>(i);
    streams_.push_back(StreamProducers(*plan, op));
    sides_.push_back(SideProducer(*plan, op));
    const std::vector<int>& out = plan->node(op).out_edges;
    sole_consumers_.push_back(out.size() == 1 ? plan->edge(out[0]).consumer
                                              : -1);
  }
  // OutputArity follows producers, which may have higher ids.
  for (size_t i = 0; i < n; ++i) {
    states_.push_back(std::make_unique<OpState>());
    outputs_.push_back(std::make_unique<RowStore>(
        OutputArity(static_cast<int>(i)), chunk_rows_));
  }
}

int QueryExecution::OutputArity(int op) const {
  const PlanNode& node = plan_->node(op);
  auto input_arity = [&]() -> int {
    const std::vector<int>& stream = streams_[static_cast<size_t>(op)];
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
      const int side = sides_[static_cast<size_t>(op)];
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
  for (int p : streams_[static_cast<size_t>(op)]) {
    chunks += outputs_[p]->num_chunks();
  }
  return std::max<int>(1, static_cast<int>(chunks));
}


Status QueryExecution::InputChunk(int op, int index, RowBatch* rows) const {
  const PlanNode& node = plan_->node(op);
  if (node.in_edges.empty()) {
    if (node.base_inputs.empty() || catalog_ == nullptr) {
      rows->Reset(0);
      return Status::FailedPrecondition("source op without base relation");
    }
    const Relation& rel = catalog_->relation(node.base_inputs[0]);
    rows->Reset(static_cast<int>(rel.schema().num_columns()));
    if (index < 0 || index >= static_cast<int>(rel.num_blocks())) {
      return Status::OK();  // past the end: empty chunk
    }
    AppendBlockRows(rel.block(static_cast<size_t>(index)), rows);
    return Status::OK();
  }
  // Concatenated chunk space across stream producers.
  size_t remaining = static_cast<size_t>(index);
  for (int p : streams_[static_cast<size_t>(op)]) {
    const size_t chunks = outputs_[p]->num_chunks();
    if (remaining < chunks) {
      outputs_[p]->ChunkInto(remaining, rows);
      return Status::OK();
    }
    remaining -= chunks;
  }
  rows->Reset(0);
  return Status::OK();  // empty chunk
}

const JoinIndex& QueryExecution::ReadyIndex(int op) {
  OpState& s = *states_[op];
  if (s.index_ready.load(std::memory_order_acquire)) return s.index;
  std::lock_guard<std::mutex> lock(s.mu);
  if (!s.index_ready.load(std::memory_order_relaxed)) {
    const KernelSpec& k = plan_->node(op).kernel;
    int key = k.build_key;
    if (plan_->node(op).type == OperatorType::kIndexNestedLoopJoin) {
      key = k.index_key;
      if (k.index_relation != kInvalidRelation && catalog_ != nullptr) {
        const Relation& rel = catalog_->relation(k.index_relation);
        s.rows.Reset(static_cast<int>(rel.schema().num_columns()));
        for (size_t b = 0; b < rel.num_blocks(); ++b) {
          AppendBlockRows(rel.block(b), &s.rows);
        }
        s.PublishBytes();
      }
    }
    s.index.Build(s.rows, key);
    s.index_ready.store(true, std::memory_order_release);
  }
  return s.index;
}

Status QueryExecution::ProcessRows(int op, RowBatch* in, RowBatch* out) {
  const PlanNode& node = plan_->node(op);
  const KernelSpec& k = node.kernel;
  OpState& state = *states_[op];
  const int cols = in->cols;
  const size_t n = in->num_rows();

  switch (node.type) {
    case OperatorType::kTableScan:
    case OperatorType::kUnion:
    case OperatorType::kMaterialize:
    case OperatorType::kCreateTempTable:
      std::swap(*in, *out);
      return Status::OK();

    case OperatorType::kSelect:
    case OperatorType::kIndexScan: {
      out->Reset(k.project_columns.empty()
                     ? cols
                     : static_cast<int>(k.project_columns.size()));
      const bool filter = k.filter_column >= 0 && k.filter_column < cols;
      for (size_t r = 0; r < n; ++r) {
        const double* row = in->row(r);
        if (filter) {
          const double v = row[k.filter_column];
          if (v < k.filter_lo || v > k.filter_hi) continue;
        }
        AppendProjected(row, cols, k.project_columns, out);
      }
      return Status::OK();
    }

    case OperatorType::kProject: {
      out->Reset(k.project_columns.empty()
                     ? cols
                     : static_cast<int>(k.project_columns.size()));
      for (size_t r = 0; r < n; ++r) {
        AppendProjected(in->row(r), cols, k.project_columns, out);
      }
      return Status::OK();
    }

    case OperatorType::kBuildHash: {
      out->Reset(cols);
      std::lock_guard<std::mutex> lock(state.mu);
      AppendAll(*in, &state.rows);
      state.PublishBytes();
      return Status::OK();
    }

    case OperatorType::kProbeHash:
    case OperatorType::kIndexNestedLoopJoin: {
      // The probe's build side is complete before probing starts (the
      // edge is pipeline breaking); an index join indexes its relation.
      const int owner = node.type == OperatorType::kProbeHash
                            ? sides_[static_cast<size_t>(op)]
                            : op;
      if (owner < 0) return Status::FailedPrecondition("probe without build");
      const JoinIndex& index = ReadyIndex(owner);
      const RowBatch& side = states_[owner]->rows;
      out->Reset(cols + side.cols);
      for (size_t r = 0; r < n; ++r) {
        const double* row = in->row(r);
        index.ForEachMatch(KeyAt(row, cols, k.probe_key), [&](size_t s) {
          AppendJoined(row, cols, side.row(s), side.cols, out);
        });
      }
      return Status::OK();
    }

    case OperatorType::kNestedLoopJoin: {
      const int inner = sides_[static_cast<size_t>(op)];
      if (inner < 0) return Status::FailedPrecondition("nlj without inner");
      const RowBatch& irows = outputs_[inner]->rows();
      const int ic =
          k.build_key >= 0 && k.build_key < irows.cols ? k.build_key : 0;
      out->Reset(cols + irows.cols);
      for (size_t r = 0; r < n; ++r) {
        const double* row = in->row(r);
        const int64_t key = KeyAt(row, cols, k.probe_key);
        for (size_t i = 0; i < irows.num_rows(); ++i) {
          if (static_cast<int64_t>(std::llround(irows.row(i)[ic])) != key) {
            continue;
          }
          AppendJoined(row, cols, irows.row(i), irows.cols, out);
        }
      }
      return Status::OK();
    }

    case OperatorType::kMergeJoin: {
      // Right side fully materialized and sorted by its key column; binary
      // search the match range per (sorted) left row.
      const int right = sides_[static_cast<size_t>(op)];
      if (right < 0) return Status::FailedPrecondition("mj without right");
      const RowBatch& rrows = outputs_[right]->rows();
      const int rc =
          k.build_key >= 0 && k.build_key < rrows.cols ? k.build_key : 0;
      auto right_key = [&](size_t i) {
        return static_cast<int64_t>(std::llround(rrows.row(i)[rc]));
      };
      out->Reset(cols + rrows.cols);
      for (size_t r = 0; r < n; ++r) {
        const double* row = in->row(r);
        const int64_t key = KeyAt(row, cols, k.probe_key);
        // Lower bound over the sorted right store.
        size_t lo = 0, hi = rrows.num_rows();
        while (lo < hi) {
          const size_t mid = (lo + hi) / 2;
          if (right_key(mid) < key) {
            lo = mid + 1;
          } else {
            hi = mid;
          }
        }
        for (size_t i = lo; i < rrows.num_rows() && right_key(i) == key; ++i) {
          AppendJoined(row, cols, rrows.row(i), rrows.cols, out);
        }
      }
      return Status::OK();
    }

    case OperatorType::kSortRuns:
    case OperatorType::kMergeSortedRuns:
    case OperatorType::kWindow: {
      out->Reset(cols);
      std::lock_guard<std::mutex> lock(state.mu);
      AppendAll(*in, &state.rows);
      state.PublishBytes();
      return Status::OK();
    }

    case OperatorType::kHashAggregate:
    case OperatorType::kSortedAggregate:
    case OperatorType::kFinalizeAggregate: {
      out->Reset(2);
      std::lock_guard<std::mutex> lock(state.mu);
      const bool finalize = node.type == OperatorType::kFinalizeAggregate;
      const int vc = finalize ? 1
                     : k.agg_column >= 0 && k.agg_column < cols ? k.agg_column
                                                                : cols - 1;
      for (size_t r = 0; r < n; ++r) {
        const double* row = in->row(r);
        const int64_t group =
            k.group_by_column >= 0 || finalize
                ? KeyAt(row, cols, finalize ? 0 : k.group_by_column)
                : 0;
        const double v = row[vc];
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
      state.PublishBytes();
      return Status::OK();
    }

    case OperatorType::kDistinct: {
      out->Reset(cols);
      std::lock_guard<std::mutex> lock(state.mu);
      for (size_t r = 0; r < n; ++r) {
        const double* row = in->row(r);
        if (state.seen.emplace(KeyAt(row, cols, k.group_by_column), 1).second) {
          out->Append(row, cols);
        }
      }
      state.PublishBytes();
      return Status::OK();
    }

    case OperatorType::kIntersect: {
      const int other = sides_[static_cast<size_t>(op)];
      if (other < 0) return Status::FailedPrecondition("intersect arity");
      out->Reset(cols);
      std::lock_guard<std::mutex> lock(state.mu);
      if (state.seen.empty() && state.rows_consumed == 0) {
        state.rows_consumed = 1;
        const RowStore& orows = *outputs_[other];
        for (size_t r = 0; r < orows.num_rows(); ++r) {
          state.seen.emplace(
              static_cast<int64_t>(std::llround(orows.at(r, 0))), 1);
        }
      }
      if (state.rows.data.empty()) state.rows.cols = cols;
      for (size_t r = 0; r < n; ++r) {
        const double* row = in->row(r);
        if (state.seen.count(KeyAt(row, cols, 0)) > 0) {
          state.rows.Append(row, cols);
        }
      }
      state.PublishBytes();
      return Status::OK();
    }

    case OperatorType::kTopK: {
      const size_t limit = static_cast<size_t>(k.limit > 0 ? k.limit : 10);
      const int sc = k.sort_column >= 0 ? k.sort_column : 0;
      out->Reset(cols);
      std::lock_guard<std::mutex> lock(state.mu);
      AppendAll(*in, &state.rows);
      const size_t held = state.rows.num_rows();
      if (held > limit) {
        // Keep the `limit` largest, earlier rows first among equal keys.
        std::vector<size_t>& order = state.order;
        order.resize(held);
        std::iota(order.begin(), order.end(), size_t{0});
        std::partial_sort(order.begin(),
                          order.begin() + static_cast<long>(limit),
                          order.end(), RowOrder{&state.rows, sc, true});
        state.kept.Reset(state.rows.cols);
        for (size_t i = 0; i < limit; ++i) {
          state.kept.Append(state.rows.row(order[i]), state.rows.cols);
        }
        std::swap(state.rows, state.kept);
      }
      state.PublishBytes();
      return Status::OK();
    }

    case OperatorType::kLimit: {
      const int64_t limit = k.limit > 0 ? k.limit : 100;
      out->Reset(cols);
      std::lock_guard<std::mutex> lock(state.mu);
      for (size_t r = 0; r < n && state.rows_consumed < limit; ++r) {
        ++state.rows_consumed;
        out->Append(in->row(r), cols);
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
  LSCHED_RETURN_IF_ERROR(InputChunk(chain[0], index, &s.in));
  for (size_t i = 0; i < chain.size(); ++i) {
    LSCHED_RETURN_IF_ERROR(ProcessRows(chain[i], &s.in, &s.out));
    // Persist this stage's emissions for consumers outside the chain and
    // for a sink's result, then stream them into the next stage; a stage
    // whose one consumer is the next stage has no other reader. The two
    // scratch batches swap roles each stage, so their capacity survives
    // both the stage loop and (via caller-owned scratch) later work orders.
    const bool fused_only = i + 1 < chain.size() &&
                            sole_consumers_[static_cast<size_t>(chain[i])] ==
                                chain[i + 1];
    if (!fused_only && !s.out.data.empty()) {
      std::lock_guard<std::mutex> lock(states_[chain[i]]->mu);
      outputs_[chain[i]]->AppendRows(s.out);
    }
    std::swap(s.in, s.out);
    if (s.in.data.empty() && i + 1 < chain.size()) break;
  }
  return Status::OK();
}

Status QueryExecution::FinalizeOperator(int op) {
  const PlanNode& node = plan_->node(op);
  OpState& state = *states_[op];
  RowStore& out = *outputs_[op];
  std::lock_guard<std::mutex> lock(state.mu);
  const int sc = node.kernel.sort_column >= 0 ? node.kernel.sort_column : 0;
  const size_t n = state.rows.num_rows();
  switch (node.type) {
    case OperatorType::kSortRuns:
    case OperatorType::kMergeSortedRuns:
    case OperatorType::kTopK: {
      // Runs sort each chunk of rows on its own; a merge or a top-k sorts
      // them all (top-k descending).
      const size_t run = node.type == OperatorType::kSortRuns
                             ? std::max<size_t>(chunk_rows_, 1)
                             : std::max<size_t>(n, 1);
      const RowOrder cmp{&state.rows, sc, node.type == OperatorType::kTopK};
      std::vector<size_t>& order = state.order;
      order.resize(n);
      std::iota(order.begin(), order.end(), size_t{0});
      for (size_t begin = 0; begin < n; begin += run) {
        std::sort(order.begin() + static_cast<long>(begin),
                  order.begin() + static_cast<long>(std::min(begin + run, n)),
                  cmp);
      }
      for (size_t r : order) out.AppendRow(state.rows.row(r), state.rows.cols);
      break;
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
        const double row[2] = {static_cast<double>(group), v};
        out.AppendRow(row, 2);
      }
      return Status::OK();
    }
    case OperatorType::kIntersect:
      out.AppendRows(state.rows);
      break;
    case OperatorType::kWindow: {
      // Running sum of the agg column per group (a simple window function).
      const int cols = state.rows.cols;
      const int vc = node.kernel.agg_column >= 0 ? node.kernel.agg_column
                                                 : cols - 1;
      std::map<int64_t, double> running;
      RowBatch& rows_out = state.kept;
      rows_out.Reset(cols + 1);
      for (size_t r = 0; r < n; ++r) {
        const double* row = state.rows.row(r);
        double& sum = running[KeyAt(row, cols, node.kernel.group_by_column)];
        sum += row[vc];
        double* dst = AppendSlot(&rows_out, cols + 1);
        std::copy(row, row + cols, dst);
        dst[cols] = sum;
      }
      out.AppendRows(rows_out);
      break;
    }
    default:
      return Status::OK();  // streaming operators already emitted
  }
  // The buffered rows are emitted: release them and their scratch.
  state.rows = RowBatch{};
  state.kept = RowBatch{};
  state.order = std::vector<size_t>{};
  state.PublishBytes();
  return Status::OK();
}

}  // namespace lsched
