#ifndef LSCHED_EXEC_KERNELS_H_
#define LSCHED_EXEC_KERNELS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "plan/query_plan.h"
#include "storage/catalog.h"
#include "util/status.h"

namespace lsched {

/// Producers whose rows stream INTO `op` as its work-order input (as
/// opposed to side inputs consumed via operator state: hash-join build
/// sides, the inner of nested-loop joins, the right of merge joins). A
/// fused pipeline may only extend into `op` from its unique stream
/// producer — fusing from a side input (or from one branch of a multi-input
/// union) would drop the other stream rows.
std::vector<int> StreamProducers(const QueryPlan& plan, int op);

/// The side-input producer of a binary operator (or -1).
int SideProducer(const QueryPlan& plan, int op);

/// A flat, row-major batch of fixed-arity rows: row `r` is
/// `data[r * cols, (r + 1) * cols)`. Every kernel reads and writes rows in
/// this form, so a batch is one allocation however many rows it holds, and
/// reusing a batch reuses that allocation.
struct RowBatch {
  int cols = 0;
  std::vector<double> data;

  size_t num_rows() const {
    return cols <= 0 ? 0 : data.size() / static_cast<size_t>(cols);
  }
  const double* row(size_t r) const {
    return data.data() + r * static_cast<size_t>(cols);
  }
  /// Empties the batch for rows of `arity`, keeping its capacity.
  void Reset(int arity) {
    cols = arity;
    data.clear();
  }
  /// Appends `n` values; callers append whole rows of `cols` values.
  void Append(const double* values, int n) {
    data.insert(data.end(), values, values + n);
  }
};

/// Materialized intermediate result: one RowBatch viewed as chunks of
/// `chunk_rows` rows (the work-order granularity for consumers).
class RowStore {
 public:
  RowStore() = default;
  RowStore(int num_cols, size_t chunk_rows) : chunk_rows_(chunk_rows) {
    rows_.cols = num_cols;
  }

  int num_cols() const { return rows_.cols; }
  size_t num_rows() const { return rows_.num_rows(); }
  size_t num_chunks() const {
    return chunk_rows_ == 0 ? 0 : (num_rows() + chunk_rows_ - 1) / chunk_rows_;
  }
  const RowBatch& rows() const { return rows_; }

  void AppendRow(const double* row, int n);
  /// Appends every row of `batch`, whose arity must be num_cols().
  void AppendRows(const RowBatch& batch);

  double at(size_t row, int col) const {
    return rows_.row(row)[static_cast<size_t>(col)];
  }

  /// Copies chunk `idx` (bounded) into `out` with one bulk copy, reusing
  /// `out`'s capacity.
  void ChunkInto(size_t idx, RowBatch* out) const;

 private:
  size_t chunk_rows_ = 4096;
  RowBatch rows_;
};

/// A hash index over the rows of one RowBatch, keyed on one column: the
/// build side of a hash join or the index of an index nested-loop join.
/// Built once from the finished rows; the entries of bucket `b` are
/// `entries[offsets[b], offsets[b + 1])`, in row order, so probing touches
/// two flat arrays and allocates nothing.
class JoinIndex {
 public:
  void Build(const RowBatch& rows, int key_col);

  /// Calls `f(row)` for every indexed row whose key equals `key`, in row
  /// order.
  template <typename F>
  void ForEachMatch(int64_t key, F&& f) const {
    if (entries_.empty()) return;
    const size_t b = Bucket(key);
    for (uint32_t i = offsets_[b]; i < offsets_[b + 1]; ++i) {
      if (entries_[i].key == key) f(entries_[i].row);
    }
  }

 private:
  struct Entry {
    int64_t key;
    size_t row;
  };
  size_t Bucket(int64_t key) const {
    return static_cast<size_t>(
        (static_cast<uint64_t>(key) * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  int shift_ = 63;
  std::vector<uint32_t> offsets_;
  std::vector<Entry> entries_;
};

/// Per-worker arena for ExecuteWorkOrder's row batches. The two batches
/// swap roles between pipeline stages and persist across work orders, so
/// once a worker's batches have grown to its largest work order, running
/// one allocates nothing. Owned by exactly one worker thread; never shared.
struct WorkOrderScratch {
  RowBatch in;
  RowBatch out;
};

/// Runtime execution state of one query in RealEngine: per-operator shared
/// state (hash tables, aggregation maps, sort runs, ...) plus output stores.
/// Work orders from multiple worker threads may touch the same operator
/// concurrently; all shared state is mutex-protected, mirroring Quickstep's
/// concurrent work-order execution (paper §2).
class QueryExecution {
 public:
  QueryExecution(const Catalog* catalog, const QueryPlan* plan,
                 size_t chunk_rows);

  const QueryPlan& plan() const { return *plan_; }

  /// Number of work orders the root of `chain` generates *now* (source:
  /// base-relation blocks; intermediate: chunks of its completed producer
  /// outputs). RealEngine requires standalone producers to be complete.
  int NumWorkOrders(int op) const;

  /// Executes fused work order `index` of `chain`: one root input block
  /// pushed through every (streaming) stage; stateful tails consume into
  /// their operator state. A stage's rows are kept in its output() unless
  /// the next stage of the chain is its only consumer. Thread-safe.
  /// `scratch` (optional) supplies caller-owned row buffers reused across
  /// calls; results are identical with or without it.
  Status ExecuteWorkOrder(const std::vector<int>& chain, int index,
                          WorkOrderScratch* scratch = nullptr);

  /// Called once when `op` finished all work orders: blocking operators
  /// (aggregates, sorts, top-k, ...) emit their buffered results.
  Status FinalizeOperator(int op);

  /// Output rows of `op` (valid once the op is finalized for blocking ops).
  const RowStore& output(int op) const { return *outputs_[op]; }

  /// Approximate bytes of operator state currently held by `op`. Reads a
  /// counter the kernels keep up to date, so it never waits on a worker.
  size_t StateBytes(int op) const {
    return states_[op]->bytes.load(std::memory_order_relaxed);
  }

 private:
  struct OpState {
    // Rows the operator retains: the build side of a hash join, the index
    // relation of an index nested-loop join, or the sort / top-k / window /
    // intersect buffer.
    RowBatch rows;
    // Hash-join / index-join index over `rows`, built once by the first
    // probe; `index_ready` publishes it.
    JoinIndex index;
    std::atomic<bool> index_ready{false};
    // Aggregation: group key -> (accumulator, count).
    std::map<int64_t, std::pair<double, int64_t>> agg;
    // Distinct / intersect membership.
    std::unordered_map<int64_t, int> seen;
    // Top-k: the row order to keep, reused across work orders.
    std::vector<size_t> order;
    RowBatch kept;
    int64_t rows_consumed = 0;
    // What StateBytes reports; written under `mu`, read without it.
    std::atomic<size_t> bytes{0};
    std::mutex mu;

    /// Publishes the current footprint to `bytes`. Caller holds `mu`.
    void PublishBytes() {
      bytes.store(rows.num_rows() * 64 + agg.size() * 48 + seen.size() * 24,
                  std::memory_order_relaxed);
    }
  };

  /// Fills `rows` with chunk `index` of the input feeding `op` (source
  /// block or producer-output chunk), resolved across multiple producers.
  Status InputChunk(int op, int index, RowBatch* rows) const;

  /// Streams the rows of `*in` through operator `op`, appending survivors
  /// to `*out`; may consume `*in`. Stateful operators consume into state
  /// and emit nothing until finalize.
  Status ProcessRows(int op, RowBatch* in, RowBatch* out);

  /// The index of `op`'s retained rows, built by the first caller under the
  /// op's mutex (an index join first loads its index relation). Later
  /// callers see the ready flag and take no lock.
  const JoinIndex& ReadyIndex(int op);

  int OutputArity(int op) const;

  const Catalog* catalog_;
  const QueryPlan* plan_;
  size_t chunk_rows_;
  // Per op: its stream producers, its side producer (or -1) and its one
  // consumer (or -1 when it has none or several), resolved once so the
  // work-order path does not rebuild them.
  std::vector<std::vector<int>> streams_;
  std::vector<int> sides_;
  std::vector<int> sole_consumers_;
  std::vector<std::unique_ptr<OpState>> states_;
  std::vector<std::unique_ptr<RowStore>> outputs_;
};

}  // namespace lsched

#endif  // LSCHED_EXEC_KERNELS_H_
