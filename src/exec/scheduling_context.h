#ifndef LSCHED_EXEC_SCHEDULING_CONTEXT_H_
#define LSCHED_EXEC_SCHEDULING_CONTEXT_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "exec/exec_types.h"
#include "exec/query_state.h"

namespace lsched {

/// Incremental scheduler-facing view of the execution environment
/// (Scheduler API v2, DESIGN.md §9).
///
/// Rather than being rebuilt from scratch at every scheduling round, a
/// SchedulingContext lives as long as the episode and is mutated in place
/// as engine events happen:
///
///  * queries are added on arrival and removed on completion; lookup by id
///    is O(1) via a hash index,
///  * every query carries a monotonically increasing *version*. The engine
///    bumps it (MarkQueryDirty) exactly when an event changes something a
///    per-query feature encoding could depend on: an operator was scheduled
///    or a work order completed. Policies cache derived per-query state
///    (e.g. encoder embeddings) keyed by (id, version) and recompute only
///    dirty entries,
///  * free-thread accounting is maintained incrementally
///    (SetThreadBusy/SetThreadIdle), so num_free_threads() is O(1).
///
/// Versions are drawn from a process-global atomic counter so that contexts
/// never reuse a version number: a cache keyed by (id, version) stays
/// correct even across Reset() or when one policy serves several contexts.
class SchedulingContext {
 public:
  SchedulingContext() = default;

  // Non-copyable: policies hold caches keyed by this context's versions.
  SchedulingContext(const SchedulingContext&) = delete;
  SchedulingContext& operator=(const SchedulingContext&) = delete;

  /// --- engine-side mutators ---------------------------------------------

  /// Clears all queries and threads for a new episode.
  void Reset(double now = 0.0);

  void set_now(double now) { now_ = now; }

  /// Registers an arrived query. Queries are kept sorted by id (workload
  /// index order) regardless of arrival interleaving. Assigns a fresh
  /// version.
  void AddQuery(QueryState* q);

  /// Removes a completed query (order-preserving).
  void RemoveQuery(QueryId id);

  /// Bumps the query's version. Engines call this when an event changed
  /// query-local state that schedulers or feature encoders read: operator
  /// progress (AdvanceOperator), scheduling flags (set_op_scheduled), or
  /// operator completion. Thread-occupancy changes do NOT dirty a query.
  void MarkQueryDirty(QueryId id);

  void AddThread(const ThreadInfo& t);

  /// Removes a thread from the active set (pool shrink).
  void RetireThread(int thread_id);

  /// Marks a thread busy running `query` (decrements the free count).
  void SetThreadBusy(int thread_id, QueryId query);

  /// Marks a thread idle, recording the query it last ran (increments the
  /// free count).
  void SetThreadIdle(int thread_id, QueryId last_query);

  /// --- scheduler-side readers -------------------------------------------

  double now() const { return now_; }

  /// Live queries in id (= workload index) order. Pointers remain valid
  /// until the query is removed.
  const std::vector<QueryState*>& queries() const { return queries_; }

  /// O(1) hash-indexed lookup; nullptr if the query is not in this context.
  QueryState* FindQuery(QueryId id) const;

  /// True when `id` is present in this context AND not in a terminal
  /// lifecycle state. Engines remove queries on termination, so presence
  /// normally implies liveness; the status check additionally guards
  /// against terminal queries left in hand-built contexts (tests).
  /// Policies must not score or pick dead queries (DESIGN.md §10).
  bool IsQueryLive(QueryId id) const {
    const QueryState* q = FindQuery(id);
    return q != nullptr && !IsTerminalStatus(q->status());
  }

  /// Monotonic per-query change version; 0 if the query is unknown.
  /// Two reads returning the same version guarantee that no dirtying event
  /// happened in between, so any state derived from the query may be
  /// reused.
  uint64_t query_version(QueryId id) const;

  /// Active (non-retired) threads in id order.
  const std::vector<ThreadInfo>& threads() const { return threads_; }

  /// Active thread by id, or nullptr if unknown/retired.
  const ThreadInfo* thread(int thread_id) const;

  int total_threads() const { return static_cast<int>(threads_.size()); }

  /// O(1) — maintained incrementally by SetThreadBusy/SetThreadIdle.
  int num_free_threads() const { return free_threads_; }

  /// True if any live query has a schedulable operator right now.
  bool AnySchedulableOp() const;

 private:
  size_t ThreadIndexOrDie(int thread_id) const;
  void RebuildQueryIndex(size_t from);

  double now_ = 0.0;
  std::vector<QueryState*> queries_;
  std::unordered_map<QueryId, size_t> query_index_;
  std::unordered_map<QueryId, uint64_t> query_versions_;
  std::vector<ThreadInfo> threads_;
  std::unordered_map<int, size_t> thread_index_;
  int free_threads_ = 0;
};

}  // namespace lsched

#endif  // LSCHED_EXEC_SCHEDULING_CONTEXT_H_
