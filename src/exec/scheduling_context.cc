#include "exec/scheduling_context.h"

#include <algorithm>
#include <atomic>

#include "util/logging.h"

namespace lsched {

namespace {

/// Process-global version source. Atomic (relaxed) so contexts on
/// different engine threads never hand out the same version twice.
uint64_t NextVersion() {
  static std::atomic<uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace

void SchedulingContext::Reset(double now) {
  now_ = now;
  queries_.clear();
  query_index_.clear();
  query_versions_.clear();
  threads_.clear();
  thread_index_.clear();
  free_threads_ = 0;
}

void SchedulingContext::AddQuery(QueryState* q) {
  LSCHED_CHECK(q != nullptr);
  LSCHED_CHECK(query_index_.find(q->id()) == query_index_.end())
      << "duplicate query id " << q->id();
  // Insert sorted by id so iteration follows workload-index order even
  // with out-of-order arrivals.
  auto pos = std::lower_bound(
      queries_.begin(), queries_.end(), q,
      [](const QueryState* a, const QueryState* b) {
        return a->id() < b->id();
      });
  const size_t idx = static_cast<size_t>(pos - queries_.begin());
  queries_.insert(pos, q);
  RebuildQueryIndex(idx);
  query_versions_[q->id()] = NextVersion();
}

void SchedulingContext::RemoveQuery(QueryId id) {
  auto it = query_index_.find(id);
  if (it == query_index_.end()) return;
  const size_t idx = it->second;
  queries_.erase(queries_.begin() + static_cast<std::ptrdiff_t>(idx));
  query_index_.erase(it);
  query_versions_.erase(id);
  RebuildQueryIndex(idx);
}

void SchedulingContext::MarkQueryDirty(QueryId id) {
  auto it = query_versions_.find(id);
  if (it == query_versions_.end()) return;
  it->second = NextVersion();
}

void SchedulingContext::AddThread(const ThreadInfo& t) {
  LSCHED_CHECK(thread_index_.find(t.id) == thread_index_.end())
      << "duplicate thread id " << t.id;
  thread_index_[t.id] = threads_.size();
  threads_.push_back(t);
  if (!t.busy) ++free_threads_;
}

void SchedulingContext::RetireThread(int thread_id) {
  const size_t idx = ThreadIndexOrDie(thread_id);
  if (!threads_[idx].busy) --free_threads_;
  threads_.erase(threads_.begin() + static_cast<std::ptrdiff_t>(idx));
  thread_index_.erase(thread_id);
  for (size_t i = idx; i < threads_.size(); ++i) {
    thread_index_[threads_[i].id] = i;
  }
}

void SchedulingContext::SetThreadBusy(int thread_id, QueryId query) {
  ThreadInfo& t = threads_[ThreadIndexOrDie(thread_id)];
  LSCHED_CHECK(!t.busy) << "thread " << thread_id << " already busy";
  t.busy = true;
  t.running_query = query;
  // last_query intentionally unchanged until SetThreadIdle: while busy it
  // still names the *previous* query (locality features depend on this).
  --free_threads_;
}

void SchedulingContext::SetThreadIdle(int thread_id, QueryId last_query) {
  ThreadInfo& t = threads_[ThreadIndexOrDie(thread_id)];
  LSCHED_CHECK(t.busy) << "thread " << thread_id << " already idle";
  t.busy = false;
  t.running_query = kInvalidQuery;
  t.last_query = last_query;
  ++free_threads_;
}

QueryState* SchedulingContext::FindQuery(QueryId id) const {
  auto it = query_index_.find(id);
  return it == query_index_.end() ? nullptr : queries_[it->second];
}

uint64_t SchedulingContext::query_version(QueryId id) const {
  auto it = query_versions_.find(id);
  return it == query_versions_.end() ? 0 : it->second;
}

const ThreadInfo* SchedulingContext::thread(int thread_id) const {
  auto it = thread_index_.find(thread_id);
  return it == thread_index_.end() ? nullptr : &threads_[it->second];
}

bool SchedulingContext::AnySchedulableOp() const {
  for (const QueryState* q : queries_) {
    const int n = q->plan().num_nodes();
    for (int op = 0; op < n; ++op) {
      if (q->IsOpSchedulable(op)) return true;
    }
  }
  return false;
}

size_t SchedulingContext::ThreadIndexOrDie(int thread_id) const {
  auto it = thread_index_.find(thread_id);
  LSCHED_CHECK(it != thread_index_.end())
      << "unknown thread id " << thread_id;
  return it->second;
}

void SchedulingContext::RebuildQueryIndex(size_t from) {
  for (size_t i = from; i < queries_.size(); ++i) {
    query_index_[queries_[i]->id()] = i;
  }
}

}  // namespace lsched
