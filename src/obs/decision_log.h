#ifndef LSCHED_OBS_DECISION_LOG_H_
#define LSCHED_OBS_DECISION_LOG_H_

// Scheduler decision log: one record per scheduler invocation, capturing
// the candidate set the policy chose from, the chosen action, the policy's
// own predicted score (the `score` field of the SchedulingDecision it
// returned, copied here by the engine's EpisodeRecorder), and the
// *realized* cost of the pipelines the decision launched — back-filled as
// their work orders complete. The CSV dump is the offline substrate for
// prediction-error analysis (predicted score vs realized work-order
// runtimes, cf. Decima & IconqSched tooling).

#include <cstdint>
#include <functional>
#include <istream>
#include <limits>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "obs/obs.h"
#include "obs/ring.h"

namespace lsched {
namespace obs {

struct DecisionRecord {
  int64_t id = -1;          ///< sequence number within this process
  double time = 0.0;        ///< engine time of the invocation (virtual or wall)
  std::string engine;       ///< "sim" or "real"
  std::string event;        ///< SchedulingEventTypeName of the trigger
  std::string policy;       ///< Scheduler::name()
  /// Candidate set: "query:op" pairs joined by ';' (truncated to
  /// kMaxLoggedCandidates with a trailing "+N" marker).
  std::string candidates;
  int num_candidates = 0;
  int running_queries = 0;
  int free_threads = 0;
  /// Chosen action (first pipeline of the decision; -1/empty decision if
  /// the policy returned nothing).
  int64_t chosen_query = -1;
  int chosen_root = -1;
  /// OperatorTypeName of the chosen root ("" when no pipeline was chosen) —
  /// the per-operator-type key for prediction-drift analysis.
  std::string op_type;
  int degree = 0;
  int max_threads = 0;         ///< parallelism cap set (0 = unchanged)
  int num_pipelines = 0;       ///< pipelines accepted from this decision
  int64_t planned_work_orders = 0;
  double predicted_score = std::numeric_limits<double>::quiet_NaN();
  double schedule_wall_us = 0.0;  ///< wall time inside Schedule()
  double realized_seconds = 0.0;  ///< measured runtime of launched work orders
  /// Set when a guard answered the invocation instead of the policy.
  bool fallback = false;
  /// Tenant of the chosen query (serving mode; -1 when no pipeline was
  /// chosen or the run predates multi-tenancy). Keys the per-tenant drift
  /// shards (DriftMonitor) without making src/obs depend on src/exec.
  int32_t tenant = -1;
  /// Why the guard fell back, e.g. "exception" (empty otherwise).
  std::string fallback_reason;
};

inline constexpr int kMaxLoggedCandidates = 32;

/// A ring of the newest `capacity` records: a serving session makes one
/// decision after another for its whole life, so older records are
/// evicted. Ids keep counting across evictions and Clear().
class DecisionLog {
 public:
  /// Holds the decisions of a rolling telemetry window with room to
  /// spare: the recorder back-fills realized costs when a window flushes.
  static constexpr size_t kDefaultCapacity = 4096;

  explicit DecisionLog(size_t capacity = kDefaultCapacity);

  static DecisionLog& Global();

  /// Appends `record` (id is assigned, the passed value ignored), evicting
  /// the oldest record when the ring is full, and returns the assigned id
  /// for realized-cost attribution.
  int64_t Add(DecisionRecord record);

  /// Accumulates measured work-order seconds into record `id` (no-op for
  /// invalid ids — pipelines launched by the fallback path pass -1 — and
  /// for evicted ones, which lost_backfills() counts). Notifies the
  /// back-fill observer, if any, with the updated record.
  void AddRealized(int64_t id, double seconds);

  /// Observer invoked (outside the log's lock, with a copy of the record)
  /// every time realized cost is back-filled into a record — the feed for
  /// the online DriftMonitor. Pass nullptr to clear. One observer at a
  /// time; setting replaces the previous one.
  using BackfillObserver = std::function<void(const DecisionRecord&)>;
  void SetBackfillObserver(BackfillObserver observer);

  /// Adds accepted-pipeline bookkeeping to record `id` (no-op once
  /// evicted).
  void AddPipeline(int64_t id, int64_t planned_work_orders);

  /// Retained records (at most the capacity).
  size_t size() const;
  /// Retained records, oldest first.
  std::vector<DecisionRecord> Snapshot() const;
  void Clear();
  /// Realized-cost back-fills that arrived after their record was evicted.
  int64_t lost_backfills() const;

  void WriteCsv(std::ostream& out) const;
  bool WriteCsv(const std::string& path) const;
  static const char* CsvHeader();

 private:
  /// The retained record with this id, or nullptr. Caller holds mu_.
  DecisionRecord* Find(int64_t id);

  mutable std::mutex mu_;
  /// A record's id is its push sequence number.
  Ring<DecisionRecord> ring_;
  int64_t lost_backfills_ = 0;
  /// shared_ptr so AddRealized can copy the handle under the lock and
  /// invoke the observer after releasing it (the observer may re-enter
  /// metrics or block; never call out under mu_).
  std::shared_ptr<const BackfillObserver> backfill_observer_;
};

/// Parses a CSV produced by WriteCsv back into records (header required).
/// Returns false on malformed input. Used by tests (round-trip) and
/// available to offline tooling.
bool ParseDecisionCsv(std::istream& in, std::vector<DecisionRecord>* out);

}  // namespace obs
}  // namespace lsched

#endif  // LSCHED_OBS_DECISION_LOG_H_
