#ifndef LSCHED_TESTING_FAULTPOINT_H_
#define LSCHED_TESTING_FAULTPOINT_H_

// Deterministic, seed-driven fault injection (DESIGN.md §10).
//
// Engines and policies mark the places where failures can be injected with
// named fault points:
//
//   const FaultAction f = LSCHED_FAULT("work_order_exec", query_id, now);
//   if (f.type == FaultType::kError) { /* fail this attempt */ }
//
// A chaos run installs a FaultSchedule into the process-global FaultInjector;
// each rule in the schedule decides when its point fires (on the Nth matching
// hit, with probability p from a rule-local seeded RNG, inside a time
// window), so any chaos episode is replayable from (seed, schedule) alone.
// With no schedule installed every point costs one relaxed atomic load and
// returns a no-fault action.
//
// Known fault points:
//   work_order_exec  both engines, before each work-order attempt executes
//   query_admit      both engines, at query arrival (kError rejects the query)
//   policy_decide    GuardedPolicy, before delegating to the wrapped policy

#include <atomic>
#include <cstdint>
#include <limits>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/rng.h"

namespace lsched {

enum class FaultType : uint8_t {
  kNone = 0,  ///< no fault — continue normally
  kError,     ///< the guarded operation fails (error status / rejection)
  kDelay,     ///< the operation is delayed by `param` seconds, then succeeds
  kStall,     ///< like kDelay but modelling a stuck worker (longer pauses)
};

const char* FaultTypeName(FaultType t);

/// What a fault point should do for one specific hit. Evaluates to false
/// in boolean context when no fault fires.
struct FaultAction {
  FaultType type = FaultType::kNone;
  double param = 0.0;  ///< seconds for kDelay/kStall; unused for kError

  explicit operator bool() const { return type != FaultType::kNone; }
};

/// One scripted fault: fires at a named point, optionally scoped to a query,
/// either deterministically (on the Nth matching hit / every Kth hit) or
/// probabilistically from a rule-local RNG seeded by the schedule.
struct FaultRule {
  std::string point;  ///< fault-point name ("work_order_exec", ...)
  int64_t query = -1; ///< only hits for this query id match; -1 = any query

  /// Firing condition (checked in this order):
  int nth_hit = 0;  ///< fire exactly on the Nth matching hit (1-based); 0=off
  int every = 0;    ///< fire on every Kth matching hit; 0=off
  double probability = 0.0;  ///< else fire with this probability per hit

  /// Only hits with `window_start <= now <= window_end` match.
  double window_start = 0.0;
  double window_end = std::numeric_limits<double>::infinity();
  /// Stop firing after this many fires (replay-stable storm bounding).
  int max_fires = std::numeric_limits<int>::max();

  FaultAction action{FaultType::kError, 0.0};
};

/// A replayable chaos script: rule-local RNGs are derived from `seed` at
/// Install() time, so the same (seed, rules) always fires identically given
/// the same sequence of Check() calls.
struct FaultSchedule {
  uint64_t seed = 0;
  std::vector<FaultRule> rules;

  bool empty() const { return rules.empty(); }
};

/// One fired fault, recorded for CI artifacts and replay debugging.
struct FaultEvent {
  std::string point;
  int64_t query = -1;
  double time = 0.0;
  FaultType type = FaultType::kNone;
  double param = 0.0;
};

/// Process-global fault injector. Check() is thread-safe (RealEngine workers
/// probe it concurrently); determinism is only guaranteed for
/// single-threaded probe sequences (SimEngine) or rules whose firing does
/// not depend on cross-thread hit interleaving (nth_hit/probability rules in
/// RealEngine fire in completion order, which is inherently racy — scope
/// such rules to a query and use probability 1.0 when the real engine must
/// fail deterministically).
class FaultInjector {
 public:
  static FaultInjector& Global();

  /// Installs `schedule`: seeds one RNG per rule from schedule.seed, resets
  /// all hit/fire counters and the fired-fault log, and arms the injector.
  void Install(FaultSchedule schedule);

  /// Disarms the injector and clears rules, counters, and the log.
  void Clear();

  /// Lock-free armed probe — the fast path the LSCHED_FAULT macro uses so
  /// un-armed runs never touch the mutex.
  bool armed() const { return armed_.load(std::memory_order_acquire); }

  /// Evaluates every matching rule for a hit of `point` at `now`; returns
  /// the first firing rule's action (kNone when nothing fires).
  FaultAction Check(const char* point, int64_t query, double now);

  /// --- introspection (tests, chaos CLI) ---------------------------------

  /// Matching probes / fired faults per point since the last Install().
  int64_t hits(const std::string& point) const;
  int64_t fires(const std::string& point) const;
  int64_t total_fires() const;

  /// Fired-fault log (bounded; oldest entries are kept). `dropped` reports
  /// how many fires did not fit.
  std::vector<FaultEvent> Log() const;
  int64_t dropped_log_entries() const;

  /// Writes the fired-fault log as one line per fire
  /// ("time point query type param"). Returns false on I/O error.
  bool WriteLog(const std::string& path) const;

 private:
  FaultInjector() = default;

  struct RuleState {
    FaultRule rule;
    Rng rng{0};
    int64_t hits = 0;
    int fires = 0;
  };

  static constexpr size_t kMaxLogEntries = 1 << 16;

  mutable std::mutex mu_;
  std::atomic<bool> armed_{false};
  std::vector<RuleState> rules_;
  std::unordered_map<std::string, int64_t> point_hits_;
  std::unordered_map<std::string, int64_t> point_fires_;
  std::vector<FaultEvent> log_;
  int64_t log_dropped_ = 0;
};

/// Probes the fault point `point` for query `query` at engine time `now`.
/// Costs one relaxed atomic load when no schedule is installed.
#define LSCHED_FAULT(point, query, now)                                   \
  (::lsched::FaultInjector::Global().armed()                              \
       ? ::lsched::FaultInjector::Global().Check(                         \
             (point), static_cast<int64_t>(query), (now))                 \
       : ::lsched::FaultAction{})

}  // namespace lsched

#endif  // LSCHED_TESTING_FAULTPOINT_H_
