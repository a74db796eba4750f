#ifndef LSCHED_OBS_PROFILER_H_
#define LSCHED_OBS_PROFILER_H_

// Resource profiling (DESIGN.md §8.3), three layers:
//
//  1. WorkerAccount — an ALWAYS-COMPILED per-worker state accountant.
//     Every worker thread (RealEngine) / simulated thread (SimEngine)
//     charges exact integer-ns to one of five states {dispatch-overhead,
//     executing, idle, stalled-on-dependency, draining}; the buckets
//     telescope to the thread's wall time by construction (each Transition
//     charges [last, now) to the *outgoing* state, so no nanosecond is
//     counted twice or dropped). The episode recorder aggregates them into
//     exec.worker<i>.*_seconds gauges and the scheduler-overhead-fraction
//     gauge — the paper's headline metric.
//
//  2. CounterTables — LeanStore-style per-subsystem counter tables
//     (sched decisions/sec, encoder cache hit rate, NN batch occupancy,
//     faultpoint fires, serve admission verdicts), registered
//     declaratively as value closures and rendered as an aligned-text
//     table with per-second rates between renders. The closures read the
//     metrics registry.
//
//  3. SamplingProfiler — a background sampler that snapshots every
//     registered worker's current state at a configurable Hz into a
//     bounded ring, exportable as CSV and rendered by `lsched_cli top
//     --profile`.

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/obs.h"
#include "obs/ring.h"

namespace lsched {
namespace prof {

// --- 1. per-worker state accountant (always compiled) ---------------------

enum class WorkerState : uint8_t {
  kDispatch = 0,  ///< scheduler/coordinator handoff + completion plumbing
  kExecuting = 1, ///< running a work-order kernel
  kIdle = 2,      ///< no runnable work anywhere
  kStalled = 3,   ///< work exists but is blocked on a dependency
  kDraining = 4,  ///< shutdown/drain window
};
inline constexpr int kNumWorkerStates = 5;

/// Short machine-friendly names: dispatch_overhead, executing, idle,
/// stalled, draining (index by static_cast<int>(state)).
const char* WorkerStateName(WorkerState s);
/// Parses a WorkerStateName back; returns false on unknown names.
bool ParseWorkerState(const std::string& name, WorkerState* out);

struct WorkerStateBuckets {
  int64_t ns[kNumWorkerStates] = {0, 0, 0, 0, 0};
  int64_t wall_ns = 0;

  int64_t SumNs() const {
    int64_t sum = 0;
    for (int64_t v : ns) sum += v;
    return sum;
  }
};

/// Single-writer accountant: the owning thread calls Start/Transition/Stop;
/// any thread may call Read()/current() concurrently (relaxed atomics — a
/// live snapshot may be mid-transition by a bucket, which is fine for
/// gauges and the sampling profiler; reads after the owner stopped and was
/// joined are exact).
class WorkerAccount {
 public:
  WorkerAccount() = default;
  WorkerAccount(const WorkerAccount&) = delete;
  WorkerAccount& operator=(const WorkerAccount&) = delete;

  /// Begins accounting at `now_ns` in `initial`; resets all buckets.
  void Start(int64_t now_ns, WorkerState initial);

  /// Charges [last, max(last, now_ns)) to the current state, then switches
  /// to `next`. Clamping makes slightly out-of-order timestamps (e.g. a
  /// dispatch issued-at read after the worker's own clock read) safe: the
  /// telescoping invariant holds regardless.
  void Transition(WorkerState next, int64_t now_ns);

  /// Final charge up to `now_ns`; the account keeps its buckets readable.
  void Stop(int64_t now_ns);

  bool started() const { return started_.load(std::memory_order_acquire); }
  WorkerState current() const {
    return static_cast<WorkerState>(state_.load(std::memory_order_relaxed));
  }
  WorkerStateBuckets Read() const;

 private:
  std::atomic<int64_t> ns_[kNumWorkerStates] = {};
  std::atomic<int64_t> wall_ns_{0};
  std::atomic<uint8_t> state_{static_cast<uint8_t>(WorkerState::kIdle)};
  std::atomic<bool> started_{false};
  // Owner-thread-only bookkeeping.
  int64_t start_ns_ = 0;
  int64_t last_ns_ = 0;
};

// --- 2. per-subsystem counter tables (always compiled) --------------------

class CounterTables {
 public:
  static CounterTables& Global();

  /// Adds a row to `table` (created on first use, order preserved).
  /// `value` is sampled at Render time; `rated` rows additionally show a
  /// per-second rate since the previous Render. Re-registering an existing
  /// (table, label) pair replaces the closure.
  void Register(const std::string& table, const std::string& label,
                std::function<double()> value, bool rated = true);

  /// Aligned-text dump of every table:
  ///   [sched]
  ///     decisions            12345      617.2/s
  /// Rates are computed against the previous Render call (first call shows
  /// "-"). Thread-safe.
  std::string Render();

  /// Forgets rate baselines (next Render shows "-" rates) — used by tests.
  void ResetRates();

 private:
  CounterTables() = default;
  struct Row {
    std::string label;
    std::function<double()> fn;
    bool rated = true;
    double last = 0.0;
    bool have_last = false;
  };
  struct Table {
    std::string name;
    std::vector<Row> rows;
  };
  std::vector<Table> tables_;
  double last_render_micros_ = 0.0;
  bool have_render_time_ = false;
  std::mutex mu_;
};

/// Registers the default subsystem tables (sched, encoder, nn, exec,
/// faults, serve) against the global metrics registry. Idempotent.
void RegisterDefaultCounterTables();

// --- 3. sampling profiler (OBS-gated) -------------------------------------

struct ProfileSample {
  int64_t t_us = 0;  ///< obs::NowMicros() at sampling time
  int32_t worker = 0;
  WorkerState state = WorkerState::kIdle;
  std::string engine;
};

/// CSV schema: t_us,engine,worker,state (header row included).
std::string ProfileSamplesToCsv(const std::vector<ProfileSample>& samples);
bool ParseProfileCsv(const std::string& text, std::vector<ProfileSample>* out);

/// Per-(engine, worker) state-occupancy summary of a sample set — the
/// rendering behind `lsched_cli top --profile=<csv>`.
std::string RenderProfileSummary(const std::vector<ProfileSample>& samples);

class SamplingProfiler {
 public:
  static SamplingProfiler& Global();

  /// Registers a live worker pool; `accounts` must outlive the
  /// registration. Returns a handle for UnregisterWorkers.
  int RegisterWorkers(const std::string& engine,
                      std::vector<const WorkerAccount*> accounts);
  void UnregisterWorkers(int handle);

  /// Starts the background sampler at `hz` into a ring of `capacity`
  /// samples (oldest dropped, drops counted). No-op if already running.
  bool Start(double hz, size_t capacity = 1 << 16);
  void Stop();
  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Oldest-first copy of the ring.
  std::vector<ProfileSample> Snapshot() const;
  bool WriteCsv(const std::string& path) const;
  /// Samples evicted from the ring since the last Start().
  int64_t dropped() const;

 private:
  SamplingProfiler() = default;
  void SampleOnce();

  struct Registration {
    int handle = 0;
    std::string engine;
    std::vector<const WorkerAccount*> accounts;
  };
  mutable std::mutex mu_;
  std::vector<Registration> registrations_;
  int next_handle_ = 1;
  obs::Ring<ProfileSample> ring_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};
  std::thread sampler_;
  double period_us_ = 0.0;
};

}  // namespace prof
}  // namespace lsched

#endif  // LSCHED_OBS_PROFILER_H_
