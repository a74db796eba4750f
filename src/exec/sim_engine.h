#ifndef LSCHED_EXEC_SIM_ENGINE_H_
#define LSCHED_EXEC_SIM_ENGINE_H_

#include <deque>
#include <queue>
#include <vector>

#include "exec/coordinator.h"
#include "exec/episode_result.h"
#include "exec/exec_types.h"
#include "exec/scheduler.h"
#include "plan/cost_model.h"
#include "util/rng.h"

namespace lsched {

/// One query to run: its physical plan, its (virtual-time) arrival, and its
/// serving metadata (tenant/priority; defaulted for single-tenant runs).
struct QuerySubmission {
  QueryPlan plan;
  double arrival_time = 0.0;
  QueryTag tag{};
};

struct SimEngineConfig : EngineConfig {
  SimEngineConfig() { num_threads = 60; }

  CostModelParams cost_params;
  uint64_t seed = 7;
  /// Safety valve: abort (with whatever completed) past this virtual time.
  double max_virtual_seconds = 1e9;
};

/// Discrete-event simulator of the work-order execution model (paper §5.1):
/// a scheduler thread plus a pool of worker threads, each executing fused
/// pipeline work orders whose durations come from the cost model (plus
/// noise and locality gain). It triggers the Scheduler exactly on the
/// events of §5.2 and applies its decisions.
///
/// Scheduling itself (admission, decisions, dispatch, completion
/// processing) is the shared Coordinator; SimEngine is its virtual-time
/// backend: an event queue, the cost model, and per-slot accounts.
///
/// This is the substrate used for RL training and all large benchmark
/// sweeps; RealEngine executes the same decisions on real blocks.
class SimEngine : private ExecutorBackend {
 public:
  explicit SimEngine(SimEngineConfig config);

  /// Runs `workload` to completion under `scheduler` and returns telemetry.
  EpisodeResult Run(const std::vector<QuerySubmission>& workload,
                    Scheduler* scheduler);

  /// Cancels a live query at the current virtual time: marks it CANCELLED,
  /// kills its pipelines (in-flight attempts are discarded when they come
  /// back), and removes it from the scheduling context so policies stop
  /// scoring it. Callable from scheduler callbacks mid-run. Returns false
  /// if the query is unknown or already terminal (double-cancel and
  /// cancel-after-done are no-ops).
  bool CancelQuery(QueryId query);

  const SimEngineConfig& config() const { return config_; }

 private:
  /// The attempt a slot is running, and the slot's state account.
  struct SimSlot {
    Pipeline* lease = nullptr;  ///< pipeline the slot's attempt belongs to
    int wo_index = -1;
    bool attempt_failed = false;  ///< injected fault / deadline overrun
    bool expired = false;         ///< cut at the work-order deadline
    double busy_since = 0.0;
    double service_seconds = 0.0;  ///< cost-model estimate of the attempt
    bool retired = false;
    /// Virtual-clock integer-ns state charges (DESIGN.md §8.3), so buckets
    /// are bit-identical across replays.
    prof::WorkerAccount account;
  };

  struct SimEvent {
    double time = 0.0;
    int64_t seq = 0;  ///< FIFO tiebreak
    enum Kind {
      kArrival,
      kWorkOrderDone,
      kPoolChange,
      kCancel,      ///< scripted cancellation (payload: config cancel index)
      kRetryReady,  ///< a retry backoff elapsed (payload: pipeline id)
    } kind = kArrival;
    int64_t payload = 0;  ///< arrival: workload index; done: slot id
    bool operator>(const SimEvent& other) const {
      if (time != other.time) return time > other.time;
      return seq > other.seq;
    }
  };

  void Push(double time, SimEvent::Kind kind, int64_t payload);
  /// Draws the attempt's duration (noise, locality gain when `local`,
  /// contention from `others` threads on the query, faults, deadline) and
  /// schedules its completion.
  void StartAttempt(Pipeline& p, int slot, int wo_index, int others,
                    bool local, double now);
  void OnWorkOrderDone(int slot, double now);

  // ExecutorBackend.
  bool roots_need_complete_producers() const override { return false; }
  void PreparePipeline(const QueryState& q, Pipeline* p) override;
  void Dispatch(Pipeline& p, const QueryState& q, int slot, int wo_index,
                double now) override;
  double OperatorMemory(const QueryState& q, const Pipeline& p, int op,
                        double amount) override;
  void OnSlotAdded(int slot, double now) override;
  void OnSlotFreed(int slot, double now) override;
  void OnSlotRetired(int slot, double now) override;
  void OnRetryBackoff(int64_t pipeline, double ready_at) override;

  SimEngineConfig config_;
  CostModel cost_model_;
  Coordinator coordinator_;

  // Per-run state. A deque because WorkerAccount holds atomics
  // (non-movable) and the pool can grow mid-run.
  Rng rng_{0};
  std::deque<SimSlot> slots_;  ///< indexed by slot id
  std::priority_queue<SimEvent, std::vector<SimEvent>, std::greater<SimEvent>>
      events_;
  int64_t event_seq_ = 0;
};

}  // namespace lsched

#endif  // LSCHED_EXEC_SIM_ENGINE_H_
