#ifndef LSCHED_OBS_DRIFT_H_
#define LSCHED_OBS_DRIFT_H_

// Online prediction-drift monitor: watches the stream of (predicted score,
// realized work-order seconds) pairs that the scheduler decision log
// back-fills, maintains streaming quantile sketches of the signed
// prediction error per operator type, and raises an alarm when the error
// distribution shifts (Page-Hinkley test on the standardized error).
//
// Motivation (ISSUE 3 / related work): learned schedulers degrade when the
// workload distribution moves under the policy; the drift score is the
// signal that the serving policy is going stale *before* tail latencies
// show it. OnlineLSched can register for the alarm and escalate from
// checkpoint-mode serving to query-by-query updates
// (OnlineLSched::AttachDriftMonitor).
//
// Exported gauges (registry): `model.drift_score` (Page-Hinkley statistic
// over its alarm threshold; >= 1 means alarmed), `model.pred_error_p50`,
// `model.pred_error_p99`, `model.pred_error_mean`; counter
// `model.drift_alarms`.

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/obs.h"

namespace lsched {
namespace obs {

struct DecisionRecord;

/// Streaming quantile estimator (Jain & Chlamtac's P² algorithm): five
/// markers, O(1) memory, no stored samples. Exact below five observations.
/// Pure algorithm (tests and offline tooling use it directly).
class P2Quantile {
 public:
  /// `quantile` in (0, 1), e.g. 0.5 or 0.99.
  explicit P2Quantile(double quantile);

  void Observe(double x);
  /// Current estimate; exact for fewer than five observations, 0 when
  /// empty.
  double Value() const;
  int64_t count() const { return count_; }

 private:
  double q_;
  int64_t count_ = 0;
  double heights_[5] = {};    // marker heights q_i
  double positions_[5] = {};  // actual marker positions n_i (1-based)
  double desired_[5] = {};    // desired positions n'_i
  double increments_[5] = {}; // desired-position increments dn'_i
};

struct DriftConfig {
  /// Page-Hinkley per-sample tolerance, in standard deviations: drift
  /// slower than this never accumulates. Also sets the false-alarm rate:
  /// the stationary average run length is ~exp(2*delta*lambda)/(2*delta^2)
  /// samples (~2.6e7 at the defaults; delta = 0.1 would false-alarm every
  /// ~2.5e3).
  double ph_delta = 0.25;
  /// Alarm threshold on the Page-Hinkley statistic (standard-deviation
  /// sample units). A sustained 2-sigma shift alarms after roughly
  /// lambda / (2 - delta) samples (~17 at the defaults).
  double ph_lambda = 30.0;
  /// Baseline samples before the test starts accumulating (lets the
  /// running mean/std settle).
  int min_samples = 50;
  /// Per-key (operator type) sketch cap; overflow keys collapse into
  /// "other".
  size_t max_keys = 64;
  /// Per-tenant drift-shard cap (serving mode): each tenant gets its own
  /// Page-Hinkley accumulators + error quantile sketches so a retrain
  /// trigger can fire for one tenant's mix while the global stream looks
  /// stationary. Samples from tenants past the cap only feed the global
  /// monitor.
  size_t max_tenants = 16;
  /// Publish the model.* gauges on every Observe.
  bool export_gauges = true;
};

struct DriftAlarm {
  double drift_score = 0.0;   ///< Page-Hinkley statistic / ph_lambda
  int64_t sample_count = 0;   ///< errors observed when the alarm fired
  double error_mean = 0.0;    ///< running mean of the signed error
  double error_std = 0.0;     ///< running std of the signed error
  bool upward = false;        ///< direction of the detected shift
  /// Tenant whose shard fired, or -1 for the process-global stream.
  int32_t tenant = -1;
};

class DriftMonitor {
 public:
  explicit DriftMonitor(DriftConfig config = DriftConfig());
  ~DriftMonitor();

  DriftMonitor(const DriftMonitor&) = delete;
  DriftMonitor& operator=(const DriftMonitor&) = delete;

  /// Feeds one (predicted, realized) pair attributed to `key` (operator
  /// type). Ignored when either value is non-finite (decisions without a
  /// predicted score log NaN). Thread-safe.
  void Observe(const std::string& key, double predicted, double realized);

  /// Same, additionally routing the sample into `tenant`'s drift shard
  /// (tenant < 0 feeds only the global stream).
  void Observe(const std::string& key, int32_t tenant, double predicted,
               double realized);

  /// Convenience: Observe() with the fields of a back-filled decision
  /// record (key = op_type, "unknown" when empty; tenant = record.tenant).
  void ObserveRecord(const DecisionRecord& record);

  /// Registers this monitor as the decision log's back-fill observer so
  /// every realized-cost attribution flows in automatically. One monitor
  /// per process may be attached; the destructor detaches.
  void AttachToDecisionLog();
  void DetachFromDecisionLog();

  /// Callback invoked (outside the monitor lock) when the alarm first
  /// fires; it stays latched until Reset(). Callbacks must be registered
  /// before the stream starts and be safe to call from whichever thread
  /// observes the fatal sample.
  void AddAlarmCallback(std::function<void(const DriftAlarm&)> callback);

  /// Page-Hinkley statistic normalized by ph_lambda; >= 1 means drifted.
  double drift_score() const;
  bool alarmed() const;
  int64_t sample_count() const;

  struct KeyStats {
    int64_t count = 0;
    double mean_error = 0.0;
    double p50 = 0.0;
    double p99 = 0.0;
  };
  /// Per-operator-type error stats, sorted by key.
  std::vector<std::pair<std::string, KeyStats>> SnapshotKeys() const;

  struct TenantStats {
    int64_t count = 0;
    double mean_error = 0.0;
    double drift_score = 0.0;  ///< shard Page-Hinkley statistic / ph_lambda
    bool alarmed = false;
    double p50 = 0.0;
    double p99 = 0.0;
  };
  /// Per-tenant drift-shard stats, sorted by tenant id.
  std::vector<std::pair<int32_t, TenantStats>> SnapshotTenants() const;

  /// Clears all state (sketches, Page-Hinkley accumulators, the alarm
  /// latch) but keeps callbacks and attachment.
  void Reset();

  const DriftConfig& config() const { return config_; }

  /// Process-global monitor backing the LSCHED_DRIFT_MONITOR env gate
  /// (never destroyed, like GlobalExporter).
  static DriftMonitor& Global();

 private:
  struct KeySketch {
    int64_t count = 0;
    double error_sum = 0.0;
    P2Quantile p50{0.5};
    P2Quantile p99{0.99};
  };

  /// One tenant's drift shard: the same Welford + one-sided Page-Hinkley
  /// machinery as the global stream, plus its own error quantiles and
  /// model.tenant<id>.* gauges.
  struct TenantShard {
    int64_t count = 0;
    double mean = 0.0;
    double m2 = 0.0;
    double ph_up = 0.0;
    double ph_down = 0.0;
    bool alarmed = false;
    double error_sum = 0.0;
    P2Quantile p50{0.5};
    P2Quantile p99{0.99};
    Gauge* drift_score_gauge = nullptr;
    Gauge* pred_error_p50_gauge = nullptr;
    Gauge* pred_error_p99_gauge = nullptr;
  };

  /// Finds/creates the shard for `tenant` (nullptr past max_tenants).
  /// Caller holds mu_.
  TenantShard* ShardFor(int32_t tenant);

  DriftConfig config_;
  mutable std::mutex mu_;
  // Running moments of the signed error (Welford).
  int64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  // One-sided CUSUM forms of the Page-Hinkley statistic.
  double ph_up_ = 0.0;
  double ph_down_ = 0.0;
  bool alarmed_ = false;
  P2Quantile global_p50_{0.5};
  P2Quantile global_p99_{0.99};
  std::vector<std::pair<std::string, KeySketch>> keys_;  // small; linear scan
  std::vector<std::pair<int32_t, TenantShard>> tenants_;  // small; linear scan
  std::vector<std::function<void(const DriftAlarm&)>> callbacks_;
  bool attached_ = false;

  // Cached gauge handles (may be null when export_gauges is off).
  Gauge* drift_score_gauge_ = nullptr;
  Gauge* pred_error_p50_gauge_ = nullptr;
  Gauge* pred_error_p99_gauge_ = nullptr;
  Gauge* pred_error_mean_gauge_ = nullptr;
  Counter* drift_alarms_counter_ = nullptr;
};

/// Attaches DriftMonitor::Global() to the decision log when the
/// LSCHED_DRIFT_MONITOR environment variable is set (and not 0/off), so
/// any serving or training process exports model.drift_score without code
/// changes. Returns whether the monitor is attached. Called from obs.cc's
/// TU initializer.
bool StartDriftMonitorFromEnv();

}  // namespace obs
}  // namespace lsched

#endif  // LSCHED_OBS_DRIFT_H_
