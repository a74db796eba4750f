#include "obs/drift.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "obs/decision_log.h"

namespace lsched {
namespace obs {

// ---------------------------------------------------------------------------
// P² streaming quantile (always compiled; no obs dependency).
// ---------------------------------------------------------------------------

P2Quantile::P2Quantile(double quantile) : q_(quantile) {
  increments_[0] = 0.0;
  increments_[1] = q_ / 2.0;
  increments_[2] = q_;
  increments_[3] = (1.0 + q_) / 2.0;
  increments_[4] = 1.0;
}

void P2Quantile::Observe(double x) {
  if (count_ < 5) {
    // Insertion sort into the initial marker heights.
    int i = static_cast<int>(count_);
    heights_[i] = x;
    for (; i > 0 && heights_[i - 1] > heights_[i]; --i) {
      std::swap(heights_[i - 1], heights_[i]);
    }
    ++count_;
    if (count_ == 5) {
      for (int m = 0; m < 5; ++m) {
        positions_[m] = m + 1;
        desired_[m] = 1.0 + 4.0 * increments_[m];
      }
    }
    return;
  }

  // Find the cell k containing x, extending the extremes if needed.
  int k;
  if (x < heights_[0]) {
    heights_[0] = x;
    k = 0;
  } else if (x >= heights_[4]) {
    heights_[4] = x;
    k = 3;
  } else {
    k = 0;
    while (k < 3 && x >= heights_[k + 1]) ++k;
  }
  for (int m = k + 1; m < 5; ++m) positions_[m] += 1.0;
  for (int m = 0; m < 5; ++m) desired_[m] += increments_[m];
  ++count_;

  // Adjust the three interior markers toward their desired positions.
  for (int m = 1; m <= 3; ++m) {
    const double d = desired_[m] - positions_[m];
    const double right_gap = positions_[m + 1] - positions_[m];
    const double left_gap = positions_[m - 1] - positions_[m];
    if ((d >= 1.0 && right_gap > 1.0) || (d <= -1.0 && left_gap < -1.0)) {
      const double s = d >= 0.0 ? 1.0 : -1.0;
      // Piecewise-parabolic (P²) prediction of the new height.
      const double span = positions_[m + 1] - positions_[m - 1];
      const double hp =
          heights_[m] +
          s / span *
              ((positions_[m] - positions_[m - 1] + s) *
                   (heights_[m + 1] - heights_[m]) / right_gap +
               (positions_[m + 1] - positions_[m] - s) *
                   (heights_[m] - heights_[m - 1]) /
                   (positions_[m] - positions_[m - 1]));
      if (heights_[m - 1] < hp && hp < heights_[m + 1]) {
        heights_[m] = hp;
      } else {
        // Fall back to linear interpolation toward the neighbor.
        const int n = m + static_cast<int>(s);
        heights_[m] += s * (heights_[n] - heights_[m]) /
                       (positions_[n] - positions_[m]);
      }
      positions_[m] += s;
    }
  }
}

double P2Quantile::Value() const {
  if (count_ == 0) return 0.0;
  if (count_ < 5) {
    // Exact: interpolate the sorted prefix at rank q * (n - 1).
    const double rank = q_ * static_cast<double>(count_ - 1);
    const int lo = static_cast<int>(rank);
    const int hi = std::min<int>(lo + 1, static_cast<int>(count_) - 1);
    const double frac = rank - lo;
    return heights_[lo] + frac * (heights_[hi] - heights_[lo]);
  }
  return heights_[2];
}

// ---------------------------------------------------------------------------
// DriftMonitor
// ---------------------------------------------------------------------------

DriftMonitor::DriftMonitor(DriftConfig config) : config_(config) {
  if (config_.export_gauges) {
    MetricsRegistry& reg = MetricsRegistry::Global();
    drift_score_gauge_ = reg.GetGauge("model.drift_score");
    pred_error_p50_gauge_ = reg.GetGauge("model.pred_error_p50");
    pred_error_p99_gauge_ = reg.GetGauge("model.pred_error_p99");
    pred_error_mean_gauge_ = reg.GetGauge("model.pred_error_mean");
    drift_alarms_counter_ = reg.GetCounter("model.drift_alarms");
  }
}

DriftMonitor::~DriftMonitor() {
  if (attached_) DetachFromDecisionLog();
}

void DriftMonitor::Observe(const std::string& key, double predicted,
                           double realized) {
  Observe(key, /*tenant=*/-1, predicted, realized);
}

void DriftMonitor::Observe(const std::string& key, int32_t tenant,
                           double predicted, double realized) {
  if (!Enabled()) return;
  if (!std::isfinite(predicted) || !std::isfinite(realized)) return;
  const double err = predicted - realized;

  std::vector<DriftAlarm> fired;
  std::vector<std::function<void(const DriftAlarm&)>> callbacks;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Welford running moments of the signed error.
    ++count_;
    const double delta = err - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (err - mean_);

    global_p50_.Observe(err);
    global_p99_.Observe(err);

    // Per-key sketch (linear scan: the key space is operator types).
    {
      KeySketch* sketch = nullptr;
      for (auto& [name, s] : keys_) {
        if (name == key) {
          sketch = &s;
          break;
        }
      }
      if (sketch == nullptr && keys_.size() >= config_.max_keys) {
        // Key cap reached: collapse unseen keys into "other".
        for (auto& [name, s] : keys_) {
          if (name == "other") {
            sketch = &s;
            break;
          }
        }
        if (sketch == nullptr) {
          keys_.emplace_back("other", KeySketch{});
          sketch = &keys_.back().second;
        }
      } else if (sketch == nullptr) {
        keys_.emplace_back(key, KeySketch{});
        sketch = &keys_.back().second;
      }
      ++sketch->count;
      sketch->error_sum += err;
      sketch->p50.Observe(err);
      sketch->p99.Observe(err);
    }

    // Page-Hinkley (one-sided CUSUM forms, both directions) on the
    // standardized error, once the baseline moments have settled.
    if (count_ > config_.min_samples) {
      const double var = m2_ / static_cast<double>(count_ - 1);
      const double std = std::sqrt(std::max(var, 1e-24));
      const double z = (err - mean_) / std;
      ph_up_ = std::max(0.0, ph_up_ + z - config_.ph_delta);
      ph_down_ = std::max(0.0, ph_down_ - z - config_.ph_delta);
      const double score =
          std::max(ph_up_, ph_down_) / std::max(config_.ph_lambda, 1e-12);
      if (score >= 1.0 && !alarmed_) {
        alarmed_ = true;
        DriftAlarm alarm;
        alarm.drift_score = score;
        alarm.sample_count = count_;
        alarm.error_mean = mean_;
        alarm.error_std = std;
        alarm.upward = ph_up_ >= ph_down_;
        alarm.tenant = -1;
        fired.push_back(alarm);
      }
    }

    // Per-tenant drift shard: the same machinery, keyed by the tenant of
    // the decision, so one tenant's template mix can trigger a retrain
    // while the blended global stream still looks stationary.
    if (TenantShard* shard = tenant >= 0 ? ShardFor(tenant) : nullptr) {
      ++shard->count;
      const double d = err - shard->mean;
      shard->mean += d / static_cast<double>(shard->count);
      shard->m2 += d * (err - shard->mean);
      shard->error_sum += err;
      shard->p50.Observe(err);
      shard->p99.Observe(err);
      if (shard->count > config_.min_samples) {
        const double var = shard->m2 / static_cast<double>(shard->count - 1);
        const double std = std::sqrt(std::max(var, 1e-24));
        const double z = (err - shard->mean) / std;
        shard->ph_up = std::max(0.0, shard->ph_up + z - config_.ph_delta);
        shard->ph_down = std::max(0.0, shard->ph_down - z - config_.ph_delta);
        const double score = std::max(shard->ph_up, shard->ph_down) /
                             std::max(config_.ph_lambda, 1e-12);
        if (score >= 1.0 && !shard->alarmed) {
          shard->alarmed = true;
          DriftAlarm alarm;
          alarm.drift_score = score;
          alarm.sample_count = shard->count;
          alarm.error_mean = shard->mean;
          alarm.error_std = std;
          alarm.upward = shard->ph_up >= shard->ph_down;
          alarm.tenant = tenant;
          fired.push_back(alarm);
        }
      }
      if (config_.export_gauges) {
        shard->drift_score_gauge->Set(std::max(shard->ph_up, shard->ph_down) /
                                      std::max(config_.ph_lambda, 1e-12));
        shard->pred_error_p50_gauge->Set(shard->p50.Value());
        shard->pred_error_p99_gauge->Set(shard->p99.Value());
      }
    }

    if (config_.export_gauges) {
      const double score =
          std::max(ph_up_, ph_down_) / std::max(config_.ph_lambda, 1e-12);
      drift_score_gauge_->Set(score);
      pred_error_p50_gauge_->Set(global_p50_.Value());
      pred_error_p99_gauge_->Set(global_p99_.Value());
      pred_error_mean_gauge_->Set(mean_);
    }
    if (!fired.empty()) callbacks = callbacks_;
  }
  if (!fired.empty()) {
    if (drift_alarms_counter_ != nullptr) {
      drift_alarms_counter_->Add(static_cast<int64_t>(fired.size()));
    }
    for (const DriftAlarm& alarm : fired) {
      for (const auto& cb : callbacks) cb(alarm);
    }
  }
}

DriftMonitor::TenantShard* DriftMonitor::ShardFor(int32_t tenant) {
  for (auto& [id, shard] : tenants_) {
    if (id == tenant) return &shard;
  }
  if (tenants_.size() >= config_.max_tenants) return nullptr;
  tenants_.emplace_back(tenant, TenantShard{});
  TenantShard& shard = tenants_.back().second;
  if (config_.export_gauges) {
    MetricsRegistry& reg = MetricsRegistry::Global();
    const std::string prefix = "model.tenant" + std::to_string(tenant) + ".";
    shard.drift_score_gauge = reg.GetGauge(prefix + "drift_score");
    shard.pred_error_p50_gauge = reg.GetGauge(prefix + "pred_error_p50");
    shard.pred_error_p99_gauge = reg.GetGauge(prefix + "pred_error_p99");
  }
  return &shard;
}

void DriftMonitor::ObserveRecord(const DecisionRecord& record) {
  Observe(record.op_type.empty() ? std::string("unknown") : record.op_type,
          record.tenant, record.predicted_score, record.realized_seconds);
}

void DriftMonitor::AttachToDecisionLog() {
  DecisionLog::Global().SetBackfillObserver(
      [this](const DecisionRecord& r) { ObserveRecord(r); });
  attached_ = true;
}

void DriftMonitor::DetachFromDecisionLog() {
  DecisionLog::Global().SetBackfillObserver(nullptr);
  attached_ = false;
}

void DriftMonitor::AddAlarmCallback(
    std::function<void(const DriftAlarm&)> callback) {
  std::lock_guard<std::mutex> lock(mu_);
  callbacks_.push_back(std::move(callback));
}

double DriftMonitor::drift_score() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::max(ph_up_, ph_down_) / std::max(config_.ph_lambda, 1e-12);
}

bool DriftMonitor::alarmed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return alarmed_;
}

int64_t DriftMonitor::sample_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return count_;
}

std::vector<std::pair<int32_t, DriftMonitor::TenantStats>>
DriftMonitor::SnapshotTenants() const {
  std::vector<std::pair<int32_t, TenantStats>> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out.reserve(tenants_.size());
    for (const auto& [id, s] : tenants_) {
      TenantStats stats;
      stats.count = s.count;
      stats.mean_error =
          s.count == 0 ? 0.0 : s.error_sum / static_cast<double>(s.count);
      stats.drift_score = std::max(s.ph_up, s.ph_down) /
                          std::max(config_.ph_lambda, 1e-12);
      stats.alarmed = s.alarmed;
      stats.p50 = s.p50.Value();
      stats.p99 = s.p99.Value();
      out.emplace_back(id, stats);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

std::vector<std::pair<std::string, DriftMonitor::KeyStats>>
DriftMonitor::SnapshotKeys() const {
  std::vector<std::pair<std::string, KeyStats>> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out.reserve(keys_.size());
    for (const auto& [name, s] : keys_) {
      KeyStats stats;
      stats.count = s.count;
      stats.mean_error =
          s.count == 0 ? 0.0 : s.error_sum / static_cast<double>(s.count);
      stats.p50 = s.p50.Value();
      stats.p99 = s.p99.Value();
      out.emplace_back(name, stats);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

void DriftMonitor::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  count_ = 0;
  mean_ = 0.0;
  m2_ = 0.0;
  ph_up_ = 0.0;
  ph_down_ = 0.0;
  alarmed_ = false;
  global_p50_ = P2Quantile(0.5);
  global_p99_ = P2Quantile(0.99);
  keys_.clear();
  tenants_.clear();
}

DriftMonitor& DriftMonitor::Global() {
  static DriftMonitor* m = new DriftMonitor();
  return *m;
}

bool StartDriftMonitorFromEnv() {
  const char* env = std::getenv("LSCHED_DRIFT_MONITOR");
  if (env == nullptr || *env == '\0' || std::strcmp(env, "0") == 0 ||
      std::strcmp(env, "off") == 0 || std::strcmp(env, "false") == 0) {
    return false;
  }
  DriftMonitor::Global().AttachToDecisionLog();
  return true;
}

}  // namespace obs
}  // namespace lsched
