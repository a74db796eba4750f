#ifndef LSCHED_OBS_METRICS_H_
#define LSCHED_OBS_METRICS_H_

// Metrics registry: named counters, gauges, and log-bucketed histograms.
//
// Hot-path writes (Counter::Add, Gauge::Add, Histogram::Observe) touch only
// a per-thread shard (cache-line-aligned atomics, relaxed ordering) — no
// locks, no false sharing. Reads (Value()/TakeSnapshot()) aggregate across
// shards and may be slightly stale with respect to concurrent writers,
// which is fine for telemetry.
//
// Naming convention (DESIGN.md §8): dotted lowercase, prefixed by subsystem
// — `engine.*` (work-order execution), `sched.*` (scheduling decisions),
// `train.*` (RL trainer loop).
//
// Every write checks obs::Enabled() first, so instrumentation sites need
// no guard of their own.

#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/obs.h"

namespace lsched {
namespace obs {

/// Aggregated view of one histogram, safe to copy around and merge.
struct HistogramSnapshot {
  /// count[i] counts observations in [LowerBound(i), UpperBound(i)).
  std::vector<uint64_t> bucket_counts;
  uint64_t count = 0;
  double sum = 0.0;

  /// Geometric bucket boundaries shared by every histogram: bucket 0 is
  /// [0, kMinValue); bucket i >= 1 is [kMin * 2^(i-1), kMin * 2^i); the
  /// last bucket absorbs any overflow.
  static double LowerBound(size_t bucket);
  static double UpperBound(size_t bucket);

  void Merge(const HistogramSnapshot& other);
  /// Percentile estimate (p in [0,100]) via linear interpolation inside
  /// the owning bucket. Returns 0 for an empty histogram.
  double Percentile(double p) const;
  double Mean() const { return count == 0 ? 0.0 : sum / double(count); }
};

namespace internal {
inline constexpr size_t kShards = 16;
inline constexpr size_t kHistogramBuckets = 64;
inline constexpr double kHistogramMinValue = 1e-9;

struct alignas(64) CounterShard {
  std::atomic<int64_t> value{0};
};

/// Round-robin shard assignment for a new thread (defined in metrics.cc).
size_t AssignShardIndex();

/// Index of the calling thread's shard (stable per thread, round-robin).
/// Inline: one TLS load on the metric hot path.
inline size_t ShardIndex() {
  thread_local size_t idx = AssignShardIndex();
  return idx;
}

inline void AtomicAddDouble(std::atomic<double>* a, double delta) {
  double cur = a->load(std::memory_order_relaxed);
  while (
      !a->compare_exchange_weak(cur, cur + delta, std::memory_order_relaxed)) {
  }
}

/// Exact 2^k for -1022 <= k <= 1023, bit-assembled — no libm call.
inline double Exp2i(int k) {
  return std::bit_cast<double>(static_cast<uint64_t>(1023 + k) << 52);
}

/// Lower bound of bucket b >= 1 (== HistogramSnapshot::LowerBound, but
/// inline and exact: a power-of-two multiply never rounds).
inline double BucketLower(size_t bucket) {
  return kHistogramMinValue * Exp2i(static_cast<int>(bucket) - 1);
}
}  // namespace internal

/// Monotonically increasing counter.
class Counter {
 public:
  explicit Counter(std::string name) : name_(std::move(name)) {}

  void Add(int64_t delta = 1) {
    if (!Enabled()) return;
    shards_[internal::ShardIndex()].value.fetch_add(
        delta, std::memory_order_relaxed);
  }
  int64_t Value() const {
    int64_t total = 0;
    for (const auto& s : shards_) total += s.value.load(std::memory_order_relaxed);
    return total;
  }
  const std::string& name() const { return name_; }
  void Reset() {
    for (auto& s : shards_) s.value.store(0, std::memory_order_relaxed);
  }

 private:
  std::string name_;
  internal::CounterShard shards_[internal::kShards];
};

/// Up-down gauge. Add/Sub are sharded (hot-path safe); Set is a
/// low-frequency convenience that collapses the value into shard 0.
class Gauge {
 public:
  explicit Gauge(std::string name) : name_(std::move(name)) {}

  void Add(double delta) {
    if (!Enabled()) return;
    internal::AtomicAddDouble(&shards_[internal::ShardIndex()].value, delta);
  }
  void Sub(double delta) { Add(-delta); }
  void Set(double value) {
    if (!Enabled()) return;
    shards_[0].value.store(value, std::memory_order_relaxed);
    for (size_t i = 1; i < internal::kShards; ++i) {
      shards_[i].value.store(0.0, std::memory_order_relaxed);
    }
  }
  double Value() const {
    double total = 0.0;
    for (const auto& s : shards_) total += s.value.load(std::memory_order_relaxed);
    return total;
  }
  const std::string& name() const { return name_; }
  void Reset() {
    for (auto& s : shards_) s.value.store(0.0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Shard {
    std::atomic<double> value{0.0};
  };
  std::string name_;
  Shard shards_[internal::kShards];
};

/// Log-bucketed (base-2 geometric) histogram; see HistogramSnapshot for the
/// bucket layout. Designed for durations in seconds (1ns .. ~10^10s).
class Histogram {
 public:
  explicit Histogram(std::string name) : name_(std::move(name)) {}

  void Observe(double value) {
    if (!Enabled()) return;
    Shard& s = shards_[internal::ShardIndex()];
    s.buckets[BucketFor(value)].fetch_add(1, std::memory_order_relaxed);
    internal::AtomicAddDouble(&s.sum, value);
  }
  HistogramSnapshot TakeSnapshot() const;
  const std::string& name() const { return name_; }
  void Reset();

  /// Folds a locally-accumulated snapshot in (one atomic pass, not one per
  /// observation) — the batch path for single-threaded recorders.
  void MergeSnapshot(const HistogramSnapshot& snap);

  /// Bucket index for `value` (exposed for tests). Inline and libm-free:
  /// this runs on every Observe.
  static size_t BucketFor(double value) {
    if (!(value >= internal::kHistogramMinValue)) return 0;  // NaN/negatives
    // Multiply by the (inexact) reciprocal instead of dividing: the
    // exponent only needs to be within one of the true bucket, and the
    // boundary nudges below repair that.
    const double ratio = value * 1e9;
    // Exponent field == floor(log2) for positive normals.
    const int exp = static_cast<int>(
                        (std::bit_cast<uint64_t>(ratio) >> 52) & 0x7ffu) -
                    1023 + 1;
    if (exp < 1) return 1;
    if (exp >= static_cast<int>(internal::kHistogramBuckets)) {
      return internal::kHistogramBuckets - 1;
    }
    // The division can land on the wrong side of an exact power-of-two
    // boundary; nudge into the half-open [lower, upper) bucket.
    size_t b = static_cast<size_t>(exp);
    if (value < internal::BucketLower(b)) --b;
    if (b + 1 < internal::kHistogramBuckets &&
        value >= internal::BucketLower(b + 1)) {
      ++b;
    }
    return b;
  }

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> buckets[internal::kHistogramBuckets] = {};
    std::atomic<double> sum{0.0};
  };
  std::string name_;
  Shard shards_[internal::kShards];
};

/// Process-global registry. Get* creates on first use and returns a stable
/// pointer — call sites should cache it (e.g. in a function-local static).
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  /// Aggregated values of everything registered so far, sorted by name.
  struct Snapshot {
    std::vector<std::pair<std::string, int64_t>> counters;
    std::vector<std::pair<std::string, double>> gauges;
    std::vector<std::pair<std::string, HistogramSnapshot>> histograms;
  };
  Snapshot TakeSnapshot() const;

  /// Zeroes every metric (names stay registered). Intended for benches and
  /// tests between measured sections, not for concurrent hot paths.
  void ResetAll();

 private:
  MetricsRegistry() = default;
  mutable std::mutex mu_;
  // node-stable maps: pointers handed out must survive rehash.
  std::vector<std::unique_ptr<Counter>> counters_;
  std::vector<std::unique_ptr<Gauge>> gauges_;
  std::vector<std::unique_ptr<Histogram>> histograms_;
};

}  // namespace obs
}  // namespace lsched

#endif  // LSCHED_OBS_METRICS_H_
