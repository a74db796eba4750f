#include "obs/metrics.h"

#include <algorithm>
#include <cmath>

namespace lsched {
namespace obs {

namespace {
constexpr size_t kBuckets = internal::kHistogramBuckets;
constexpr double kMinValue = internal::kHistogramMinValue;
}  // namespace

double HistogramSnapshot::LowerBound(size_t bucket) {
  if (bucket == 0) return 0.0;
  return kMinValue * std::exp2(static_cast<double>(bucket - 1));
}

double HistogramSnapshot::UpperBound(size_t bucket) {
  return kMinValue * std::exp2(static_cast<double>(bucket));
}

void HistogramSnapshot::Merge(const HistogramSnapshot& other) {
  if (bucket_counts.size() < other.bucket_counts.size()) {
    bucket_counts.resize(other.bucket_counts.size(), 0);
  }
  for (size_t i = 0; i < other.bucket_counts.size(); ++i) {
    bucket_counts[i] += other.bucket_counts[i];
  }
  count += other.count;
  sum += other.sum;
}

double HistogramSnapshot::Percentile(double p) const {
  if (count == 0) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  const double rank = p / 100.0 * static_cast<double>(count);
  uint64_t seen = 0;
  for (size_t i = 0; i < bucket_counts.size(); ++i) {
    const uint64_t c = bucket_counts[i];
    if (c == 0) continue;
    if (static_cast<double>(seen + c) >= rank) {
      // Linear interpolation inside the bucket.
      const double lo = LowerBound(i);
      const double hi = UpperBound(i);
      const double frac =
          (rank - static_cast<double>(seen)) / static_cast<double>(c);
      return lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
    }
    seen += c;
  }
  return UpperBound(bucket_counts.empty() ? 0 : bucket_counts.size() - 1);
}

namespace internal {

size_t AssignShardIndex() {
  static std::atomic<size_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed) % kShards;
}

}  // namespace internal

void Histogram::MergeSnapshot(const HistogramSnapshot& snap) {
  if (!Enabled() || snap.count == 0) return;
  Shard& s = shards_[internal::ShardIndex()];
  const size_t n = std::min(snap.bucket_counts.size(), kBuckets);
  for (size_t b = 0; b < n; ++b) {
    if (snap.bucket_counts[b] != 0) {
      s.buckets[b].fetch_add(snap.bucket_counts[b], std::memory_order_relaxed);
    }
  }
  internal::AtomicAddDouble(&s.sum, snap.sum);
}

HistogramSnapshot Histogram::TakeSnapshot() const {
  HistogramSnapshot snap;
  snap.bucket_counts.assign(kBuckets, 0);
  for (const Shard& s : shards_) {
    for (size_t b = 0; b < kBuckets; ++b) {
      snap.bucket_counts[b] += s.buckets[b].load(std::memory_order_relaxed);
    }
    snap.sum += s.sum.load(std::memory_order_relaxed);
  }
  for (uint64_t c : snap.bucket_counts) snap.count += c;
  return snap;
}

void Histogram::Reset() {
  for (Shard& s : shards_) {
    for (size_t b = 0; b < kBuckets; ++b) {
      s.buckets[b].store(0, std::memory_order_relaxed);
    }
    s.sum.store(0.0, std::memory_order_relaxed);
  }
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& c : counters_) {
    if (c->name() == name) return c.get();
  }
  counters_.push_back(std::make_unique<Counter>(name));
  return counters_.back().get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& g : gauges_) {
    if (g->name() == name) return g.get();
  }
  gauges_.push_back(std::make_unique<Gauge>(name));
  return gauges_.back().get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& h : histograms_) {
    if (h->name() == name) return h.get();
  }
  histograms_.push_back(std::make_unique<Histogram>(name));
  return histograms_.back().get();
}

MetricsRegistry::Snapshot MetricsRegistry::TakeSnapshot() const {
  Snapshot snap;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& c : counters_) {
    snap.counters.emplace_back(c->name(), c->Value());
  }
  for (const auto& g : gauges_) {
    snap.gauges.emplace_back(g->name(), g->Value());
  }
  for (const auto& h : histograms_) {
    snap.histograms.emplace_back(h->name(), h->TakeSnapshot());
  }
  auto by_name = [](const auto& a, const auto& b) { return a.first < b.first; };
  std::sort(snap.counters.begin(), snap.counters.end(), by_name);
  std::sort(snap.gauges.begin(), snap.gauges.end(), by_name);
  std::sort(snap.histograms.begin(), snap.histograms.end(), by_name);
  return snap;
}

void MetricsRegistry::ResetAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& c : counters_) c->Reset();
  for (const auto& g : gauges_) g->Reset();
  for (const auto& h : histograms_) h->Reset();
}

}  // namespace obs
}  // namespace lsched
