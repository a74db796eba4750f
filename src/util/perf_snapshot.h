#ifndef LSCHED_UTIL_PERF_SNAPSHOT_H_
#define LSCHED_UTIL_PERF_SNAPSHOT_H_

// Perf-trajectory snapshots (DESIGN.md §8.3). Every bench writes one
// BENCH_<name>.json with a flat metric map plus enough provenance (git
// sha, compiler, build flags, machine fingerprint) that a later diff can
// tell a code regression from an environment change. tools/bench_compare
// diffs two snapshots and exits nonzero past a regression threshold; CI
// runs it against the baselines committed at the repo root.

#include <string>
#include <utility>
#include <vector>

namespace lsched {

struct PerfSnapshot {
  std::string name;        ///< bench name, e.g. "serving" → BENCH_serving.json
  std::string git_sha;
  std::string compiler;
  std::string build_type;
  std::string machine;     ///< uname fingerprint, e.g. "Linux-x86_64"
  int cores = 0;

  /// Flat metric map; insertion order is preserved in the JSON.
  std::vector<std::pair<std::string, double>> metrics;

  void Add(const std::string& key, double value) {
    metrics.emplace_back(key, value);
  }
  /// First value stored under `key`, or NaN if absent.
  double Get(const std::string& key) const;
};

/// Snapshot pre-filled with build provenance (util/build_info.h) and the
/// machine fingerprint; callers Add() metrics and write it out.
PerfSnapshot MakePerfSnapshot(const std::string& name);

std::string PerfSnapshotToJson(const PerfSnapshot& snap);
bool WritePerfSnapshot(const PerfSnapshot& snap, const std::string& path);

/// Parses a snapshot previously produced by PerfSnapshotToJson. Tolerant
/// of whitespace/ordering but only of this writer's shape (one key per
/// line of `"key": value` pairs) — it is not a general JSON parser.
bool ParsePerfSnapshot(const std::string& text, PerfSnapshot* out);
bool ReadPerfSnapshot(const std::string& path, PerfSnapshot* out);

// --- comparison -----------------------------------------------------------

struct CompareOptions {
  double warn_threshold = 0.10;  ///< relative regression that warns
  double fail_threshold = 0.25;  ///< relative regression that fails
  /// Only metrics whose key contains this substring can hard-fail (others
  /// at most warn). Empty = every metric can fail. CI sets "p50" so noisy
  /// tail metrics on shared runners do not gate.
  std::string fail_filter;
  /// When the machine fingerprints differ, fails are downgraded to warns
  /// unless strict is set (shared-runner mode per ISSUE 8 satellite 5).
  bool strict = false;
  /// Render everything but always exit 0.
  bool warn_only = false;
};

struct MetricDelta {
  enum Severity { kOk, kWarn, kFail, kNew, kMissing };
  std::string key;
  double old_value = 0.0;
  double new_value = 0.0;
  /// Relative regression: positive = worse, negative = improvement.
  /// Direction-aware (a drop in a "*speedup*" metric is a regression).
  double regression = 0.0;
  bool higher_is_better = false;
  Severity severity = kOk;
};

struct CompareResult {
  std::vector<MetricDelta> deltas;
  bool machine_mismatch = false;
  bool build_flags_mismatch = false;  ///< build_type differs
  int warns = 0;
  int fails = 0;
};

/// Name heuristic for metric direction: keys containing speedup/throughput/
/// per_sec/hit_rate/occupancy/qps are higher-is-better, everything else
/// (latencies, overheads) lower-is-better.
bool MetricHigherIsBetter(const std::string& key);

CompareResult ComparePerfSnapshots(const PerfSnapshot& baseline,
                                   const PerfSnapshot& fresh,
                                   const CompareOptions& opts);

/// Aligned-text report of a comparison (one row per metric).
std::string RenderCompare(const PerfSnapshot& baseline,
                          const PerfSnapshot& fresh,
                          const CompareResult& result);

/// 0 = within thresholds, 1 = regression (respects warn_only/mismatch
/// downgrades, which are applied in ComparePerfSnapshots).
int CompareExitCode(const CompareResult& result, const CompareOptions& opts);

}  // namespace lsched

#endif  // LSCHED_UTIL_PERF_SNAPSHOT_H_
