#include "util/perf_snapshot.h"

#include <sys/utsname.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <thread>

#include "util/build_info.h"

namespace lsched {

namespace {

/// Escapes the few characters that could plausibly appear in provenance
/// strings; metric keys are identifier-like by convention.
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out.push_back(c);
  }
  return out;
}

std::string FormatDouble(double v) {
  char buf[64];
  // %.17g round-trips doubles exactly: a self-compare of a written and
  // re-parsed snapshot reports zero deltas.
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  std::string s(buf);
  if (s == "inf") s = "1e308";
  if (s == "-inf") s = "-1e308";
  if (s == "nan" || s == "-nan") s = "0";
  return s;
}

/// Extracts the first quoted string in `line`; returns false if none.
bool FirstQuoted(const std::string& line, std::string* out, size_t* after) {
  const size_t a = line.find('"');
  if (a == std::string::npos) return false;
  const size_t b = line.find('"', a + 1);
  if (b == std::string::npos) return false;
  out->assign(line, a + 1, b - a - 1);
  *after = b + 1;
  return true;
}

}  // namespace

double PerfSnapshot::Get(const std::string& key) const {
  for (const auto& [k, v] : metrics) {
    if (k == key) return v;
  }
  return std::nan("");
}

PerfSnapshot MakePerfSnapshot(const std::string& name) {
  PerfSnapshot snap;
  snap.name = name;
  snap.git_sha = buildinfo::kGitSha;
  snap.compiler = buildinfo::kCompiler;
  snap.build_type = buildinfo::kBuildType;
  utsname un{};
  if (uname(&un) == 0) {
    snap.machine = std::string(un.sysname) + "-" + un.machine;
  } else {
    snap.machine = "unknown";
  }
  snap.cores = static_cast<int>(std::thread::hardware_concurrency());
  return snap;
}

std::string PerfSnapshotToJson(const PerfSnapshot& snap) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"name\": \"" << JsonEscape(snap.name) << "\",\n";
  os << "  \"build\": {\n";
  os << "    \"git_sha\": \"" << JsonEscape(snap.git_sha) << "\",\n";
  os << "    \"compiler\": \"" << JsonEscape(snap.compiler) << "\",\n";
  os << "    \"build_type\": \"" << JsonEscape(snap.build_type) << "\"\n";
  os << "  },\n";
  os << "  \"machine\": {\n";
  os << "    \"fingerprint\": \"" << JsonEscape(snap.machine) << "\",\n";
  os << "    \"cores\": " << snap.cores << "\n";
  os << "  },\n";
  os << "  \"metrics\": {\n";
  for (size_t i = 0; i < snap.metrics.size(); ++i) {
    os << "    \"" << JsonEscape(snap.metrics[i].first)
       << "\": " << FormatDouble(snap.metrics[i].second)
       << (i + 1 < snap.metrics.size() ? ",\n" : "\n");
  }
  os << "  }\n";
  os << "}\n";
  return os.str();
}

bool WritePerfSnapshot(const PerfSnapshot& snap, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string json = PerfSnapshotToJson(snap);
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  std::fclose(f);
  return ok;
}

bool ParsePerfSnapshot(const std::string& text, PerfSnapshot* out) {
  *out = PerfSnapshot();
  out->cores = 0;
  std::istringstream is(text);
  std::string line;
  std::string section;  // "", "build", "machine", "metrics"
  bool saw_name = false;
  bool saw_metrics = false;
  while (std::getline(is, line)) {
    std::string key;
    size_t after = 0;
    if (!FirstQuoted(line, &key, &after)) {
      if (line.find('}') != std::string::npos) section.clear();
      continue;
    }
    const size_t colon = line.find(':', after);
    if (colon == std::string::npos) continue;
    std::string rest = line.substr(colon + 1);
    // Section opener?
    if (rest.find('{') != std::string::npos) {
      section = key;
      if (section == "metrics") saw_metrics = true;
      continue;
    }
    // String value?
    std::string sval;
    size_t ignored = 0;
    const bool is_string = FirstQuoted(rest, &sval, &ignored);
    if (section.empty() && key == "name" && is_string) {
      out->name = sval;
      saw_name = true;
    } else if (section == "build" && is_string) {
      if (key == "git_sha") out->git_sha = sval;
      if (key == "compiler") out->compiler = sval;
      if (key == "build_type") out->build_type = sval;
    } else if (section == "machine") {
      if (key == "fingerprint" && is_string) out->machine = sval;
      if (key == "cores") out->cores = std::atoi(rest.c_str());
    } else if (section == "metrics" && !is_string) {
      out->metrics.emplace_back(key, std::strtod(rest.c_str(), nullptr));
    }
  }
  return saw_name && saw_metrics;
}

bool ReadPerfSnapshot(const std::string& path, PerfSnapshot* out) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return false;
  std::string text;
  char buf[4096];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);
  return ParsePerfSnapshot(text, out);
}

bool MetricHigherIsBetter(const std::string& key) {
  static constexpr const char* kHigherIsBetter[] = {
      "speedup", "throughput", "per_sec", "hit_rate", "occupancy", "qps",
      "completed",
  };
  for (const char* marker : kHigherIsBetter) {
    if (key.find(marker) != std::string::npos) return true;
  }
  return false;
}

CompareResult ComparePerfSnapshots(const PerfSnapshot& baseline,
                                   const PerfSnapshot& fresh,
                                   const CompareOptions& opts) {
  CompareResult result;
  result.machine_mismatch =
      baseline.machine != fresh.machine || baseline.cores != fresh.cores;
  result.build_flags_mismatch = baseline.build_type != fresh.build_type;
  for (const auto& [key, old_value] : baseline.metrics) {
    MetricDelta d;
    d.key = key;
    d.old_value = old_value;
    d.higher_is_better = MetricHigherIsBetter(key);
    const double new_value = fresh.Get(key);
    if (std::isnan(new_value)) {
      d.severity = MetricDelta::kMissing;
      result.deltas.push_back(d);
      continue;
    }
    d.new_value = new_value;
    // Relative regression, direction-aware. Guard zero/negative baselines:
    // a metric that was 0 cannot regress relatively, only absolutely — we
    // treat any move off an exact 0 as informational.
    if (old_value > 0.0 && new_value > 0.0) {
      d.regression = d.higher_is_better ? old_value / new_value - 1.0
                                        : new_value / old_value - 1.0;
    } else {
      d.regression = 0.0;
    }
    const bool can_fail =
        opts.fail_filter.empty() || key.find(opts.fail_filter) != std::string::npos;
    if (d.regression > opts.fail_threshold && can_fail) {
      d.severity = MetricDelta::kFail;
    } else if (d.regression > opts.warn_threshold) {
      d.severity = MetricDelta::kWarn;
    }
    // Shared-runner mode: a different machine cannot hard-fail the gate
    // unless the caller insists (--strict).
    if (d.severity == MetricDelta::kFail && result.machine_mismatch &&
        !opts.strict) {
      d.severity = MetricDelta::kWarn;
    }
    if (d.severity == MetricDelta::kFail) ++result.fails;
    if (d.severity == MetricDelta::kWarn) ++result.warns;
    result.deltas.push_back(d);
  }
  for (const auto& [key, value] : fresh.metrics) {
    if (!std::isnan(baseline.Get(key))) continue;
    MetricDelta d;
    d.key = key;
    d.new_value = value;
    d.severity = MetricDelta::kNew;
    result.deltas.push_back(d);
  }
  return result;
}

std::string RenderCompare(const PerfSnapshot& baseline,
                          const PerfSnapshot& fresh,
                          const CompareResult& result) {
  std::ostringstream os;
  os << "bench_compare: " << baseline.name << "\n";
  os << "  baseline: sha=" << baseline.git_sha << " machine=" << baseline.machine
     << "/" << baseline.cores << "c\n";
  os << "  fresh:    sha=" << fresh.git_sha << " machine=" << fresh.machine
     << "/" << fresh.cores << "c\n";
  if (result.machine_mismatch) {
    os << "  note: machine fingerprints differ — regressions downgraded to"
          " warnings (pass --strict to gate anyway)\n";
  }
  if (result.build_flags_mismatch) {
    os << "  note: build flags differ between snapshots\n";
  }
  size_t width = 8;
  for (const MetricDelta& d : result.deltas) width = std::max(width, d.key.size());
  char buf[256];
  for (const MetricDelta& d : result.deltas) {
    const char* tag = "ok  ";
    switch (d.severity) {
      case MetricDelta::kWarn: tag = "WARN"; break;
      case MetricDelta::kFail: tag = "FAIL"; break;
      case MetricDelta::kNew: tag = "new "; break;
      case MetricDelta::kMissing: tag = "gone"; break;
      default: break;
    }
    if (d.severity == MetricDelta::kNew) {
      std::snprintf(buf, sizeof(buf), "  %s %-*s %14s -> %12.6g\n", tag,
                    static_cast<int>(width), d.key.c_str(), "-", d.new_value);
    } else if (d.severity == MetricDelta::kMissing) {
      std::snprintf(buf, sizeof(buf), "  %s %-*s %14.6g -> %12s\n", tag,
                    static_cast<int>(width), d.key.c_str(), d.old_value, "-");
    } else {
      std::snprintf(buf, sizeof(buf), "  %s %-*s %14.6g -> %12.6g  %+6.1f%%%s\n",
                    tag, static_cast<int>(width), d.key.c_str(), d.old_value,
                    d.new_value, d.regression * 100.0,
                    d.higher_is_better ? " (higher is better)" : "");
    }
    os << buf;
  }
  os << "  " << result.fails << " fail(s), " << result.warns << " warn(s), "
     << result.deltas.size() << " metric(s)\n";
  return os.str();
}

int CompareExitCode(const CompareResult& result, const CompareOptions& opts) {
  if (opts.warn_only) return 0;
  return result.fails > 0 ? 1 : 0;
}

}  // namespace lsched
