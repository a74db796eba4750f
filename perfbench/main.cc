// perfbench: the repository's end-to-end benchmark. One run executes one
// workload for a fixed window and prints, as its last stdout line, a JSON
// object {correct, attempted, failed, metrics}. Untraced runs report the
// end-to-end metrics, traced runs (--trace 1) the per-layer ledger.
//
//   perfbench --workload lsched_closed|fifo_open|train_sim --seed N
//             --seconds S --trace 0|1 [--out-dir DIR] [--corrupt-checksum]
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>

#include "bench.h"

namespace perfbench {

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

namespace {

struct MetricName {
  const char* name;
  const char* unit;
};

/// Every run prints every metric of its kind, in this order; a layer a
/// workload does not touch reads 0.
constexpr MetricName kEndToEnd[] = {
    {"ops_per_s", "1/s"}, {"p50_ms", "ms"}, {"p99_ms", "ms"},
    {"setup_s", "s"},     {"rss_mb", "MB"},
};
constexpr MetricName kPerLayer[] = {
    {"exec.dispatch_us_per_wo", "us"}, {"exec.kernel_us_per_wo", "us"},
    {"exec.work_orders", "count"},     {"exec.stall_frac", "ratio"},
    {"exec.idle_frac", "ratio"},       {"exec.queue_wait_ms", "ms"},
    {"exec.service_ms", "ms"},         {"exec.admission_wait_ms", "ms"},
    {"exec.max_inflight", "count"},    {"exec.retries", "count"},
    {"sched.decisions", "count"},      {"sched.decision_us_p50", "us"},
    {"sched.decision_us_p99", "us"},   {"sched.busy_frac", "ratio"},
    {"sched.fallbacks", "count"},      {"core.encoder_hit_ratio", "ratio"},
    {"serve.admission_us_p50", "us"},  {"serve.filter_us_p50", "us"},
    {"serve.filter_us_p99", "us"},     {"serve.terminal_us_p50", "us"},
    {"serve.redirects", "count"},      {"serve.injections", "count"},
    {"serve.shed", "count"},           {"client.submit_us_p50", "us"},
    {"client.late_ms_p99", "ms"},      {"client.drain_ms", "ms"},
    {"train.rollout_ms_p50", "ms"},    {"train.update_ms_p50", "ms"},
    {"train.decisions_per_episode", "count"},
    {"train.us_per_decision", "us"},   {"traced.ops_per_s", "1/s"},
    {"traced.p50_ms", "ms"},           {"traced.p99_ms", "ms"},
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "lsched_closed|fifo_open|train_sim --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR] [--corrupt-checksum]\n",
               why);
  return 2;
}

int CpuCount() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return CPU_COUNT(&set);
}

void PrintJson(const Outcome& o, bool trace) {
  std::map<std::string, const Metric*> got;
  for (const Metric& m : trace ? o.per_layer : o.end_to_end) got[m.name] = &m;
  std::string json = "{\"correct\": ";
  json += o.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(o.attempted);
  json += ", \"failed\": " + std::to_string(o.failed);
  json += ", \"metrics\": {";
  bool first = true;
  auto emit = [&](const MetricName& m) {
    const auto it = got.find(m.name);
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%.17g", it == got.end() ? 0.0 : it->second->value);
    json += first ? "" : ", ";
    json += "\"" + std::string(m.name) + "\": {\"value\": " + buf +
            ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  };
  if (trace) {
    for (const MetricName& m : kPerLayer) emit(m);
  } else {
    for (const MetricName& m : kEndToEnd) emit(m);
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    if (a == "--corrupt-checksum") {
      opt.corrupt_checksum = true;
      continue;
    }
    if (v == nullptr) return Usage(("missing value for " + a).c_str());
    ++i;
    char* end = nullptr;
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v, &end, 10);
      have_seed = *end == '\0';
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v, &end);
      have_seconds = *end == '\0' && opt.seconds > 0.0 && opt.seconds <= 600.0;
    } else if (a == "--trace") {
      opt.trace = std::strcmp(v, "1") == 0;
      have_trace = opt.trace || std::strcmp(v, "0") == 0;
    } else if (a == "--out-dir") {
      opt.out_dir = v;
    } else {
      return Usage(("unknown flag " + a).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return Usage("--seed, --seconds (0, 600] and --trace 0|1 are required");
  }

  Outcome (*run)(const Options&) = nullptr;
  int threads = 4;  // load generator + coordinator + two workers
  if (opt.workload == "lsched_closed") {
    run = RunLSchedClosed;
  } else if (opt.workload == "fifo_open") {
    run = RunFifoOpen;
  } else if (opt.workload == "train_sim") {
    run = RunTrainSim;
    threads = 1;
  } else {
    return Usage(("unknown workload '" + opt.workload + "'").c_str());
  }
  const int cpus = CpuCount();
  std::fprintf(stderr, "perfbench: %s seed %llu, %.3g s, trace %d, thread budget %d of %d CPUs\n",
               opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
               opt.seconds, opt.trace ? 1 : 0, threads, cpus);
  if (threads > cpus) {
    std::fprintf(stderr, "perfbench: thread budget exceeds the CPU count; refusing to run\n");
    return 3;
  }

  const Outcome o = run(opt);
  for (const std::string& e : o.errors) std::fprintf(stderr, "perfbench: %s\n", e.c_str());
  std::fflush(stderr);
  PrintJson(o, opt.trace);
  return 0;
}
