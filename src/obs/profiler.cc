#include "obs/profiler.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "obs/metrics.h"
#include "testing/faultpoint.h"

namespace lsched {
namespace prof {

// --- WorkerAccount --------------------------------------------------------

const char* WorkerStateName(WorkerState s) {
  switch (s) {
    case WorkerState::kDispatch: return "dispatch_overhead";
    case WorkerState::kExecuting: return "executing";
    case WorkerState::kIdle: return "idle";
    case WorkerState::kStalled: return "stalled";
    case WorkerState::kDraining: return "draining";
  }
  return "unknown";
}

bool ParseWorkerState(const std::string& name, WorkerState* out) {
  for (int i = 0; i < kNumWorkerStates; ++i) {
    const WorkerState s = static_cast<WorkerState>(i);
    if (name == WorkerStateName(s)) {
      *out = s;
      return true;
    }
  }
  return false;
}

void WorkerAccount::Start(int64_t now_ns, WorkerState initial) {
  for (auto& bucket : ns_) bucket.store(0, std::memory_order_relaxed);
  wall_ns_.store(0, std::memory_order_relaxed);
  start_ns_ = now_ns;
  last_ns_ = now_ns;
  state_.store(static_cast<uint8_t>(initial), std::memory_order_relaxed);
  started_.store(true, std::memory_order_release);
}

void WorkerAccount::Transition(WorkerState next, int64_t now_ns) {
  const int64_t now = std::max(now_ns, last_ns_);
  const int cur = state_.load(std::memory_order_relaxed);
  // Single-writer: load+store (not fetch_add) keeps the hot path one
  // uncontended cache line with no RMW.
  ns_[cur].store(ns_[cur].load(std::memory_order_relaxed) + (now - last_ns_),
                 std::memory_order_relaxed);
  wall_ns_.store(now - start_ns_, std::memory_order_relaxed);
  last_ns_ = now;
  state_.store(static_cast<uint8_t>(next), std::memory_order_relaxed);
}

void WorkerAccount::Stop(int64_t now_ns) {
  Transition(current(), now_ns);
}

WorkerStateBuckets WorkerAccount::Read() const {
  WorkerStateBuckets out;
  for (int i = 0; i < kNumWorkerStates; ++i) {
    out.ns[i] = ns_[i].load(std::memory_order_relaxed);
  }
  // wall_ns is computed from the start/last timestamps, independently of
  // the buckets, so the telescoping invariant (SumNs() == wall_ns) checks
  // two arithmetic paths against each other. It is exact once the owner
  // called Stop (and was joined); a live racy read may be mid-transition
  // and off by the in-flight interval.
  out.wall_ns = wall_ns_.load(std::memory_order_relaxed);
  return out;
}

// --- CounterTables --------------------------------------------------------

CounterTables& CounterTables::Global() {
  static CounterTables* tables = new CounterTables();
  return *tables;
}

void CounterTables::Register(const std::string& table, const std::string& label,
                             std::function<double()> value, bool rated) {
  std::lock_guard<std::mutex> lock(mu_);
  Table* t = nullptr;
  for (Table& existing : tables_) {
    if (existing.name == table) {
      t = &existing;
      break;
    }
  }
  if (t == nullptr) {
    tables_.emplace_back();
    t = &tables_.back();
    t->name = table;
  }
  for (Row& row : t->rows) {
    if (row.label == label) {
      row.fn = std::move(value);
      row.rated = rated;
      return;
    }
  }
  Row row;
  row.label = label;
  row.fn = std::move(value);
  row.rated = rated;
  t->rows.push_back(std::move(row));
}

std::string CounterTables::Render() {
  std::lock_guard<std::mutex> lock(mu_);
  const double now_us =
      std::chrono::duration<double, std::micro>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count();
  const double dt = have_render_time_ ? (now_us - last_render_micros_) * 1e-6
                                      : 0.0;
  std::ostringstream os;
  size_t width = 12;
  for (const Table& t : tables_) {
    for (const Row& row : t.rows) width = std::max(width, row.label.size());
  }
  char buf[192];
  for (Table& t : tables_) {
    os << "[" << t.name << "]\n";
    for (Row& row : t.rows) {
      const double v = row.fn ? row.fn() : 0.0;
      if (row.rated) {
        if (row.have_last && dt > 0.0) {
          std::snprintf(buf, sizeof(buf), "  %-*s %14.6g %12.1f/s\n",
                        static_cast<int>(width), row.label.c_str(), v,
                        (v - row.last) / dt);
        } else {
          std::snprintf(buf, sizeof(buf), "  %-*s %14.6g %12s\n",
                        static_cast<int>(width), row.label.c_str(), v, "-");
        }
      } else {
        std::snprintf(buf, sizeof(buf), "  %-*s %14.6g\n",
                      static_cast<int>(width), row.label.c_str(), v);
      }
      os << buf;
      row.last = v;
      row.have_last = true;
    }
  }
  last_render_micros_ = now_us;
  have_render_time_ = true;
  return os.str();
}

void CounterTables::ResetRates() {
  std::lock_guard<std::mutex> lock(mu_);
  have_render_time_ = false;
  for (Table& t : tables_) {
    for (Row& row : t.rows) row.have_last = false;
  }
}

namespace {

std::function<double()> CounterFn(const char* name) {
  return [name]() {
    return obs::MetricsRegistry::Global().GetCounter(name)->Value();
  };
}

/// value(a) / max(1, value(b)) — hit rates, batch occupancy.
std::function<double()> RatioFn(const char* num, const char* num2,
                                const char* den) {
  return [num, num2, den]() {
    auto& reg = obs::MetricsRegistry::Global();
    const double n = reg.GetCounter(num)->Value() +
                     (num2 != nullptr ? reg.GetCounter(num2)->Value() : 0.0);
    const double d = reg.GetCounter(den)->Value();
    return d > 0.0 ? n / d : 0.0;
  };
}

}  // namespace

void RegisterDefaultCounterTables() {
  static bool registered = [] {
    CounterTables& t = CounterTables::Global();
    t.Register("sched", "decisions", CounterFn("sched.invocations"));
    t.Register("sched", "pipelines_launched",
               CounterFn("sched.pipelines_launched"));
    t.Register("sched", "fallback_decisions",
               CounterFn("sched.fallback_decisions"));
    t.Register("sched", "policy_fallbacks", CounterFn("sched.fallback_total"));
    t.Register("encoder", "cache_hits", CounterFn("sched.encoder_cache_hits"));
    t.Register("encoder", "cache_misses",
               CounterFn("sched.encoder_cache_misses"));
    t.Register("encoder", "hit_rate",
               [] {
                 auto& reg = obs::MetricsRegistry::Global();
                 const double h =
                     reg.GetCounter("sched.encoder_cache_hits")->Value();
                 const double m =
                     reg.GetCounter("sched.encoder_cache_misses")->Value();
                 return h + m > 0.0 ? h / (h + m) : 0.0;
               },
               /*rated=*/false);
    t.Register("nn", "batch_calls", CounterFn("nn.batch_calls"));
    t.Register("nn", "batch_rows", CounterFn("nn.batch_rows"));
    t.Register("nn", "batch_occupancy",
               RatioFn("nn.batch_rows", nullptr, "nn.batch_calls"),
               /*rated=*/false);
    t.Register("exec", "work_orders_dispatched",
               CounterFn("exec.work_orders_dispatched"));
    t.Register("exec", "work_orders_completed",
               CounterFn("exec.work_orders_completed"));
    t.Register("exec", "queries_completed",
               CounterFn("exec.queries_completed"));
    t.Register("exec", "retries", CounterFn("exec.retry_total"));
    t.Register("faults", "fires",
               [] {
                 return static_cast<double>(
                     FaultInjector::Global().total_fires());
               });
    t.Register("serve", "admitted", CounterFn("serve.admitted_total"));
    t.Register("serve", "shed", CounterFn("serve.shed_total"));
    t.Register("serve", "displaced", CounterFn("serve.displaced_total"));
    return true;
  }();
  (void)registered;
}

// --- sampling profiler ----------------------------------------------------

std::string ProfileSamplesToCsv(const std::vector<ProfileSample>& samples) {
  std::ostringstream os;
  os << "t_us,engine,worker,state\n";
  for (const ProfileSample& s : samples) {
    os << s.t_us << "," << s.engine << "," << s.worker << ","
       << WorkerStateName(s.state) << "\n";
  }
  return os.str();
}

bool ParseProfileCsv(const std::string& text,
                     std::vector<ProfileSample>* out) {
  out->clear();
  std::istringstream is(text);
  std::string line;
  if (!std::getline(is, line)) return false;
  if (line.rfind("t_us,", 0) != 0) return false;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    ProfileSample s;
    const size_t c1 = line.find(',');
    const size_t c2 = line.find(',', c1 == std::string::npos ? 0 : c1 + 1);
    const size_t c3 = line.find(',', c2 == std::string::npos ? 0 : c2 + 1);
    if (c1 == std::string::npos || c2 == std::string::npos ||
        c3 == std::string::npos) {
      return false;
    }
    s.t_us = std::strtoll(line.c_str(), nullptr, 10);
    s.engine = line.substr(c1 + 1, c2 - c1 - 1);
    s.worker = static_cast<int32_t>(std::strtol(line.c_str() + c2 + 1,
                                                nullptr, 10));
    if (!ParseWorkerState(line.substr(c3 + 1), &s.state)) return false;
    out->push_back(std::move(s));
  }
  return true;
}

std::string RenderProfileSummary(const std::vector<ProfileSample>& samples) {
  // (engine, worker) -> per-state sample counts, in first-seen order.
  struct Key {
    std::string engine;
    int32_t worker;
  };
  std::vector<Key> order;
  std::vector<std::array<int64_t, kNumWorkerStates>> counts;
  for (const ProfileSample& s : samples) {
    size_t idx = order.size();
    for (size_t i = 0; i < order.size(); ++i) {
      if (order[i].engine == s.engine && order[i].worker == s.worker) {
        idx = i;
        break;
      }
    }
    if (idx == order.size()) {
      order.push_back({s.engine, s.worker});
      counts.push_back({});
    }
    counts[idx][static_cast<int>(s.state)] += 1;
  }
  std::ostringstream os;
  char buf[224];
  std::snprintf(buf, sizeof(buf), "%-10s %-6s %8s %9s %9s %6s %8s %9s\n",
                "engine", "worker", "samples", "dispatch%", "execute%",
                "idle%", "stalled%", "draining%");
  os << buf;
  for (size_t i = 0; i < order.size(); ++i) {
    int64_t total = 0;
    for (int64_t c : counts[i]) total += c;
    if (total == 0) continue;
    const double inv = 100.0 / static_cast<double>(total);
    std::snprintf(
        buf, sizeof(buf), "%-10s %-6d %8" PRId64 " %9.1f %9.1f %6.1f %8.1f %9.1f\n",
        order[i].engine.c_str(), order[i].worker, total,
        static_cast<double>(counts[i][0]) * inv,
        static_cast<double>(counts[i][1]) * inv,
        static_cast<double>(counts[i][2]) * inv,
        static_cast<double>(counts[i][3]) * inv,
        static_cast<double>(counts[i][4]) * inv);
    os << buf;
  }
  os << samples.size() << " sample(s)\n";
  return os.str();
}

SamplingProfiler& SamplingProfiler::Global() {
  static SamplingProfiler* profiler = new SamplingProfiler();
  return *profiler;
}

int SamplingProfiler::RegisterWorkers(
    const std::string& engine, std::vector<const WorkerAccount*> accounts) {
  std::lock_guard<std::mutex> lock(mu_);
  Registration reg;
  reg.handle = next_handle_++;
  reg.engine = engine;
  reg.accounts = std::move(accounts);
  registrations_.push_back(std::move(reg));
  return registrations_.back().handle;
}

void SamplingProfiler::UnregisterWorkers(int handle) {
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < registrations_.size(); ++i) {
    if (registrations_[i].handle == handle) {
      registrations_.erase(registrations_.begin() +
                           static_cast<ptrdiff_t>(i));
      return;
    }
  }
}

bool SamplingProfiler::Start(double hz, size_t capacity) {
  if (hz <= 0.0 || capacity == 0) return false;
  bool expected = false;
  if (!running_.compare_exchange_strong(expected, true)) return false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ring_ = obs::Ring<ProfileSample>(capacity);
  }
  stop_requested_.store(false, std::memory_order_release);
  period_us_ = 1e6 / hz;
  sampler_ = std::thread([this] {
    while (!stop_requested_.load(std::memory_order_acquire)) {
      SampleOnce();
      std::this_thread::sleep_for(std::chrono::duration<double, std::micro>(
          period_us_));
    }
  });
  return true;
}

void SamplingProfiler::Stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  stop_requested_.store(true, std::memory_order_release);
  if (sampler_.joinable()) sampler_.join();
  running_.store(false, std::memory_order_release);
}

void SamplingProfiler::SampleOnce() {
  const int64_t t_us = static_cast<int64_t>(obs::NowMicros());
  std::lock_guard<std::mutex> lock(mu_);
  for (const Registration& reg : registrations_) {
    for (size_t w = 0; w < reg.accounts.size(); ++w) {
      const WorkerAccount* acct = reg.accounts[w];
      if (acct == nullptr || !acct->started()) continue;
      ProfileSample s;
      s.t_us = t_us;
      s.engine = reg.engine;
      s.worker = static_cast<int32_t>(w);
      s.state = acct->current();
      ring_.Push(std::move(s));
    }
  }
}

std::vector<ProfileSample> SamplingProfiler::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.Snapshot();
}

int64_t SamplingProfiler::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(ring_.pushed() - ring_.size());
}

bool SamplingProfiler::WriteCsv(const std::string& path) const {
  const std::string csv = ProfileSamplesToCsv(Snapshot());
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(csv.data(), 1, csv.size(), f) == csv.size();
  std::fclose(f);
  return ok;
}

}  // namespace prof
}  // namespace lsched
