#include "obs/query_trace.h"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

namespace lsched {
namespace obs {
namespace {

// Local name tables: src/obs must not link lsched_exec, so the enum names
// are mirrored here (kept in sync with exec/exec_types.h by
// QueryTraceTest.StatusAndPriorityNamesMatchExec).
const char* const kStatusNames[] = {"ADMITTED", "RUNNING",  "DONE",
                                    "CANCELLED", "FAILED", "SHED"};
const char* const kPriorityNames[] = {"LOW", "NORMAL", "HIGH"};

const char* StatusName(int32_t s) {
  if (s < 0 || s >= static_cast<int32_t>(sizeof(kStatusNames) /
                                         sizeof(kStatusNames[0]))) {
    return "?";
  }
  return kStatusNames[s];
}

const char* PriorityName(int32_t p) {
  if (p < 0 || p >= static_cast<int32_t>(sizeof(kPriorityNames) /
                                         sizeof(kPriorityNames[0]))) {
    return "?";
  }
  return kPriorityNames[p];
}

void AppendF(std::string* out, const char* fmt, ...) {
  char buf[256];
  va_list ap;
  va_start(ap, fmt);
  vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  *out += buf;
}

std::vector<std::string> SplitCsv(const std::string& line) {
  std::vector<std::string> fields;
  std::string cur;
  for (char c : line) {
    if (c == ',') {
      fields.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  fields.push_back(cur);
  return fields;
}

}  // namespace

const char* TraceEdgeKindName(TraceEdgeKind k) {
  switch (k) {
    case TraceEdgeKind::kArrival: return "arrival";
    case TraceEdgeKind::kAdmit: return "admit";
    case TraceEdgeKind::kShed: return "shed";
    case TraceEdgeKind::kDisplace: return "displace";
    case TraceEdgeKind::kDisplacedBy: return "displaced_by";
    case TraceEdgeKind::kConsideredSkipped: return "considered_skipped";
    case TraceEdgeKind::kFallback: return "fallback";
    case TraceEdgeKind::kScheduled: return "scheduled";
    case TraceEdgeKind::kRedirected: return "redirected";
    case TraceEdgeKind::kInjected: return "injected";
    case TraceEdgeKind::kDispatch: return "dispatch";
    case TraceEdgeKind::kComplete: return "complete";
    case TraceEdgeKind::kFailed: return "failed";
    case TraceEdgeKind::kRetry: return "retry";
    case TraceEdgeKind::kTerminal: return "terminal";
  }
  return "?";
}

void ApplyEdge(LifecycleState* state, const TraceEdge& edge) {
  const int64_t now_ns = LatencyNs(edge.time);
  switch (edge.kind) {
    case TraceEdgeKind::kArrival:
      state->arrival_ns = now_ns;
      state->last_ns = now_ns;
      return;
    case TraceEdgeKind::kScheduled:
    case TraceEdgeKind::kDispatch:
    case TraceEdgeKind::kComplete:
    case TraceEdgeKind::kFailed:
    case TraceEdgeKind::kRetry:
    case TraceEdgeKind::kTerminal:
      break;
    default:
      return;  // causal-context edges carry no decomposition state
  }
  LatencyBreakdown& b = state->breakdown;
  const int64_t delta = now_ns - state->last_ns;
  if (state->inflight > 0) {
    b.service_ns += delta;
  } else if (state->retries_pending > 0) {
    b.stall_ns += delta;
  } else if (state->launched) {
    b.queue_ns += delta;
  } else {
    b.admission_ns += delta;
  }
  state->last_ns = now_ns;
  switch (edge.kind) {
    case TraceEdgeKind::kScheduled:
      state->launched = true;  // admission wait ends at the first launch
      break;
    case TraceEdgeKind::kDispatch:
      ++state->inflight;
      ++b.dispatches;
      if (edge.value != 0.0 && state->retries_pending > 0) {
        --state->retries_pending;
      }
      break;
    case TraceEdgeKind::kComplete:
    case TraceEdgeKind::kFailed:
      if (state->inflight > 0) --state->inflight;
      break;
    case TraceEdgeKind::kRetry:
      ++state->retries_pending;
      ++b.retries;
      break;
    case TraceEdgeKind::kTerminal:
      b.total_ns = now_ns - state->arrival_ns;
      b.valid = true;
      break;
    default:
      break;
  }
}

LatencyBreakdown DeriveBreakdown(const QueryTraceRecord& record) {
  LifecycleState state;
  for (const TraceEdge& e : record.edges) ApplyEdge(&state, e);
  return state.breakdown;
}

std::string RenderExplain(const QueryTraceRecord& r) {
  std::string out;
  AppendF(&out, "query %" PRId64 " — %s (tenant %d, %s priority, %s engine)\n",
          r.query, StatusName(r.final_status), r.tenant,
          PriorityName(r.priority), r.engine.c_str());
  AppendF(&out,
          "  end-to-end latency: %.3f ms (arrival t=%.6fs, terminal "
          "t=%.6fs)\n",
          r.breakdown.total_seconds() * 1e3, r.arrival_time, r.terminal_time);
  AppendF(&out,
          "  decomposition: admission %.3f ms | queue %.3f ms | service "
          "%.3f ms | stall %.3f ms%s\n",
          r.breakdown.admission_seconds() * 1e3,
          r.breakdown.queue_seconds() * 1e3,
          r.breakdown.service_seconds() * 1e3,
          r.breakdown.stall_seconds() * 1e3,
          r.breakdown.SumNs() == r.breakdown.total_ns
              ? "  [segments sum exactly to total]"
              : "  [WARNING: segments do not sum to total]");
  if (r.dropped_edges > 0) {
    AppendF(&out, "  (%" PRId64 " edges dropped past the per-query cap)\n",
            r.dropped_edges);
  }
  out += "  timeline:\n";
  // Counters for the per-segment attribution, split at the first launch.
  bool launched = false;
  int skipped_before = 0, skipped_after = 0;
  int fallback_before = 0, fallback_after = 0;
  int redirects = 0, injections = 0, retries = 0, dispatches = 0;
  bool shed_at_door = false;
  int64_t displaced_by = -1;
  for (const TraceEdge& e : r.edges) {
    const double rel_ms = (e.time - r.arrival_time) * 1e3;
    AppendF(&out, "    +%9.3f ms  ", rel_ms);
    switch (e.kind) {
      case TraceEdgeKind::kArrival:
        AppendF(&out, "arrival (tenant %" PRId64 ", %s priority)", e.a,
                PriorityName(static_cast<int32_t>(e.b)));
        break;
      case TraceEdgeKind::kAdmit:
        out += "admission verdict: admit";
        break;
      case TraceEdgeKind::kShed:
        out += "admission verdict: shed (refused at the door)";
        shed_at_door = true;
        break;
      case TraceEdgeKind::kDisplace:
        AppendF(&out, "admitted, displacing query %" PRId64, e.a);
        break;
      case TraceEdgeKind::kDisplacedBy:
        AppendF(&out, "displaced by higher-priority query %" PRId64, e.a);
        displaced_by = e.a;
        break;
      case TraceEdgeKind::kConsideredSkipped:
        AppendF(&out,
                "considered by decision #%" PRId64
                " but skipped (chose query %" PRId64
                ", predicted score %.4f)",
                e.a, e.b, e.value);
        (launched ? skipped_after : skipped_before) += 1;
        break;
      case TraceEdgeKind::kFallback:
        AppendF(&out,
                "considered by guard-fallback decision #%" PRId64
                " but skipped (chose query %" PRId64 ")",
                e.a, e.b);
        (launched ? fallback_after : fallback_before) += 1;
        break;
      case TraceEdgeKind::kScheduled:
        AppendF(&out,
                "pipeline launched by decision #%" PRId64
                " (root op %" PRId64 ", degree %d)",
                e.a, e.b, static_cast<int>(e.value));
        launched = true;
        break;
      case TraceEdgeKind::kRedirected:
        AppendF(&out,
                "launch redirected to query %" PRId64
                " by weighted-fairness post-processing",
                e.a);
        ++redirects;
        break;
      case TraceEdgeKind::kInjected:
        AppendF(&out, "launch injected (%s)",
                e.value == 1.0 ? "starved priority class"
                               : "under fair share");
        ++injections;
        break;
      case TraceEdgeKind::kDispatch:
        out += e.value != 0.0 ? "work-order retry dispatched"
                              : "work order dispatched";
        ++dispatches;
        break;
      case TraceEdgeKind::kComplete:
        AppendF(&out, "work order completed (%.3f ms)", e.value * 1e3);
        break;
      case TraceEdgeKind::kFailed:
        out += "work-order attempt failed";
        break;
      case TraceEdgeKind::kRetry:
        out += "failed attempt queued for retry";
        ++retries;
        break;
      case TraceEdgeKind::kTerminal:
        AppendF(&out, "terminal: %s",
                StatusName(static_cast<int32_t>(e.a)));
        break;
    }
    out += "\n";
  }
  out += "  attribution:\n";
  AppendF(&out, "    admission wait (%.3f ms): ",
          r.breakdown.admission_seconds() * 1e3);
  if (shed_at_door) {
    out += "refused by admission control (shed at the door)";
  } else if (displaced_by >= 0) {
    AppendF(&out, "displaced by query %" PRId64 " before any launch",
            displaced_by);
  } else {
    out += "waiting in the admitted set for the first pipeline launch";
    if (skipped_before + fallback_before > 0) {
      AppendF(&out, "; passed over by %d decision(s)",
              skipped_before + fallback_before);
      if (fallback_before > 0) {
        AppendF(&out, " (%d from guard fallback)", fallback_before);
      }
    }
  }
  out += "\n";
  AppendF(&out, "    queue wait (%.3f ms): ",
          r.breakdown.queue_seconds() * 1e3);
  if (redirects > 0) {
    AppendF(&out,
            "launch redirected away %d time(s) by weighted fairness",
            redirects);
    if (skipped_after + fallback_after > 0) {
      AppendF(&out, "; passed over by %d more decision(s)",
              skipped_after + fallback_after);
    }
  } else if (skipped_after + fallback_after > 0) {
    AppendF(&out, "passed over by %d decision(s)",
            skipped_after + fallback_after);
    if (fallback_after > 0) {
      AppendF(&out, " (%d from guard fallback)", fallback_after);
    }
  } else {
    out += "waiting for a free thread";
  }
  if (injections > 0) {
    AppendF(&out, "; %d injected launch(es) cut the wait", injections);
  }
  out += "\n";
  AppendF(&out, "    service (%.3f ms): %d work-order dispatch(es)\n",
          r.breakdown.service_seconds() * 1e3, dispatches);
  AppendF(&out, "    stall (%.3f ms): %d failed attempt(s) retried\n",
          r.breakdown.stall_seconds() * 1e3, retries);
  return out;
}

std::string QueryTraceCsvHeader() {
  return "query,tenant,priority,engine,status,arrival,terminal,"
         "admission_ns,queue_ns,service_ns,stall_ns,total_ns,dispatches,"
         "retries,dropped_edges,edge,time,kind,a,b,value";
}

void WriteQueryTraceCsv(const std::vector<QueryTraceRecord>& records,
                        std::ostream& os) {
  os << QueryTraceCsvHeader() << "\n";
  char buf[512];
  for (const QueryTraceRecord& r : records) {
    for (size_t i = 0; i < r.edges.size(); ++i) {
      const TraceEdge& e = r.edges[i];
      snprintf(buf, sizeof(buf),
               "%" PRId64 ",%d,%d,%s,%d,%.17g,%.17g,%" PRId64 ",%" PRId64
               ",%" PRId64 ",%" PRId64 ",%" PRId64 ",%d,%d,%" PRId64
               ",%zu,%.17g,%d,%" PRId64 ",%" PRId64 ",%.17g",
               r.query, r.tenant, r.priority, r.engine.c_str(),
               r.final_status, r.arrival_time, r.terminal_time,
               r.breakdown.admission_ns, r.breakdown.queue_ns,
               r.breakdown.service_ns, r.breakdown.stall_ns,
               r.breakdown.total_ns, r.breakdown.dispatches,
               r.breakdown.retries, r.dropped_edges, i, e.time,
               static_cast<int>(e.kind), e.a, e.b, e.value);
      os << buf << "\n";
    }
  }
}

bool ParseQueryTraceCsv(std::istream& is,
                        std::vector<QueryTraceRecord>* out) {
  out->clear();
  std::string line;
  if (!std::getline(is, line)) return false;
  if (!line.empty() && line.back() == '\r') line.pop_back();
  if (line != QueryTraceCsvHeader()) return false;
  while (std::getline(is, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    std::vector<std::string> f = SplitCsv(line);
    if (f.size() != 21) return false;
    const size_t edge_index = static_cast<size_t>(strtoull(
        f[15].c_str(), nullptr, 10));
    if (edge_index == 0) {
      QueryTraceRecord r;
      r.query = strtoll(f[0].c_str(), nullptr, 10);
      r.tenant = static_cast<int32_t>(strtol(f[1].c_str(), nullptr, 10));
      r.priority = static_cast<int32_t>(strtol(f[2].c_str(), nullptr, 10));
      r.engine = f[3];
      r.final_status =
          static_cast<int32_t>(strtol(f[4].c_str(), nullptr, 10));
      r.arrival_time = strtod(f[5].c_str(), nullptr);
      r.terminal_time = strtod(f[6].c_str(), nullptr);
      r.breakdown.admission_ns = strtoll(f[7].c_str(), nullptr, 10);
      r.breakdown.queue_ns = strtoll(f[8].c_str(), nullptr, 10);
      r.breakdown.service_ns = strtoll(f[9].c_str(), nullptr, 10);
      r.breakdown.stall_ns = strtoll(f[10].c_str(), nullptr, 10);
      r.breakdown.total_ns = strtoll(f[11].c_str(), nullptr, 10);
      r.breakdown.dispatches =
          static_cast<int32_t>(strtol(f[12].c_str(), nullptr, 10));
      r.breakdown.retries =
          static_cast<int32_t>(strtol(f[13].c_str(), nullptr, 10));
      r.breakdown.valid = true;
      r.dropped_edges = strtoll(f[14].c_str(), nullptr, 10);
      out->push_back(std::move(r));
    } else if (out->empty() || edge_index != out->back().edges.size()) {
      return false;  // out-of-order edge row
    }
    if (out->empty()) return false;
    TraceEdge e;
    e.time = strtod(f[16].c_str(), nullptr);
    e.kind = static_cast<TraceEdgeKind>(strtol(f[17].c_str(), nullptr, 10));
    e.a = strtoll(f[18].c_str(), nullptr, 10);
    e.b = strtoll(f[19].c_str(), nullptr, 10);
    e.value = strtod(f[20].c_str(), nullptr);
    out->back().edges.push_back(e);
  }
  return true;
}

QueryTraceLog::QueryTraceLog(size_t capacity) : ring_(capacity) {}

void QueryTraceLog::SetCapture(bool on) {
  std::lock_guard<std::mutex> lock(mu_);
  capture_ = on;
}

bool QueryTraceLog::capture_enabled() const {
  std::lock_guard<std::mutex> lock(mu_);
  return capture_;
}

void QueryTraceLog::Record(QueryTraceRecord record) {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.Push(std::move(record));
}

std::vector<QueryTraceRecord> QueryTraceLog::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.Snapshot();
}

bool QueryTraceLog::Find(int64_t query, QueryTraceRecord* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  // Newest first, so re-used ids resolve to the latest trace.
  const QueryTraceRecord* r = ring_.FindNewest(
      [query](const QueryTraceRecord& rec) { return rec.query == query; });
  if (r == nullptr) return false;
  *out = *r;
  return true;
}

size_t QueryTraceLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.size();
}

void QueryTraceLog::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.Clear();
}

bool QueryTraceLog::WriteCsv(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  WriteQueryTraceCsv(Snapshot(), os);
  return true;
}

QueryTraceLog& QueryTraceLog::Global() {
  static QueryTraceLog* log = new QueryTraceLog();
  return *log;
}

}  // namespace obs
}  // namespace lsched
