#include "ledger.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <unordered_map>

#include "util/math_util.h"

namespace perfbench {

std::vector<Span> MergeSpans(const std::vector<const SpanLog*>& logs) {
  std::vector<Span> out;
  out.push_back(Span{"run", 0, 0, -1, -1});
  int64_t lo = INT64_MAX;
  int64_t hi = INT64_MIN;
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      out.push_back(s);
      lo = std::min(lo, s.start_ns);
      hi = std::max(hi, s.end_ns);
    }
  }
  if (out.size() > 1) {
    out[0].start_ns = lo;
    out[0].end_ns = hi;
  }
  std::unordered_map<int64_t, int32_t> query_span;
  for (size_t i = 1; i < out.size(); ++i) {
    if (std::strcmp(out[i].name, "query") == 0) {
      query_span[out[i].query] = static_cast<int32_t>(i);
    }
  }
  for (size_t i = 1; i < out.size(); ++i) {
    Span& s = out[i];
    s.parent = 0;
    if (s.query >= 0 && std::strcmp(s.name, "query") != 0) {
      const auto it = query_span.find(s.query);
      if (it != query_span.end()) s.parent = it->second;
    }
  }
  return out;
}

WindowStats Summarize(const std::vector<OpSample>& ops, int64_t start_ns,
                      int64_t end_ns) {
  std::vector<double> lat;
  for (const OpSample& op : ops) {
    if (op.done_ns >= start_ns && op.done_ns < end_ns) lat.push_back(op.latency_ms);
  }
  WindowStats w;
  w.samples = lat.size();
  w.ops_per_s = static_cast<double>(lat.size()) / (static_cast<double>(end_ns - start_ns) * 1e-9);
  w.p50_ms = lsched::Percentile(lat, 50);
  w.p99_ms = lsched::Percentile(lat, 99);
  return w;
}

void PrintSpanTable(const std::vector<Span>& spans) {
  // Child intervals per parent, for self time.
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) children[s.parent].push_back({s.start_ns, s.end_ns});
  }
  struct Row {
    int64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
    std::vector<double> us;
  };
  std::map<std::string, Row> rows;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t cur_lo = 0;
    int64_t cur_hi = -1;
    bool open = false;
    for (const auto& [a0, b0] : kids) {
      const int64_t a = std::max(a0, s.start_ns);
      const int64_t b = std::min(b0, s.end_ns);
      if (b <= a) continue;
      if (open && a <= cur_hi) {
        cur_hi = std::max(cur_hi, b);
      } else {
        if (open) covered += cur_hi - cur_lo;
        cur_lo = a;
        cur_hi = b;
        open = true;
      }
    }
    if (open) covered += cur_hi - cur_lo;
    const int64_t dur = s.end_ns - s.start_ns;
    Row& r = rows[s.name];
    ++r.count;
    r.total_ms += static_cast<double>(dur) * 1e-6;
    r.self_ms += static_cast<double>(dur - covered) * 1e-6;
    r.us.push_back(static_cast<double>(dur) * 1e-3);
  }
  std::fprintf(stderr, "%-18s %10s %12s %12s %10s %10s\n", "span", "count",
               "total_ms", "self_ms", "p50_us", "p99_us");
  for (auto& [name, r] : rows) {
    const double p50 = lsched::Percentile(r.us, 50);
    const double p99 = lsched::Percentile(r.us, 99);
    std::fprintf(stderr, "%-18s %10lld %12.3f %12.3f %10.2f %10.2f\n",
                 name.c_str(), static_cast<long long>(r.count), r.total_ms,
                 r.self_ms, p50, p99);
  }
}

bool WriteSpansCsv(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "name,start_ns,end_ns,query,parent\n");
  for (const Span& s : spans) {
    std::fprintf(f, "%s,%lld,%lld,%lld,%d\n", s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(s.query), s.parent);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
