#ifndef PERFBENCH_LEDGER_H_
#define PERFBENCH_LEDGER_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One benchmark-side span around a call into a layer. `query` ties the
/// spans of one query together (-1 = not about one query); the query's own
/// span ("query", submission to completion) is the parent of the others.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t query = -1;
  int32_t parent = -1;  ///< index into the merged span list, -1 = root
};

/// In-memory span buffer with a single writer thread. Each wrapper that
/// runs on one thread owns one; they are merged after the threads joined.
class SpanLog {
 public:
  explicit SpanLog(size_t reserve = 0) { spans_.reserve(reserve); }
  void Add(const char* name, int64_t start_ns, int64_t end_ns,
           int64_t query = -1) {
    spans_.push_back(Span{name, start_ns, end_ns, query, -1});
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// Merges span logs, links every span of a query to that query's "query"
/// span and every other span to a synthetic "run" root covering them all.
std::vector<Span> MergeSpans(const std::vector<const SpanLog*>& logs);

/// Per span name: count, total and self time (duration minus the union of
/// its children's intervals), p50/p99 duration. Printed to stderr.
void PrintSpanTable(const std::vector<Span>& spans);

/// Writes name,start_ns,end_ns,query,parent rows; false on I/O error.
bool WriteSpansCsv(const std::vector<Span>& spans, const std::string& path);

/// One completed operation of the timed window.
struct OpSample {
  int64_t done_ns = 0;
  double latency_ms = 0.0;
};

struct WindowStats {
  double ops_per_s = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  size_t samples = 0;
};

/// Throughput and latency percentiles of the operations that completed in
/// [start_ns, end_ns).
WindowStats Summarize(const std::vector<OpSample>& ops, int64_t start_ns,
                      int64_t end_ns);

}  // namespace perfbench

#endif  // PERFBENCH_LEDGER_H_
