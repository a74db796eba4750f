#ifndef LSCHED_OBS_TRACE_H_
#define LSCHED_OBS_TRACE_H_

// Span-based tracer with per-thread ring buffers and a Chrome trace_event
// exporter.
//
// Each recording thread owns a fixed-capacity ring buffer (leased from a
// global pool so short-lived engine workers do not leak buffers); when a
// ring wraps, the oldest events are overwritten and counted as dropped.
// Event names/categories must be string literals (or otherwise outlive the
// tracer) — nothing is copied on the hot path.
//
// Two recording styles:
//  - ScopedSpan / LSCHED_TRACE_SPAN: RAII wall-clock span on the calling
//    thread (RealEngine workers, trainer loop).
//  - Tracer::RecordSpan with explicit timestamps: used by SimEngine to
//    record spans in *virtual* time against simulated thread ids.
//
// Export: Tracer::Global().WriteChromeTrace(path) (or the
// LSCHED_TRACE_EXPORT env var, see obs.h) emits JSON loadable in
// chrome://tracing / https://ui.perfetto.dev.

#include <cstdint>
#include <ostream>
#include <string>

#include "obs/obs.h"

namespace lsched {
namespace obs {

struct TraceEvent {
  const char* name = "";
  const char* category = "";
  double ts_us = 0.0;   ///< start timestamp, microseconds
  double dur_us = -1.0; ///< duration; < 0 encodes an instant event
  uint32_t tid = 0;
  /// Up to two small integer args, rendered into the Chrome "args" dict.
  const char* arg1_name = nullptr;
  int64_t arg1 = 0;
  const char* arg2_name = nullptr;
  int64_t arg2 = 0;
};

class Tracer {
 public:
  static Tracer& Global();

  /// Record a complete span / instant event with explicit timestamps.
  void RecordSpan(const TraceEvent& event);
  void RecordInstant(const char* name, const char* category, double ts_us,
                     uint32_t tid, const char* arg1_name = nullptr,
                     int64_t arg1 = 0, const char* arg2_name = nullptr,
                     int64_t arg2 = 0);

  /// Chrome trace_event JSON of everything currently buffered.
  void ExportChromeTrace(std::ostream& out) const;
  bool WriteChromeTrace(const std::string& path) const;

  /// Drop all buffered events (buffers stay leased to their threads).
  void Clear();

  /// Total events overwritten by ring wraparound since the last Clear().
  uint64_t dropped_events() const;
  uint64_t buffered_events() const;

  /// Ring capacity (events per thread), 4096 by default;
  /// SetCapacityForTest only affects rings leased after the call.
  size_t capacity() const;
  void SetCapacityForTest(size_t capacity);

  struct Impl;  ///< public so the thread-local ring lease can reference it

 private:
  Tracer();
  Impl* impl_;
};

/// RAII wall-clock span recorded on destruction into the calling thread's
/// ring buffer.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, const char* category,
             const char* arg1_name = nullptr, int64_t arg1 = 0,
             const char* arg2_name = nullptr, int64_t arg2 = 0)
      : active_(Enabled()) {
    if (!active_) return;
    event_.name = name;
    event_.category = category;
    event_.arg1_name = arg1_name;
    event_.arg1 = arg1;
    event_.arg2_name = arg2_name;
    event_.arg2 = arg2;
    event_.ts_us = NowMicros();
  }
  ~ScopedSpan() {
    if (!active_) return;
    event_.dur_us = NowMicros() - event_.ts_us;
    event_.tid = ThreadId();
    Tracer::Global().RecordSpan(event_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool active_;
  TraceEvent event_;
};

/// `LSCHED_TRACE_SPAN("exec.work_order", "exec", "query", qid);`
#define LSCHED_TRACE_SPAN(...) \
  ::lsched::obs::ScopedSpan lsched_obs_span_##__LINE__(__VA_ARGS__)

}  // namespace obs
}  // namespace lsched

#endif  // LSCHED_OBS_TRACE_H_
