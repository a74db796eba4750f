#ifndef LSCHED_OBS_OBS_H_
#define LSCHED_OBS_OBS_H_

// Umbrella for the observability layer (DESIGN.md §8): runtime on/off
// switch, thread identity for trace attribution, and the env-driven
// exporters.
//
// Recording defaults to on and can be suppressed with the
// LSCHED_OBS environment variable (0/off/false) or SetEnabled(false).
// Exporters: if LSCHED_TRACE_EXPORT=<path> is set, a Chrome trace_event
// JSON is written at process exit (open it in chrome://tracing); if
// LSCHED_DECISION_LOG=<path> is set, the scheduler decision log is dumped
// as CSV at process exit.

#include <atomic>
#include <cstdint>

namespace lsched {
namespace obs {

namespace internal {
/// Runtime switch backing Enabled(). Constant-initialized (no static-init
/// order hazard); obs.cc's TU initializer applies the LSCHED_OBS env var
/// before main().
extern std::atomic<bool> g_enabled;
}  // namespace internal

/// Whether recording is active right now (the runtime switch).
/// Inline single relaxed load: cheap enough for every metric write.
inline bool Enabled() {
  return internal::g_enabled.load(std::memory_order_relaxed);
}
void SetEnabled(bool enabled);

/// Small dense id for the calling thread, used as the Chrome-trace `tid`.
/// Auto-assigned on first use; engines may pin a meaningful id (e.g. the
/// worker index) with SetThreadId before recording.
uint32_t ThreadId();
void SetThreadId(uint32_t tid);

/// Microseconds since process start (steady clock) — the wall-clock
/// timebase for trace events recorded by RAII spans.
double NowMicros();

}  // namespace obs
}  // namespace lsched

#endif  // LSCHED_OBS_OBS_H_
