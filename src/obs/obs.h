#ifndef LSCHED_OBS_OBS_H_
#define LSCHED_OBS_OBS_H_

// Umbrella for the observability layer (DESIGN.md §8): compile-time gate,
// runtime on/off switch, thread identity for trace attribution, and the
// env-driven exporters.
//
// Compile-time: the CMake option LSCHED_OBS (default ON) defines
// LSCHED_OBS_ENABLED on every target. With -DLSCHED_OBS=OFF all metric,
// trace, and decision-log calls compile to empty inline stubs.
//
// Runtime: recording defaults to on and can be suppressed with the
// LSCHED_OBS environment variable (0/off/false) or SetEnabled(false).
// Exporters: if LSCHED_TRACE_EXPORT=<path> is set, a Chrome trace_event
// JSON is written at process exit (open it in chrome://tracing); if
// LSCHED_DECISION_LOG=<path> is set, the scheduler decision log is dumped
// as CSV at process exit.

#include <atomic>
#include <cstdint>

#ifndef LSCHED_OBS_ENABLED
#define LSCHED_OBS_ENABLED 1
#endif

namespace lsched {
namespace obs {

/// True iff the layer is compiled in (LSCHED_OBS=ON at configure time).
inline constexpr bool kCompiledIn = LSCHED_OBS_ENABLED != 0;

#if LSCHED_OBS_ENABLED

namespace internal {
/// Runtime switch backing Enabled(). Constant-initialized (no static-init
/// order hazard); obs.cc's TU initializer applies the LSCHED_OBS env var
/// before main().
extern std::atomic<bool> g_enabled;
}  // namespace internal

/// Whether recording is active right now (compile gate && runtime switch).
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

#else  // !LSCHED_OBS_ENABLED

inline bool Enabled() { return false; }
inline void SetEnabled(bool) {}
inline uint32_t ThreadId() { return 0; }
inline void SetThreadId(uint32_t) {}
inline double NowMicros() { return 0.0; }

#endif  // LSCHED_OBS_ENABLED

}  // namespace obs
}  // namespace lsched

#endif  // LSCHED_OBS_OBS_H_
