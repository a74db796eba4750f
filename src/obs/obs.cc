#include "obs/obs.h"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>

#include "obs/decision_log.h"
#include "obs/drift.h"
#include "obs/exporter.h"
#include "obs/query_trace.h"
#include "obs/scalar_events.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace lsched {
namespace obs {

namespace {

bool EnvDisables(const char* value) {
  if (value == nullptr) return false;
  return std::strcmp(value, "0") == 0 || std::strcmp(value, "off") == 0 ||
         std::strcmp(value, "OFF") == 0 || std::strcmp(value, "false") == 0 ||
         std::strcmp(value, "FALSE") == 0;
}

void ExitDump() {
  if (const char* path = std::getenv("LSCHED_TRACE_EXPORT")) {
    if (Tracer::Global().WriteChromeTrace(path)) {
      LSCHED_LOG(Info) << "wrote Chrome trace to " << path << " ("
                       << Tracer::Global().buffered_events() << " events)";
    } else {
      LSCHED_LOG(Error) << "failed to write Chrome trace to " << path;
    }
  }
  if (const char* path = std::getenv("LSCHED_DECISION_LOG")) {
    if (DecisionLog::Global().WriteCsv(std::string(path))) {
      LSCHED_LOG(Info) << "wrote decision log to " << path << " ("
                       << DecisionLog::Global().size() << " rows)";
    } else {
      LSCHED_LOG(Error) << "failed to write decision log to " << path;
    }
  }
  if (const char* path = std::getenv("LSCHED_SCALAR_EVENTS")) {
    if (ScalarEventWriter::Global().WriteJsonl(std::string(path))) {
      LSCHED_LOG(Info) << "wrote scalar event log to " << path << " ("
                       << ScalarEventWriter::Global().size() << " events)";
    } else {
      LSCHED_LOG(Error) << "failed to write scalar event log to " << path;
    }
  }
  if (const char* path = std::getenv("LSCHED_QUERY_TRACE")) {
    if (QueryTraceLog::Global().WriteCsv(std::string(path))) {
      LSCHED_LOG(Info) << "wrote query trace log to " << path << " ("
                       << QueryTraceLog::Global().size() << " queries)";
    } else {
      LSCHED_LOG(Error) << "failed to write query trace log to " << path;
    }
  }
}

void StopExporterAtExit() { GlobalExporter().Stop(); }

struct Runtime {
  std::chrono::steady_clock::time_point epoch;

  Runtime() : epoch(std::chrono::steady_clock::now()) {
    if (EnvDisables(std::getenv("LSCHED_OBS"))) {
      internal::g_enabled.store(false, std::memory_order_relaxed);
    }
    if (std::getenv("LSCHED_TRACE_EXPORT") != nullptr ||
        std::getenv("LSCHED_DECISION_LOG") != nullptr ||
        std::getenv("LSCHED_SCALAR_EVENTS") != nullptr ||
        std::getenv("LSCHED_QUERY_TRACE") != nullptr) {
      std::atexit(ExitDump);
    }
    if (StartExporterFromEnv()) {
      std::atexit(StopExporterAtExit);
    }
    StartDriftMonitorFromEnv();
  }
};

Runtime& GlobalRuntime() {
  static Runtime rt;
  return rt;
}

/// Forces env parsing / atexit registration during this TU's dynamic
/// initialization, before any engine code can call Enabled().
[[maybe_unused]] const bool g_runtime_initialized = (GlobalRuntime(), true);

std::atomic<uint32_t> g_next_thread_id{0};

thread_local uint32_t tls_thread_id = UINT32_MAX;

}  // namespace

namespace internal {
std::atomic<bool> g_enabled{true};
}  // namespace internal

void SetEnabled(bool enabled) {
  GlobalRuntime();  // make sure the exporters are registered
  internal::g_enabled.store(enabled, std::memory_order_relaxed);
}

uint32_t ThreadId() {
  if (tls_thread_id == UINT32_MAX) {
    tls_thread_id = g_next_thread_id.fetch_add(1, std::memory_order_relaxed);
  }
  return tls_thread_id;
}

void SetThreadId(uint32_t tid) { tls_thread_id = tid; }

double NowMicros() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - GlobalRuntime().epoch)
      .count();
}

}  // namespace obs
}  // namespace lsched
