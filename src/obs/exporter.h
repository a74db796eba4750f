#ifndef LSCHED_OBS_EXPORTER_H_
#define LSCHED_OBS_EXPORTER_H_

// Live metrics exposure: a minimal background HTTP server (plain POSIX
// sockets, one accept thread) serving the metrics registry in Prometheus
// text exposition format so a long-running engine process is scrape-able.
//
//   GET /metrics  -> text/plain; version=0.0.4 rendering of every
//                    registered counter, gauge, and histogram, prefixed
//                    with a `lsched_build_info{...} 1` provenance gauge
//   GET /tables   -> aligned-text per-subsystem counter tables
//                    (prof::CounterTables), human-oriented
//   GET /healthz  -> 200 "ok", or 503 "draining" while the serving daemon
//                    is in its graceful-drain window (SetDraining)
//   anything else -> 404
//
// Each accepted connection is handled on its own thread so overlapping
// scrapes never serialize behind a slow client, and Stop() joins all
// in-flight handlers before closing the listen socket — a scrape racing
// a shutdown always receives its complete response.
//
// Gated behind the LSCHED_METRICS_PORT environment variable: when set,
// obs.cc starts the process-global exporter on 127.0.0.1:<port> before
// main() and stops it at exit. Tests use Start(0) for an ephemeral port.
//
// Metric names are sanitized for Prometheus (dots and other invalid
// characters become underscores: `model.drift_score` is exposed as
// `model_drift_score`, with the original name in the HELP line).

#include <atomic>
#include <list>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>

#include "obs/metrics.h"
#include "obs/obs.h"

namespace lsched {
namespace obs {

/// `name` with every character outside [a-zA-Z0-9_:] replaced by '_'
/// (Prometheus metric-name charset).
std::string PrometheusName(const std::string& name);

/// Process-wide health state surfaced by /healthz: while draining, the
/// endpoint answers 503 "draining" so load balancers stop routing new work
/// here during a graceful shutdown (DESIGN.md §11). The serving daemon
/// flips this around its drain sequence.
void SetDraining(bool draining);
bool Draining();

/// The three-line `lsched_build_info` block (HELP/TYPE/sample) stamped at
/// the top of every /metrics response: a constant-1 gauge whose labels
/// carry the git sha, compiler and build type from util/build_info.h. The standard Prometheus idiom for joining
/// provenance onto every other series.
std::string BuildInfoPrometheusText();

/// Renders a registry snapshot in Prometheus text exposition format
/// (version 0.0.4), build-info block first. Deterministic given the
/// snapshot — the golden-test surface.
void RenderPrometheusText(const MetricsRegistry::Snapshot& snapshot,
                          std::ostream& out);

class MetricsExporter {
 public:
  MetricsExporter() = default;
  ~MetricsExporter();

  MetricsExporter(const MetricsExporter&) = delete;
  MetricsExporter& operator=(const MetricsExporter&) = delete;

  /// Binds 127.0.0.1:`port` (0 = kernel-assigned ephemeral port) and
  /// starts the serving thread. Returns false if the bind fails or the
  /// exporter is already running.
  bool Start(int port);
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  /// The bound port (valid after a successful Start).
  int port() const { return port_; }

 private:
  // One handler thread per accepted connection, tracked so Stop() can
  // join every in-flight scrape before tearing the listener down. The
  // accept loop reaps finished entries so a long-lived daemon stays
  // bounded regardless of scrape count.
  struct Connection {
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void Serve();
  void HandleConnection(int fd);
  /// Joins and erases connections whose handler has finished. Caller
  /// must hold conn_mu_.
  void ReapFinishedLocked();

  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};
  int listen_fd_ = -1;
  int port_ = -1;
  std::thread thread_;
  std::mutex conn_mu_;
  std::list<std::unique_ptr<Connection>> connections_;
};

/// The process-global exporter used by the LSCHED_METRICS_PORT env gate.
MetricsExporter& GlobalExporter();
/// Starts GlobalExporter() if LSCHED_METRICS_PORT is set; returns whether
/// it is running afterwards. Called from obs.cc's TU initializer.
bool StartExporterFromEnv();

}  // namespace obs
}  // namespace lsched

#endif  // LSCHED_OBS_EXPORTER_H_
