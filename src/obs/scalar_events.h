#ifndef LSCHED_OBS_SCALAR_EVENTS_H_
#define LSCHED_OBS_SCALAR_EVENTS_H_

// Training telemetry stream: an append-only log of (step, wall time, tag,
// value) scalar events — the model-quality counterpart of the metrics
// registry. Where the registry holds *current* aggregates, the scalar
// event log keeps the full per-step series (episode reward, policy
// entropy, gradient norms, ...) so learning curves can be rendered offline
// (`lsched_cli report`, bench/fig14_training) without each producer
// maintaining ad-hoc vectors.
//
// Producers call ScalarEventWriter::Global().Append(tag, step, value);
// the JSONL dump (one object per line) is written on demand or at process
// exit when LSCHED_SCALAR_EVENTS=<path> is set (see obs.cc).
//
// Tags follow the registry naming convention (dotted lowercase, subsystem
// prefix): `train.reward`, `train.policy_entropy`, `online.update`, ...
// Tags must not contain '"' or '\' — they are written unescaped.

#include <cstdint>
#include <istream>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "obs/obs.h"

namespace lsched {
namespace obs {

struct ScalarEvent {
  int64_t step = 0;     ///< producer-defined step (episode / update index)
  double wall_ms = 0.0; ///< milliseconds since process start (NowMicros/1e3)
  std::string tag;      ///< dotted lowercase series name
  double value = 0.0;   ///< non-finite values round-trip as JSON null
};

/// Process-global append-only scalar event log. Thread-safe; Append is a
/// mutex push (these are per-episode/per-update events, not per-work-order
/// hot-path writes).
class ScalarEventWriter {
 public:
  static ScalarEventWriter& Global();

  void Append(const std::string& tag, int64_t step, double value);

  size_t size() const;
  std::vector<ScalarEvent> Snapshot() const;
  /// Events with tag == `tag`, in append order.
  std::vector<ScalarEvent> Series(const std::string& tag) const;
  /// Values of Series(tag), in append order.
  std::vector<double> SeriesValues(const std::string& tag) const;
  void Clear();

  void WriteJsonl(std::ostream& out) const;
  bool WriteJsonl(const std::string& path) const;

 private:
  ScalarEventWriter() = default;
  mutable std::mutex mu_;
  std::vector<ScalarEvent> events_;
};

/// Parses a JSONL stream produced by WriteJsonl back into events. Returns
/// false on malformed input. Blank lines are skipped.
bool ParseScalarEventsJsonl(std::istream& in, std::vector<ScalarEvent>* out);

}  // namespace obs
}  // namespace lsched

#endif  // LSCHED_OBS_SCALAR_EVENTS_H_
