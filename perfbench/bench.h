#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Command-line settings of one benchmark run.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory the traced run writes its span CSV into.
  std::string out_dir = ".";
  /// Self-test hook (serving workloads): corrupt the checksum of the first
  /// measured query before the correctness check, which must then report
  /// it as failed.
  bool corrupt_checksum = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload reports: the operation ledger of the correctness check,
/// the end-to-end metrics (printed by untraced runs) and the per-layer
/// metrics (printed by traced runs).
struct Outcome {
  int64_t attempted = 0;
  int64_t failed = 0;
  /// Whole-run checks beyond the per-operation ones (episode invariants,
  /// ledger reconciliation). Any entry makes the run incorrect.
  std::vector<std::string> errors;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;

  bool correct() const { return failed == 0 && errors.empty(); }
};

Outcome RunLSchedClosed(const Options& options);
Outcome RunFifoOpen(const Options& options);
Outcome RunTrainSim(const Options& options);

/// Peak resident set size of this process in MiB (VmHWM).
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
