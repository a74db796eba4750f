#ifndef LSCHED_NN_REPLAY_H_
#define LSCHED_NN_REPLAY_H_

#include <functional>

#include "nn/autograd.h"

namespace lsched {

/// CPUs in the calling thread's affinity mask (at least 1).
int AffinityCpuCount();

/// Differentiates a loss made of `units` independent parts and adds its
/// gradient into the parameters' grads. Unit i runs `replay(i, &tape)` on a
/// fresh Tape of its own: it builds the unit's loss and calls Tape::Sweep
/// (not Backward), or leaves the tape empty. Units run on
/// min(units, workers) threads, the calling thread included; `workers` <= 0
/// means AffinityCpuCount(). Threads claim units through an atomic counter.
///
/// The calling thread adds each unit's grads into the parameters
/// (Tape::AddGradsToParams) in unit order, as soon as every earlier unit's
/// have been added, so the parameter grads are bit-identical for any worker
/// count. `replay` may read the parameter values but must write nothing
/// shared except its own unit's outputs. If a replay throws, no further
/// unit starts, every thread is joined and the first exception is
/// rethrown, with the grads of only some units added.
void ReplayUnits(int units, int workers,
                 const std::function<void(int unit, Tape* tape)>& replay);

}  // namespace lsched

#endif  // LSCHED_NN_REPLAY_H_
