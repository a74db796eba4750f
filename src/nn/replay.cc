#include "nn/replay.h"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace lsched {

int AffinityCpuCount() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

void ReplayUnits(int units, int workers,
                 const std::function<void(int unit, Tape* tape)>& replay) {
  if (units <= 0) return;
  if (workers <= 0) workers = AffinityCpuCount();
  workers = std::min(workers, units);

  // A swept tape keeps only its leaf grads until the calling thread has
  // added them.
  std::vector<std::unique_ptr<Tape>> swept(static_cast<size_t>(units));
  std::unique_ptr<std::atomic<bool>[]> done(new std::atomic<bool>[units]);
  for (int i = 0; i < units; ++i) {
    done[i].store(false, std::memory_order_relaxed);
  }
  std::atomic<int> next{0};
  int added = 0;
  const auto add_ready = [&] {
    while (added < units && done[added].load(std::memory_order_acquire)) {
      swept[static_cast<size_t>(added)]->AddGradsToParams();
      swept[static_cast<size_t>(added)].reset();
      ++added;
    }
  };
  std::mutex failure_mu;
  std::exception_ptr failure;  // the first exception any thread threw
  const auto work = [&](bool caller) {
    try {
      for (int i = next.fetch_add(1, std::memory_order_relaxed); i < units;
           i = next.fetch_add(1, std::memory_order_relaxed)) {
        auto tape = std::make_unique<Tape>();
        replay(i, tape.get());
        swept[static_cast<size_t>(i)] = std::move(tape);
        done[i].store(true, std::memory_order_release);
        if (caller) add_ready();
      }
    } catch (...) {
      next.store(units, std::memory_order_relaxed);  // nobody claims more
      std::lock_guard<std::mutex> lock(failure_mu);
      if (!failure) failure = std::current_exception();
    }
  };

  {
    // Declared last, so the threads are joined before what they use goes.
    std::vector<std::jthread> threads;
    threads.reserve(static_cast<size_t>(workers - 1));
    for (int w = 1; w < workers; ++w) threads.emplace_back(work, false);
    work(true);
  }
  if (failure) std::rethrow_exception(failure);
  add_ready();
}

}  // namespace lsched
