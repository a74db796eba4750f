#ifndef LSCHED_EXEC_WORKLIST_H_
#define LSCHED_EXEC_WORKLIST_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace lsched {

/// Shared work queue between a producer (the coordinator) and a pool of
/// consumer workers (DESIGN.md §12): a lock-free bounded MPMC ring in the
/// spirit of Cavalia's shared-worklist scheduler.
///
/// Contract:
///  - Push never blocks the producer on consumers (it may briefly yield if
///    the ring is saturated far beyond the engine's bounded in-flight
///    window).
///  - TryPopClaim claims exactly one item or returns false immediately.
///  - PopClaimWait is TryPopClaim plus bounded parking: it returns false
///    after `timeout` without an item, so consumers can re-examine engine
///    state (drain flags, state-accounting hints) even when no work comes.
///  - Drain empties the queue from the caller's thread (producer-side
///    teardown/test inspection); items claimed by it are never seen by
///    consumers.
///  - Every pushed item is claimed by exactly one caller of
///    TryPopClaim/PopClaimWait/Drain — the conservation property the
///    engine's work-order counters are built on.
///
/// Producers and consumers claim slots with one atomic RMW on the hot path
/// and never take a lock. Each cell carries a sequence number
/// (Vyukov's scheme) — the generalization of the fetch-add claim that also
/// supports streaming (wrap-around) and non-blocking TryPopClaim:
///
///   cell.seq == pos       → cell is free for the producer claiming pos
///   cell.seq == pos + 1   → cell holds the item for the consumer at pos
///   otherwise             → another thread is mid-claim; reload and retry
///
/// Memory ordering: the producer's release store of seq = pos+1 publishes
/// the item; the consumer's acquire load of seq synchronizes with it, so
/// the item read happens-after the item write (same pairing consumer→
/// producer on wrap via seq = pos+capacity). The pos counters themselves
/// only need the RMW's own atomicity (relaxed), because cell.seq carries
/// all cross-thread publication.
///
/// Empty-path parking: consumers spin briefly, then register as sleepers
/// and block on a cv with a timeout. Push wakes a sleeper only when the
/// sleeper count says one exists, so the steady-state busy pool never
/// touches the mutex. Seq-cst fences pair the producer's "push then read
/// sleepers" with the consumer's "register then re-check queue" so a
/// wakeup can never be lost between the check and the sleep.
template <typename T>
class Worklist {
 public:
  /// Capacity is rounded up to a power of two, at least `min_capacity`.
  /// The engine's producer pushes at most one item per reserved worker
  /// slot, so any capacity >= 2 * num_threads can never see a full ring;
  /// Push still handles saturation (yield + retry) for standalone users.
  explicit Worklist(size_t min_capacity = 256) {
    size_t cap = 64;
    while (cap < min_capacity) cap <<= 1;
    cells_ = std::make_unique<Cell[]>(cap);
    capacity_ = cap;
    mask_ = cap - 1;
    for (size_t i = 0; i < cap; ++i) {
      cells_[i].seq.store(i, std::memory_order_relaxed);
    }
  }

  void Push(T item) {
    while (!TryPush(&item)) std::this_thread::yield();
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (sleepers_.load(std::memory_order_relaxed) > 0) {
      // The mutex acquisition orders this notify after the sleeper's
      // registration: either it sees the item on its pre-sleep re-check
      // or this notify lands after it blocked.
      std::lock_guard<std::mutex> lock(wait_mu_);
      wait_cv_.notify_one();
    }
  }

  bool TryPopClaim(T* out) {
    size_t pos = dequeue_pos_.load(std::memory_order_relaxed);
    for (;;) {
      Cell& cell = cells_[pos & mask_];
      const size_t seq = cell.seq.load(std::memory_order_acquire);
      const intptr_t dif =
          static_cast<intptr_t>(seq) - static_cast<intptr_t>(pos + 1);
      if (dif == 0) {
        if (dequeue_pos_.compare_exchange_weak(pos, pos + 1,
                                               std::memory_order_relaxed)) {
          *out = std::move(cell.item);
          cell.item = T{};  // drop claimed payload eagerly
          cell.seq.store(pos + capacity_, std::memory_order_release);
          return true;
        }
      } else if (dif < 0) {
        return false;  // empty (or the producer for this cell is mid-claim)
      } else {
        pos = dequeue_pos_.load(std::memory_order_relaxed);
      }
    }
  }

  bool PopClaimWait(T* out, std::chrono::milliseconds timeout) {
    for (int spin = SpinIterations(); spin > 0; --spin) {
      if (TryPopClaim(out)) return true;
      std::this_thread::yield();
    }
    if (TryPopClaim(out)) return true;
    std::unique_lock<std::mutex> lock(wait_mu_);
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    const bool got =
        wait_cv_.wait_for(lock, timeout, [&] { return TryPopClaim(out); });
    sleepers_.fetch_sub(1, std::memory_order_seq_cst);
    return got;
  }

  std::vector<T> Drain() {
    std::vector<T> out;
    T item;
    while (TryPopClaim(&item)) out.push_back(std::move(item));
    return out;
  }

  size_t Size() const {
    const size_t e = enqueue_pos_.load(std::memory_order_relaxed);
    const size_t d = dequeue_pos_.load(std::memory_order_relaxed);
    return e > d ? e - d : 0;
  }

  size_t capacity() const { return capacity_; }

 private:
  /// Pre-park spin budget. Spinning only pays when a producer can make
  /// progress on another core while we burn cycles here; on a single-CPU
  /// machine every spin steals the quantum the producer needs, so the
  /// consumer parks immediately instead.
  static int SpinIterations() {
    static const int n =
        std::thread::hardware_concurrency() > 1 ? kSpinIterations : 0;
    return n;
  }

  static constexpr int kSpinIterations = 64;

  struct Cell {
    std::atomic<size_t> seq;
    T item;
  };

  bool TryPush(T* item) {
    size_t pos = enqueue_pos_.load(std::memory_order_relaxed);
    for (;;) {
      Cell& cell = cells_[pos & mask_];
      const size_t seq = cell.seq.load(std::memory_order_acquire);
      const intptr_t dif =
          static_cast<intptr_t>(seq) - static_cast<intptr_t>(pos);
      if (dif == 0) {
        if (enqueue_pos_.compare_exchange_weak(pos, pos + 1,
                                               std::memory_order_relaxed)) {
          cell.item = std::move(*item);
          cell.seq.store(pos + 1, std::memory_order_release);
          return true;
        }
      } else if (dif < 0) {
        return false;  // full
      } else {
        pos = enqueue_pos_.load(std::memory_order_relaxed);
      }
    }
  }

  std::unique_ptr<Cell[]> cells_;
  size_t capacity_ = 0;
  size_t mask_ = 0;
  // Separate cache lines: producers touch enqueue_pos_, consumers
  // dequeue_pos_; sharing a line would bounce it on every claim.
  alignas(64) std::atomic<size_t> enqueue_pos_{0};
  alignas(64) std::atomic<size_t> dequeue_pos_{0};

  alignas(64) std::atomic<int> sleepers_{0};
  std::mutex wait_mu_;
  std::condition_variable wait_cv_;
};

}  // namespace lsched

#endif  // LSCHED_EXEC_WORKLIST_H_
