#ifndef LSCHED_OBS_RING_H_
#define LSCHED_OBS_RING_H_

// The bounded ring behind every obs log (decision log, query-trace log,
// tracer thread rings, sampling profiler): the newest `capacity` values of
// a stream, each keyed by its push sequence number. Sequence numbers keep
// counting across Clear(), so they can serve as stable ids. Every drop or
// eviction count is pushed() - size(). Not thread-safe: each owner guards
// its ring with its own mutex.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace lsched {
namespace obs {

template <typename T>
class Ring {
 public:
  explicit Ring(size_t capacity = 1)
      : capacity_(std::max<size_t>(1, capacity)) {}

  size_t capacity() const { return capacity_; }
  /// Values pushed since construction or the last Clear().
  uint64_t pushed() const { return end_ - cleared_at_; }
  /// Values retained: the newest min(pushed(), capacity()).
  size_t size() const {
    return static_cast<size_t>(std::min<uint64_t>(pushed(), capacity_));
  }
  /// The retained values hold sequence numbers [begin_seq(), end_seq()).
  uint64_t begin_seq() const { return end_ - size(); }
  uint64_t end_seq() const { return end_; }

  /// Appends `value` (moved when an rvalue), evicting the oldest value
  /// once full, and returns its sequence number.
  template <typename U>
  uint64_t Push(U&& value) {
    if (head_ < slots_.size()) {
      slots_[head_] = std::forward<U>(value);
    } else {
      slots_.resize(head_);  // after a Clear(), refill up to the write slot
      slots_.push_back(std::forward<U>(value));
    }
    if (++head_ == capacity_) head_ = 0;
    return end_++;
  }

  /// The retained value with sequence number `seq`, or nullptr.
  T* Find(uint64_t seq) {
    if (seq < begin_seq() || seq >= end_) return nullptr;
    return &slots_[seq % capacity_];
  }

  /// Calls `f` on every retained value, oldest first.
  template <typename F>
  void ForEach(F&& f) const {
    for (uint64_t seq = begin_seq(); seq < end_; ++seq) {
      f(slots_[seq % capacity_]);
    }
  }

  /// The newest retained value satisfying `pred`, or nullptr.
  template <typename P>
  const T* FindNewest(P&& pred) const {
    for (uint64_t seq = end_; seq > begin_seq(); --seq) {
      const T& v = slots_[(seq - 1) % capacity_];
      if (pred(v)) return &v;
    }
    return nullptr;
  }

  /// Copies of the retained values, oldest first.
  std::vector<T> Snapshot() const {
    std::vector<T> out;
    out.reserve(size());
    ForEach([&out](const T& v) { out.push_back(v); });
    return out;
  }

  /// Drops every retained value; sequence numbers keep counting.
  void Clear() {
    slots_.clear();
    cleared_at_ = end_;
  }

 private:
  size_t capacity_;
  std::vector<T> slots_;  ///< value of sequence s at slots_[s % capacity_]
  size_t head_ = 0;       ///< end_ % capacity_, kept to avoid the division
  uint64_t end_ = 0;      ///< sequence number of the next push
  uint64_t cleared_at_ = 0;
};

}  // namespace obs
}  // namespace lsched

#endif  // LSCHED_OBS_RING_H_
