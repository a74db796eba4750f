#include "obs/trace.h"

#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/ring.h"

namespace lsched {
namespace obs {

namespace {

/// Fixed-capacity ring of trace events. Owned by the global pool, leased
/// to one thread at a time; the (rarely contended) mutex only collides
/// with an in-progress export or clear.
struct ThreadRing {
  explicit ThreadRing(size_t capacity) : events(capacity) {}

  std::mutex mu;
  Ring<TraceEvent> events;

  void Record(const TraceEvent& e) {
    std::lock_guard<std::mutex> lock(mu);
    events.Push(e);
  }
};

/// Events per thread ring.
constexpr size_t kDefaultCapacity = 4096;

void JsonEscape(std::ostream& out, const char* s) {
  for (; *s; ++s) {
    const char c = *s;
    switch (c) {
      case '"':
        out << "\\\"";
        break;
      case '\\':
        out << "\\\\";
        break;
      case '\n':
        out << "\\n";
        break;
      case '\t':
        out << "\\t";
        break;
      case '\r':
        out << "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out << buf;
        } else {
          out << c;
        }
    }
  }
}

void EmitEvent(std::ostream& out, const TraceEvent& e, bool first) {
  if (!first) out << ",\n";
  out << "{\"name\":\"";
  JsonEscape(out, e.name);
  out << "\",\"cat\":\"";
  JsonEscape(out, e.category);
  out << "\",\"ph\":\"" << (e.dur_us < 0.0 ? "i" : "X") << "\"";
  if (e.dur_us < 0.0) out << ",\"s\":\"t\"";
  out << ",\"ts\":" << e.ts_us;
  if (e.dur_us >= 0.0) out << ",\"dur\":" << e.dur_us;
  out << ",\"pid\":1,\"tid\":" << e.tid;
  if (e.arg1_name != nullptr || e.arg2_name != nullptr) {
    out << ",\"args\":{";
    bool first_arg = true;
    if (e.arg1_name != nullptr) {
      out << "\"";
      JsonEscape(out, e.arg1_name);
      out << "\":" << e.arg1;
      first_arg = false;
    }
    if (e.arg2_name != nullptr) {
      if (!first_arg) out << ",";
      out << "\"";
      JsonEscape(out, e.arg2_name);
      out << "\":" << e.arg2;
    }
    out << "}";
  }
  out << "}";
}

}  // namespace

struct Tracer::Impl {
  std::mutex pool_mu;
  std::vector<std::unique_ptr<ThreadRing>> rings;  ///< every ring created
  std::vector<ThreadRing*> free_rings;  ///< released by exited threads
  std::atomic<size_t> capacity{kDefaultCapacity};

  ThreadRing* Lease() {
    const size_t cap = capacity.load(std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(pool_mu);
    // Reuse a released ring only if its capacity still matches (capacity
    // changes mid-process only in tests).
    for (size_t i = 0; i < free_rings.size(); ++i) {
      if (free_rings[i]->events.capacity() == cap) {
        ThreadRing* r = free_rings[i];
        free_rings.erase(free_rings.begin() + static_cast<long>(i));
        return r;
      }
    }
    rings.push_back(std::make_unique<ThreadRing>(cap));
    return rings.back().get();
  }

  void Release(ThreadRing* ring) {
    std::lock_guard<std::mutex> lock(pool_mu);
    free_rings.push_back(ring);
  }
};

namespace {

/// Thread-local lease: acquires a ring on first use, returns it to the
/// pool when the thread exits so engines that spin up fresh worker pools
/// per run reuse buffers instead of growing without bound.
struct RingLease {
  Tracer::Impl* pool = nullptr;
  ThreadRing* ring = nullptr;
  ~RingLease() {
    if (pool != nullptr && ring != nullptr) pool->Release(ring);
  }
};

thread_local RingLease tls_ring;

}  // namespace

Tracer::Tracer() : impl_(new Impl()) {}

Tracer& Tracer::Global() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

void Tracer::RecordSpan(const TraceEvent& event) {
  if (!Enabled()) return;
  if (tls_ring.ring == nullptr) {
    tls_ring.pool = impl_;
    tls_ring.ring = impl_->Lease();
  }
  tls_ring.ring->Record(event);
}

void Tracer::RecordInstant(const char* name, const char* category,
                           double ts_us, uint32_t tid, const char* arg1_name,
                           int64_t arg1, const char* arg2_name, int64_t arg2) {
  TraceEvent e;
  e.name = name;
  e.category = category;
  e.ts_us = ts_us;
  e.dur_us = -1.0;
  e.tid = tid;
  e.arg1_name = arg1_name;
  e.arg1 = arg1;
  e.arg2_name = arg2_name;
  e.arg2 = arg2;
  RecordSpan(e);
}

void Tracer::ExportChromeTrace(std::ostream& out) const {
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  std::lock_guard<std::mutex> pool_lock(impl_->pool_mu);
  for (const auto& ring : impl_->rings) {
    std::lock_guard<std::mutex> lock(ring->mu);
    ring->events.ForEach([&](const TraceEvent& e) {
      EmitEvent(out, e, first);
      first = false;
    });
  }
  out << "\n]}\n";
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path);
  if (!out.is_open()) return false;
  ExportChromeTrace(out);
  return out.good();
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> pool_lock(impl_->pool_mu);
  for (const auto& ring : impl_->rings) {
    std::lock_guard<std::mutex> lock(ring->mu);
    ring->events.Clear();
  }
}

uint64_t Tracer::dropped_events() const {
  uint64_t dropped = 0;
  std::lock_guard<std::mutex> pool_lock(impl_->pool_mu);
  for (const auto& ring : impl_->rings) {
    std::lock_guard<std::mutex> lock(ring->mu);
    dropped += ring->events.pushed() - ring->events.size();
  }
  return dropped;
}

uint64_t Tracer::buffered_events() const {
  uint64_t buffered = 0;
  std::lock_guard<std::mutex> pool_lock(impl_->pool_mu);
  for (const auto& ring : impl_->rings) {
    std::lock_guard<std::mutex> lock(ring->mu);
    buffered += ring->events.size();
  }
  return buffered;
}

size_t Tracer::capacity() const {
  return impl_->capacity.load(std::memory_order_relaxed);
}

void Tracer::SetCapacityForTest(size_t capacity) {
  impl_->capacity.store(capacity, std::memory_order_relaxed);
}

}  // namespace obs
}  // namespace lsched
