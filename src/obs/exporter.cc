#include "obs/exporter.h"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "obs/profiler.h"
#include "util/build_info.h"
#include "util/logging.h"

namespace lsched {
namespace obs {

namespace {

std::atomic<bool> g_draining{false};

void AppendDouble(std::string* out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  *out += buf;
}

// Prometheus label-value escaping: backslash, double quote, newline.
std::string EscapeLabelValue(const char* v) {
  std::string out;
  for (const char* p = v; *p != '\0'; ++p) {
    switch (*p) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += *p;
    }
  }
  return out;
}

}  // namespace

std::string BuildInfoPrometheusText() {
  std::string buf;
  buf += "# HELP lsched_build_info build provenance (constant 1)\n";
  buf += "# TYPE lsched_build_info gauge\n";
  buf += "lsched_build_info{git_sha=\"" +
         EscapeLabelValue(buildinfo::kGitSha) + "\",compiler=\"" +
         EscapeLabelValue(buildinfo::kCompiler) + "\",build_type=\"" +
         EscapeLabelValue(buildinfo::kBuildType) + "\"} 1\n";
  return buf;
}

std::string PrometheusName(const std::string& name) {
  std::string out;
  out.reserve(name.size() + 1);
  // A Prometheus name must not start with a digit (or be empty).
  if (name.empty() || (name[0] >= '0' && name[0] <= '9')) out += '_';
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out;
}

void SetDraining(bool draining) {
  g_draining.store(draining, std::memory_order_release);
}

bool Draining() { return g_draining.load(std::memory_order_acquire); }

void RenderPrometheusText(const MetricsRegistry::Snapshot& snapshot,
                          std::ostream& out) {
  std::string buf;
  buf.reserve(4096);
  buf += BuildInfoPrometheusText();
  for (const auto& [name, value] : snapshot.counters) {
    const std::string prom = PrometheusName(name);
    buf += "# HELP " + prom + " " + name + "\n";
    buf += "# TYPE " + prom + " counter\n";
    buf += prom + " " + std::to_string(value) + "\n";
  }
  for (const auto& [name, value] : snapshot.gauges) {
    const std::string prom = PrometheusName(name);
    buf += "# HELP " + prom + " " + name + "\n";
    buf += "# TYPE " + prom + " gauge\n";
    buf += prom + " ";
    AppendDouble(&buf, value);
    buf += "\n";
  }
  for (const auto& [name, hist] : snapshot.histograms) {
    const std::string prom = PrometheusName(name);
    buf += "# HELP " + prom + " " + name + "\n";
    buf += "# TYPE " + prom + " histogram\n";
    // Cumulative buckets; only boundaries where the count changes are
    // emitted (Prometheus allows sparse `le` sets) plus the +Inf catch-all.
    uint64_t cumulative = 0;
    for (size_t b = 0; b < hist.bucket_counts.size(); ++b) {
      if (hist.bucket_counts[b] == 0) continue;
      cumulative += hist.bucket_counts[b];
      buf += prom + "_bucket{le=\"";
      AppendDouble(&buf, HistogramSnapshot::UpperBound(b));
      buf += "\"} " + std::to_string(cumulative) + "\n";
    }
    buf += prom + "_bucket{le=\"+Inf\"} " + std::to_string(hist.count) + "\n";
    buf += prom + "_sum ";
    AppendDouble(&buf, hist.sum);
    buf += "\n";
    buf += prom + "_count " + std::to_string(hist.count) + "\n";
  }
  out << buf;
}

namespace {

/// Sends `data` fully, tolerating short writes. Best-effort: scrape
/// clients that hang up early are not an error worth surfacing.
void SendAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off,
                             MSG_NOSIGNAL);
    if (n <= 0) return;
    off += static_cast<size_t>(n);
  }
}

std::string HttpResponse(int code, const char* status,
                         const char* content_type, const std::string& body) {
  std::string out = "HTTP/1.0 ";
  out += std::to_string(code);
  out += " ";
  out += status;
  out += "\r\nContent-Type: ";
  out += content_type;
  out += "\r\nContent-Length: ";
  out += std::to_string(body.size());
  out += "\r\nConnection: close\r\n\r\n";
  out += body;
  return out;
}

}  // namespace

MetricsExporter::~MetricsExporter() { Stop(); }

bool MetricsExporter::Start(int port) {
  if (running_.load(std::memory_order_acquire)) return false;
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return false;
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(listen_fd_, 16) < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) ==
      0) {
    port_ = ntohs(addr.sin_port);
  }
  stop_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  thread_ = std::thread(&MetricsExporter::Serve, this);
  return true;
}

void MetricsExporter::Stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
  // The accept loop has exited, so no new connections arrive. Join every
  // in-flight handler before closing the listen fd: a scrape that raced
  // Stop() still gets its complete response (socket timeouts in
  // HandleConnection bound how long a stuck client can delay shutdown).
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (auto& conn : connections_) {
      if (conn->thread.joinable()) conn->thread.join();
    }
    connections_.clear();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  running_.store(false, std::memory_order_release);
}

void MetricsExporter::ReapFinishedLocked() {
  for (auto it = connections_.begin(); it != connections_.end();) {
    if ((*it)->done.load(std::memory_order_acquire)) {
      if ((*it)->thread.joinable()) (*it)->thread.join();
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

void MetricsExporter::Serve() {
  pollfd pfd{};
  pfd.fd = listen_fd_;
  pfd.events = POLLIN;
  while (!stop_.load(std::memory_order_acquire)) {
    // Short poll timeout so Stop() is observed promptly without a wakeup
    // pipe; scrape intervals are seconds, 100ms of shutdown latency is
    // irrelevant.
    const int r = ::poll(&pfd, 1, 100);
    if (r <= 0 || (pfd.revents & POLLIN) == 0) continue;
    const int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) continue;
    // One thread per connection: concurrent scrapes do not serialize
    // behind a slow reader. The Connection's thread member is assigned
    // under the lock so the reaper never observes a half-constructed
    // std::thread.
    std::lock_guard<std::mutex> lock(conn_mu_);
    ReapFinishedLocked();
    connections_.push_back(std::make_unique<Connection>());
    Connection* conn = connections_.back().get();
    conn->thread = std::thread([this, conn, client] {
      HandleConnection(client);
      ::close(client);
      conn->done.store(true, std::memory_order_release);
    });
  }
}

void MetricsExporter::HandleConnection(int fd) {
  // Bound how long a stuck client can hold the accept loop.
  timeval tv{};
  tv.tv_sec = 2;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));

  char buf[2048];
  size_t have = 0;
  while (have < sizeof(buf) - 1) {
    const ssize_t n = ::recv(fd, buf + have, sizeof(buf) - 1 - have, 0);
    if (n <= 0) break;
    have += static_cast<size_t>(n);
    buf[have] = '\0';
    if (std::strstr(buf, "\r\n\r\n") != nullptr ||
        std::strstr(buf, "\n\n") != nullptr) {
      break;
    }
  }
  if (have == 0) return;
  buf[have] = '\0';

  // Request line: METHOD SP PATH SP VERSION.
  const char* sp1 = std::strchr(buf, ' ');
  if (sp1 == nullptr || std::strncmp(buf, "GET ", 4) != 0) {
    SendAll(fd, HttpResponse(405, "Method Not Allowed", "text/plain",
                             "method not allowed\n"));
    return;
  }
  const char* path = sp1 + 1;
  const char* sp2 = std::strpbrk(path, " \r\n");
  const std::string target(path, sp2 == nullptr
                                     ? std::strlen(path)
                                     : static_cast<size_t>(sp2 - path));

  if (target == "/metrics" || target.rfind("/metrics?", 0) == 0) {
    std::ostringstream body;
    RenderPrometheusText(MetricsRegistry::Global().TakeSnapshot(), body);
    SendAll(fd, HttpResponse(200, "OK", "text/plain; version=0.0.4",
                             body.str()));
  } else if (target == "/tables") {
    prof::RegisterDefaultCounterTables();
    SendAll(fd, HttpResponse(200, "OK", "text/plain",
                             prof::CounterTables::Global().Render()));
  } else if (target == "/healthz") {
    if (Draining()) {
      SendAll(fd, HttpResponse(503, "Service Unavailable", "text/plain",
                               "draining\n"));
    } else {
      SendAll(fd, HttpResponse(200, "OK", "text/plain", "ok\n"));
    }
  } else {
    SendAll(fd, HttpResponse(404, "Not Found", "text/plain", "not found\n"));
  }
}

MetricsExporter& GlobalExporter() {
  static MetricsExporter* e = new MetricsExporter();
  return *e;
}

bool StartExporterFromEnv() {
  const char* env = std::getenv("LSCHED_METRICS_PORT");
  if (env == nullptr || *env == '\0') return false;
  MetricsExporter& exporter = GlobalExporter();
  if (exporter.running()) return true;
  const int port = std::atoi(env);
  if (port < 0 || port > 65535) {
    LSCHED_LOG(Error) << "invalid LSCHED_METRICS_PORT: " << env;
    return false;
  }
  if (!exporter.Start(port)) {
    LSCHED_LOG(Error) << "metrics exporter failed to bind port " << port;
    return false;
  }
  LSCHED_LOG(Info) << "metrics exporter serving http://127.0.0.1:"
                   << exporter.port() << "/metrics";
  return true;
}

}  // namespace obs
}  // namespace lsched
