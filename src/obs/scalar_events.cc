#include "obs/scalar_events.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>

namespace lsched {
namespace obs {

namespace {

/// Locale-independent double formatting with full round-trip precision.
void AppendDouble(std::string* out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  *out += buf;
}

/// Extracts the value of `key` from a single-line JSON object: returns a
/// pointer just past `"key":` or nullptr when absent.
const char* FindField(const std::string& line, const char* key) {
  std::string needle = "\"";
  needle += key;
  needle += "\":";
  const size_t pos = line.find(needle);
  if (pos == std::string::npos) return nullptr;
  return line.c_str() + pos + needle.size();
}

}  // namespace

ScalarEventWriter& ScalarEventWriter::Global() {
  static ScalarEventWriter* w = new ScalarEventWriter();
  return *w;
}

void ScalarEventWriter::Append(const std::string& tag, int64_t step,
                               double value) {
  if (!Enabled()) return;
  const double wall_ms = NowMicros() / 1000.0;
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(ScalarEvent{step, wall_ms, tag, value});
}

size_t ScalarEventWriter::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

std::vector<ScalarEvent> ScalarEventWriter::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

std::vector<ScalarEvent> ScalarEventWriter::Series(
    const std::string& tag) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ScalarEvent> out;
  for (const ScalarEvent& e : events_) {
    if (e.tag == tag) out.push_back(e);
  }
  return out;
}

std::vector<double> ScalarEventWriter::SeriesValues(
    const std::string& tag) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const ScalarEvent& e : events_) {
    if (e.tag == tag) out.push_back(e.value);
  }
  return out;
}

void ScalarEventWriter::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
}

void ScalarEventWriter::WriteJsonl(std::ostream& out) const {
  const std::vector<ScalarEvent> events = Snapshot();
  std::string line;
  for (const ScalarEvent& e : events) {
    line.clear();
    line += "{\"step\":";
    line += std::to_string(e.step);
    line += ",\"wall_ms\":";
    AppendDouble(&line, e.wall_ms);
    line += ",\"tag\":\"";
    line += e.tag;
    line += "\",\"value\":";
    if (std::isfinite(e.value)) {
      AppendDouble(&line, e.value);
    } else {
      line += "null";  // JSON has no NaN/Inf
    }
    line += "}\n";
    out << line;
  }
}

bool ScalarEventWriter::WriteJsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out.is_open()) return false;
  WriteJsonl(out);
  return out.good();
}

bool ParseScalarEventsJsonl(std::istream& in, std::vector<ScalarEvent>* out) {
  out->clear();
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ScalarEvent e;
    const char* step = FindField(line, "step");
    const char* wall = FindField(line, "wall_ms");
    const char* tag = FindField(line, "tag");
    const char* value = FindField(line, "value");
    if (step == nullptr || wall == nullptr || tag == nullptr ||
        value == nullptr) {
      return false;
    }
    char* end = nullptr;
    e.step = std::strtoll(step, &end, 10);
    if (end == step) return false;
    e.wall_ms = std::strtod(wall, &end);
    if (end == wall) return false;
    if (*tag != '"') return false;
    const char* tag_end = std::strchr(tag + 1, '"');
    if (tag_end == nullptr) return false;
    e.tag.assign(tag + 1, tag_end);
    if (std::strncmp(value, "null", 4) == 0) {
      e.value = std::numeric_limits<double>::quiet_NaN();
    } else {
      e.value = std::strtod(value, &end);
      if (end == value) return false;
    }
    out->push_back(std::move(e));
  }
  return true;
}

}  // namespace obs
}  // namespace lsched
