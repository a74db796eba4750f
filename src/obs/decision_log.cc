#include "obs/decision_log.h"

#if LSCHED_OBS_ENABLED

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

namespace lsched {
namespace obs {

namespace {

/// Quotes a field if it contains CSV metacharacters (RFC-4180 style).
void WriteField(std::ostream& out, const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) {
    out << s;
    return;
  }
  out << '"';
  for (char c : s) {
    if (c == '"') out << '"';
    out << c;
  }
  out << '"';
}

/// Splits one CSV line honoring quoted fields.
std::vector<std::string> SplitCsvLine(const std::string& line) {
  std::vector<std::string> fields;
  std::string cur;
  bool quoted = false;
  for (size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (quoted) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          cur += '"';
          ++i;
        } else {
          quoted = false;
        }
      } else {
        cur += c;
      }
    } else if (c == '"') {
      quoted = true;
    } else if (c == ',') {
      fields.push_back(std::move(cur));
      cur.clear();
    } else {
      cur += c;
    }
  }
  fields.push_back(std::move(cur));
  return fields;
}

}  // namespace

DecisionLog::DecisionLog(size_t capacity)
    : capacity_(std::max<size_t>(1, capacity)) {}

DecisionLog& DecisionLog::Global() {
  static DecisionLog* log = new DecisionLog();
  return *log;
}

DecisionRecord* DecisionLog::Find(int64_t id) {
  if (id < first_id_ || id >= next_id_) return nullptr;
  return &ring_[static_cast<size_t>(id) % capacity_];
}

int64_t DecisionLog::Add(DecisionRecord record) {
  std::lock_guard<std::mutex> lock(mu_);
  record.id = next_id_++;
  const size_t slot = static_cast<size_t>(record.id) % capacity_;
  if (slot >= ring_.size()) ring_.resize(slot + 1);  // grows to capacity_
  ring_[slot] = std::move(record);
  first_id_ = std::max(first_id_, next_id_ - static_cast<int64_t>(capacity_));
  return next_id_ - 1;
}

void DecisionLog::AddRealized(int64_t id, double seconds) {
  if (id < 0) return;
  std::shared_ptr<const BackfillObserver> observer;
  DecisionRecord updated;
  {
    std::lock_guard<std::mutex> lock(mu_);
    DecisionRecord* r = Find(id);
    if (r == nullptr) {
      if (id < first_id_) ++lost_backfills_;
      return;
    }
    r->realized_seconds += seconds;
    if (backfill_observer_ != nullptr) {
      observer = backfill_observer_;
      updated = *r;  // copy: the observer runs outside the lock
    }
  }
  if (observer != nullptr) (*observer)(updated);
}

void DecisionLog::SetBackfillObserver(BackfillObserver observer) {
  std::lock_guard<std::mutex> lock(mu_);
  if (observer == nullptr) {
    backfill_observer_.reset();
  } else {
    backfill_observer_ =
        std::make_shared<const BackfillObserver>(std::move(observer));
  }
}

void DecisionLog::AddPipeline(int64_t id, int64_t planned_work_orders) {
  if (id < 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  DecisionRecord* r = Find(id);
  if (r == nullptr) return;
  ++r->num_pipelines;
  r->planned_work_orders += planned_work_orders;
}

size_t DecisionLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<size_t>(next_id_ - first_id_);
}

std::vector<DecisionRecord> DecisionLog::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<DecisionRecord> out;
  out.reserve(static_cast<size_t>(next_id_ - first_id_));
  for (int64_t id = first_id_; id < next_id_; ++id) {
    out.push_back(ring_[static_cast<size_t>(id) % capacity_]);
  }
  return out;
}

void DecisionLog::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.clear();
  first_id_ = next_id_;
  lost_backfills_ = 0;
}

int64_t DecisionLog::lost_backfills() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lost_backfills_;
}

const char* DecisionLog::CsvHeader() {
  return "id,time,engine,event,policy,candidates,num_candidates,"
         "running_queries,free_threads,chosen_query,chosen_root,op_type,"
         "degree,max_threads,num_pipelines,planned_work_orders,"
         "predicted_score,schedule_wall_us,realized_seconds,fallback,"
         "tenant";
}

void DecisionLog::WriteCsv(std::ostream& out) const {
  const std::vector<DecisionRecord> records = Snapshot();
  out << CsvHeader() << "\n";
  out.precision(17);
  for (const DecisionRecord& r : records) {
    out << r.id << ',' << r.time << ',';
    WriteField(out, r.engine);
    out << ',';
    WriteField(out, r.event);
    out << ',';
    WriteField(out, r.policy);
    out << ',';
    WriteField(out, r.candidates);
    out << ',' << r.num_candidates << ',' << r.running_queries << ','
        << r.free_threads << ',' << r.chosen_query << ',' << r.chosen_root
        << ',';
    WriteField(out, r.op_type);
    out << ',' << r.degree << ',' << r.max_threads << ',' << r.num_pipelines
        << ',' << r.planned_work_orders << ',';
    if (std::isnan(r.predicted_score)) {
      out << "nan";
    } else {
      out << r.predicted_score;
    }
    out << ',' << r.schedule_wall_us << ',' << r.realized_seconds << ','
        << (r.fallback ? 1 : 0) << ',' << r.tenant << "\n";
  }
}

bool DecisionLog::WriteCsv(const std::string& path) const {
  std::ofstream out(path);
  if (!out.is_open()) return false;
  WriteCsv(out);
  return out.good();
}

bool ParseDecisionCsv(std::istream& in, std::vector<DecisionRecord>* out) {
  out->clear();
  std::string line;
  if (!std::getline(in, line)) return false;
  if (line != DecisionLog::CsvHeader()) return false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const std::vector<std::string> f = SplitCsvLine(line);
    if (f.size() != 21) return false;
    DecisionRecord r;
    try {
      r.id = std::stoll(f[0]);
      r.time = std::stod(f[1]);
      r.engine = f[2];
      r.event = f[3];
      r.policy = f[4];
      r.candidates = f[5];
      r.num_candidates = std::stoi(f[6]);
      r.running_queries = std::stoi(f[7]);
      r.free_threads = std::stoi(f[8]);
      r.chosen_query = std::stoll(f[9]);
      r.chosen_root = std::stoi(f[10]);
      r.op_type = f[11];
      r.degree = std::stoi(f[12]);
      r.max_threads = std::stoi(f[13]);
      r.num_pipelines = std::stoi(f[14]);
      r.planned_work_orders = std::stoll(f[15]);
      r.predicted_score = std::stod(f[16]);
      r.schedule_wall_us = std::stod(f[17]);
      r.realized_seconds = std::stod(f[18]);
      r.fallback = f[19] == "1";
      r.tenant = std::stoi(f[20]);
    } catch (...) {
      return false;
    }
    out->push_back(std::move(r));
  }
  return true;
}

}  // namespace obs
}  // namespace lsched

#endif  // LSCHED_OBS_ENABLED
