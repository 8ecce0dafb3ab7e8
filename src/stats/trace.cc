#include "src/stats/trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace unison {

namespace {

void AppendU64(std::string* out, uint64_t v) { *out += std::to_string(v); }

void AppendI64(std::string* out, int64_t v) { *out += std::to_string(v); }

void AppendF64(std::string* out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  *out += buf;
}

void AppendU64Array(std::string* out, const std::vector<uint64_t>& values) {
  *out += '[';
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) {
      *out += ',';
    }
    AppendU64(out, values[i]);
  }
  *out += ']';
}

void AppendU32Array(std::string* out, const std::vector<uint32_t>& values) {
  *out += '[';
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) {
      *out += ',';
    }
    AppendU64(out, values[i]);
  }
  *out += ']';
}

uint64_t RowSum(const std::vector<std::vector<uint64_t>>& matrix, size_t row) {
  if (row >= matrix.size()) {
    return 0;
  }
  uint64_t sum = 0;
  for (uint64_t v : matrix[row]) {
    sum += v;
  }
  return sum;
}

bool WriteFile(const std::string& path, const std::string& content) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const size_t written = std::fwrite(content.data(), 1, content.size(), f);
  const bool ok = written == content.size() && std::fclose(f) == 0;
  if (!ok && written != content.size()) {
    std::fclose(f);
  }
  return ok;
}

}  // namespace

std::string RunSummary::ToJson() const {
  std::string out;
  out.reserve(256);
  out += "{\"kernel\":\"";
  out += kernel;  // Kernel names are fixed identifiers; no escaping needed.
  out += "\",\"executors\":";
  AppendU64(&out, executors);
  out += ",\"lps\":";
  AppendU64(&out, lps);
  out += ",\"rounds\":";
  AppendU64(&out, rounds);
  out += ",\"events\":";
  AppendU64(&out, events);
  out += ",\"wall_ns\":";
  AppendU64(&out, wall_ns);
  out += ",\"processing_ns\":";
  AppendU64(&out, processing_ns);
  out += ",\"synchronization_ns\":";
  AppendU64(&out, synchronization_ns);
  out += ",\"messaging_ns\":";
  AppendU64(&out, messaging_ns);
  out += ",\"window_index\":";
  AppendU64(&out, window_index);
  out += ",\"window_start_ps\":";
  AppendI64(&out, window_start_ps);
  out += ",\"window_stop_ps\":";
  AppendI64(&out, window_stop_ps);
  out += ",\"reason\":\"";
  out += reason;  // One of the fixed RunReasonName strings; no escaping needed.
  out += "\",\"forked_from\":\"";
  out += forked_from;  // "snap-<hex>@w<n>" or empty; no escapable characters.
  out += "\",\"tuning_epoch\":";
  AppendU64(&out, tuning_epoch);
  out += ",\"sched_period\":";
  AppendU64(&out, sched_period);
  out += ",\"parties\":";
  AppendU64(&out, parties);
  out += ",\"imbalance\":";
  AppendF64(&out, imbalance);
  out += ",\"steals\":";
  AppendU64(&out, steals);
  out += ",\"messages\":";
  AppendU64(&out, messages);
  out += '}';
  return out;
}

bool RoundImbalance(const std::vector<uint64_t>& row, double* out) {
  if (row.size() < 2) {
    return false;
  }
  uint64_t sum = 0;
  uint64_t max = 0;
  for (uint64_t v : row) {
    sum += v;
    max = std::max(max, v);
  }
  if (sum == 0) {
    return false;
  }
  *out = static_cast<double>(max) * static_cast<double>(row.size()) /
             static_cast<double>(sum) -
         1.0;
  return true;
}

double MeanRoundImbalance(const std::vector<std::vector<uint64_t>>& round_p) {
  double total = 0.0;
  uint32_t usable = 0;
  for (const std::vector<uint64_t>& row : round_p) {
    double imb = 0.0;
    if (RoundImbalance(row, &imb)) {
      total += imb;
      ++usable;
    }
  }
  return usable == 0 ? 0.0 : total / usable;
}

void RunTrace::BeginSession() {
  segments_.clear();
  live_ = WindowTraceSegment{};
  running_ = false;
}

void RunTrace::BeginRun(std::string kernel, uint32_t executors, uint32_t lps) {
  if (!keep_history) {
    // Nothing reads the last window once the next one starts; freeing it
    // now keeps one window's records in memory, not two.
    segments_.clear();
  }
  live_ = WindowTraceSegment{};
  live_.summary.kernel = std::move(kernel);
  live_.summary.executors = executors;
  live_.summary.lps = lps;
  rows_.BeginRun(executors);
  running_ = true;
}

void RunTrace::BeginRound(uint32_t round, Time lbts, Time window,
                          uint64_t events_before) {
  RoundTraceRecord rec;
  rec.round = round;
  rec.lbts_ps = lbts.ps();
  rec.window_ps = window.ps();
  rec.events_before = events_before;
  live_.records.push_back(std::move(rec));
  rows_.BeginRound();
}

void RunTrace::RecordClaimOrder(const std::vector<uint32_t>& order) {
  if (live_.records.empty()) {
    return;
  }
  live_.records.back().resorted = true;
  if (record_claim_order) {
    live_.records.back().claim_order = order;
  }
}

void RunTrace::RecordBarrier(uint32_t round, uint64_t barrier_ns,
                             uint64_t parked) {
  if (round >= live_.records.size()) {
    return;
  }
  live_.records[round].barrier_ns = barrier_ns;
  live_.records[round].parked = parked;
}

void RunTrace::EndRun(RunSummary* summary) {
  summary->processing_ns = rows_.TotalProcessingNs();
  summary->synchronization_ns = rows_.TotalSyncNs();
  summary->messaging_ns = rows_.TotalMessagingNs();
  live_.executors = rows_.executors();
  live_.round_p = rows_.round_processing_ns();
  live_.round_s = rows_.round_sync_ns();
  live_.round_m = rows_.round_messaging_ns();
  live_.lp_rounds = rows_.MergedLpRounds();
  rows_.BeginRun(0);  // The segment now holds the window's only copy.
  summary->imbalance = MeanRoundImbalance(live_.round_p);
  live_.summary = *summary;
  segments_.push_back(std::move(live_));
  running_ = false;
}

RunSummary RunTrace::Cumulative() const {
  if (segments_.empty()) {
    return live_.summary;
  }
  RunSummary total = segments_.back().summary;
  total.rounds = 0;
  total.events = 0;
  total.wall_ns = 0;
  total.processing_ns = 0;
  total.synchronization_ns = 0;
  total.messaging_ns = 0;
  total.steals = 0;
  total.messages = 0;
  for (const WindowTraceSegment& seg : segments_) {
    total.rounds += seg.summary.rounds;
    total.events += seg.summary.events;
    total.wall_ns += seg.summary.wall_ns;
    total.processing_ns += seg.summary.processing_ns;
    total.synchronization_ns += seg.summary.synchronization_ns;
    total.messaging_ns += seg.summary.messaging_ns;
    total.steals += seg.summary.steals;
    total.messages += seg.summary.messages;
  }
  total.window_start_ps = segments_.front().summary.window_start_ps;
  return total;
}

namespace {

// Serializes one window's body — "summary", "per_executor", "rounds" — shared
// by the top-level (last-window) view and each archived segment.
void AppendTraceBody(std::string* out, const WindowTraceSegment& seg) {
  *out += "\"summary\":";
  *out += seg.summary.ToJson();
  *out += ",\"per_executor\":[";
  for (size_t i = 0; i < seg.executors.size(); ++i) {
    if (i > 0) {
      *out += ',';
    }
    *out += "{\"processing_ns\":";
    AppendU64(out, seg.executors[i].processing_ns);
    *out += ",\"synchronization_ns\":";
    AppendU64(out, seg.executors[i].synchronization_ns);
    *out += ",\"messaging_ns\":";
    AppendU64(out, seg.executors[i].messaging_ns);
    *out += ",\"events\":";
    AppendU64(out, seg.executors[i].events);
    *out += '}';
  }
  *out += "],\"rounds\":[";
  for (size_t i = 0; i < seg.records.size(); ++i) {
    const RoundTraceRecord& r = seg.records[i];
    if (i > 0) {
      *out += ',';
    }
    *out += "{\"round\":";
    AppendU64(out, r.round);
    *out += ",\"lbts_ps\":";
    AppendI64(out, r.lbts_ps);
    *out += ",\"window_ps\":";
    AppendI64(out, r.window_ps);
    *out += ",\"events_before\":";
    AppendU64(out, r.events_before);
    *out += ",\"barrier_ns\":";
    AppendU64(out, r.barrier_ns);
    *out += ",\"parked\":";
    AppendU64(out, r.parked);
    *out += ",\"resorted\":";
    *out += r.resorted ? "true" : "false";
    if (!r.claim_order.empty()) {
      *out += ",\"claim_order\":";
      AppendU32Array(out, r.claim_order);
    }
    if (r.round < seg.round_p.size()) {
      *out += ",\"p_ns\":";
      AppendU64Array(out, seg.round_p[r.round]);
    }
    if (r.round < seg.round_s.size()) {
      *out += ",\"s_ns\":";
      AppendU64Array(out, seg.round_s[r.round]);
    }
    if (r.round < seg.round_m.size()) {
      *out += ",\"m_ns\":";
      AppendU64Array(out, seg.round_m[r.round]);
    }
    *out += '}';
  }
  *out += ']';
}

void AppendCsvRows(std::string* out, uint32_t window,
                   const WindowTraceSegment& seg) {
  for (const RoundTraceRecord& r : seg.records) {
    AppendU64(out, window);
    *out += ',';
    AppendU64(out, r.round);
    *out += ',';
    AppendI64(out, r.lbts_ps);
    *out += ',';
    AppendI64(out, r.window_ps);
    *out += ',';
    AppendU64(out, r.events_before);
    *out += ',';
    *out += r.resorted ? '1' : '0';
    *out += ',';
    AppendU64(out, RowSum(seg.round_p, r.round));
    *out += ',';
    AppendU64(out, RowSum(seg.round_s, r.round));
    *out += ',';
    AppendU64(out, RowSum(seg.round_m, r.round));
    *out += ',';
    AppendU64(out, r.barrier_ns);
    *out += ',';
    AppendU64(out, r.parked);
    *out += ',';
    AppendU64(out, seg.summary.tuning_epoch);
    *out += ',';
    // Window-level counters, repeated on each of the window's rows (the flat
    // table has no window-level rows to hang them on).
    AppendU64(out, seg.summary.steals);
    *out += ',';
    AppendU64(out, seg.summary.messages);
    *out += '\n';
  }
}

}  // namespace

std::string RunTrace::ToJson() const {
  std::string out;
  out.reserve(4096 + current().records.size() * 96);
  out += '{';
  AppendTraceBody(&out, current());
  out += ",\"windows\":";
  AppendU64(&out, segments_.size());
  out += ",\"cumulative\":";
  out += Cumulative().ToJson();
  out += ",\"segments\":[";
  for (size_t i = 0; i < segments_.size(); ++i) {
    if (i > 0) {
      out += ',';
    }
    out += '{';
    AppendTraceBody(&out, segments_[i]);
    out += '}';
  }
  out += "]}";
  return out;
}

std::string RunTrace::ToCsv() const {
  std::string out;
  out.reserve(64 + current().records.size() * 64);
  out += "window,round,lbts_ps,window_ps,events_before,resorted,p_total_ns,"
         "s_total_ns,m_total_ns,barrier_ns,parked,tuning_epoch,steals,"
         "messages\n";
  if (segments_.empty()) {
    // Export mid-window (EndRun not yet reached): show the live records.
    AppendCsvRows(&out, 0, live_);
    return out;
  }
  for (const WindowTraceSegment& seg : segments_) {
    AppendCsvRows(&out, seg.summary.window_index, seg);
  }
  return out;
}

bool RunTrace::WriteJsonFile(const std::string& path) const {
  return WriteFile(path, ToJson());
}

bool RunTrace::WriteCsvFile(const std::string& path) const {
  return WriteFile(path, ToCsv());
}

}  // namespace unison
