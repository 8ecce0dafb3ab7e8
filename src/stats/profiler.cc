#include "src/stats/profiler.h"

#include <algorithm>

namespace unison {

void Profiler::BeginRun(uint32_t num_executors) {
  num_executors_ = num_executors;
  executors_.assign(num_executors, ExecutorPhaseStats{});
  exec_round_p_.assign(num_executors, {});
  exec_round_s_.assign(num_executors, {});
  exec_round_m_.assign(num_executors, {});
  lp_rounds_.assign(num_executors, {});
  rounds_begun_ = 0;
}

void Profiler::AddRow(std::vector<uint64_t>* row, uint32_t round, uint64_t ns) {
  if (row->size() <= round) {
    row->resize(round + 1, 0);
  }
  (*row)[round] += ns;
}

uint32_t Profiler::rounds() const {
  size_t rounds = rounds_begun_;
  for (const auto& row : exec_round_p_) {
    rounds = std::max(rounds, row.size());
  }
  for (const auto& row : exec_round_s_) {
    rounds = std::max(rounds, row.size());
  }
  for (const auto& row : exec_round_m_) {
    rounds = std::max(rounds, row.size());
  }
  return static_cast<uint32_t>(rounds);
}

std::vector<std::vector<uint64_t>> Profiler::Transposed(
    const std::vector<std::vector<uint64_t>>& exec_major) const {
  std::vector<std::vector<uint64_t>> out(
      rounds(), std::vector<uint64_t>(num_executors_, 0));
  for (uint32_t e = 0; e < exec_major.size(); ++e) {
    const auto& row = exec_major[e];
    for (size_t r = 0; r < row.size(); ++r) {
      out[r][e] = row[r];
    }
  }
  return out;
}

std::vector<std::vector<uint64_t>> Profiler::round_processing_ns() const {
  return Transposed(exec_round_p_);
}

std::vector<std::vector<uint64_t>> Profiler::round_sync_ns() const {
  return Transposed(exec_round_s_);
}

std::vector<std::vector<uint64_t>> Profiler::round_messaging_ns() const {
  return Transposed(exec_round_m_);
}

void Profiler::AddLpRound(uint32_t executor, LpRoundCost cost) {
  if (per_lp) {
    lp_rounds_[executor].push_back(cost);
  }
}

std::vector<LpRoundCost> Profiler::MergedLpRounds() const {
  std::vector<LpRoundCost> merged;
  size_t total = 0;
  for (const auto& buf : lp_rounds_) {
    total += buf.size();
  }
  merged.reserve(total);
  for (const auto& buf : lp_rounds_) {
    merged.insert(merged.end(), buf.begin(), buf.end());
  }
  std::sort(merged.begin(), merged.end(), [](const LpRoundCost& a, const LpRoundCost& b) {
    return a.round != b.round ? a.round < b.round : a.lp < b.lp;
  });
  return merged;
}

uint64_t Profiler::TotalProcessingNs() const {
  uint64_t sum = 0;
  for (const auto& e : executors_) {
    sum += e.processing_ns;
  }
  return sum;
}

uint64_t Profiler::TotalSyncNs() const {
  uint64_t sum = 0;
  for (const auto& e : executors_) {
    sum += e.synchronization_ns;
  }
  return sum;
}

uint64_t Profiler::TotalMessagingNs() const {
  uint64_t sum = 0;
  for (const auto& e : executors_) {
    sum += e.messaging_ns;
  }
  return sum;
}

}  // namespace unison
