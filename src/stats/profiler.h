// Time-composition rows of one window (§3.2 of the paper).
//
// The total running time of an executor (an LP pinned to a rank for the
// baselines, a worker thread for Unison) is split into processing time P,
// synchronization time S, and messaging time M. A Profiler holds the window
// being recorded: per-executor P/S/M totals, per-round P/S/M rows and, with
// per_lp, per-(round, LP) costs for the Fig. 13 heatmaps and the parallel
// cost model. It is not a recorder of its own: the run recorder
// (src/stats/trace.h) owns the one instance, kernels write into it only
// while recording is on, and RunTrace::EndRun moves its contents into the
// window's segment.
//
// All writes go to executor-private slots between barriers, so no locking is
// needed; readers only inspect the data after Run() returns. The per-round
// matrices are stored executor-major for exactly this reason: each executor
// appends to its own row vector with an explicit round index, so every
// accounted nanosecond — including waits at the end-of-round barrier, which
// overlap the coordinator's next prologue — can be attributed to its round
// without sharing a row across threads. The round-major views are built on
// demand after the run.
#ifndef UNISON_SRC_STATS_PROFILER_H_
#define UNISON_SRC_STATS_PROFILER_H_

#include <chrono>
#include <cstdint>
#include <vector>

#include "src/core/event.h"

namespace unison {

struct ExecutorPhaseStats {
  uint64_t processing_ns = 0;      // P: executing events.
  uint64_t synchronization_ns = 0; // S: waiting for other executors.
  uint64_t messaging_ns = 0;       // M: receiving events / updating windows.
  uint64_t events = 0;             // Events executed by this executor.
};

// Per-(round, LP) record for heatmaps and the cost model.
struct LpRoundCost {
  uint32_t round = 0;
  LpId lp = 0;
  uint32_t events = 0;   // Events actually executed in the round.
  uint32_t pending = 0;  // FEL events below the window at round start — what
                         // the ByPendingEventCount metric can observe.
  uint64_t cpu_ns = 0;
};

class Profiler {
 public:
  bool per_lp = false;  // Record per-(round, LP) costs; O(rounds x LPs).

  // Opens a window of `num_executors` zeroed slots, dropping the last one's.
  void BeginRun(uint32_t num_executors);

  ExecutorPhaseStats& executor(uint32_t i) { return executors_[i]; }
  const std::vector<ExecutorPhaseStats>& executors() const { return executors_; }

  // Per-round records. `round` is the kernel's zero-based round index;
  // executors track it locally so their writes stay private (see file
  // comment). BeginRound is called by the coordinating thread once per round
  // and only maintains the round count.
  void BeginRound() { ++rounds_begun_; }
  void AddRoundProcessing(uint32_t executor, uint32_t round, uint64_t ns) {
    AddRow(&exec_round_p_[executor], round, ns);
  }
  void AddRoundSync(uint32_t executor, uint32_t round, uint64_t ns) {
    AddRow(&exec_round_s_[executor], round, ns);
  }
  void AddRoundMessaging(uint32_t executor, uint32_t round, uint64_t ns) {
    AddRow(&exec_round_m_[executor], round, ns);
  }

  // Round-major [round][executor] views, built on demand; rows are padded
  // with zeros up to rounds(). Intended for post-run consumers only.
  std::vector<std::vector<uint64_t>> round_processing_ns() const;
  std::vector<std::vector<uint64_t>> round_sync_ns() const;
  std::vector<std::vector<uint64_t>> round_messaging_ns() const;
  uint32_t rounds() const;

  // Per-(round, LP) cost records; each executor owns a private buffer.
  void AddLpRound(uint32_t executor, LpRoundCost cost);
  std::vector<LpRoundCost> MergedLpRounds() const;

  // Aggregates across executors.
  uint64_t TotalProcessingNs() const;
  uint64_t TotalSyncNs() const;
  uint64_t TotalMessagingNs() const;

  static uint64_t NowNs() {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

 private:
  static void AddRow(std::vector<uint64_t>* row, uint32_t round, uint64_t ns);
  std::vector<std::vector<uint64_t>> Transposed(
      const std::vector<std::vector<uint64_t>>& exec_major) const;

  std::vector<ExecutorPhaseStats> executors_;
  // [executor][round]; each inner vector is written only by its executor.
  std::vector<std::vector<uint64_t>> exec_round_p_;
  std::vector<std::vector<uint64_t>> exec_round_s_;
  std::vector<std::vector<uint64_t>> exec_round_m_;
  std::vector<std::vector<LpRoundCost>> lp_rounds_;
  uint32_t num_executors_ = 0;
  uint32_t rounds_begun_ = 0;
};

}  // namespace unison

#endif  // UNISON_SRC_STATS_PROFILER_H_
