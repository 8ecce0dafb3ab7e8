// Virtual-time parallel cost model.
//
// This host exposes a single CPU core, so wall-clock cannot exhibit the
// paper's parallel speedups directly. Instead, one *instrumented* run
// (single worker, per-LP profiling) records the exact processing cost of
// every (round, LP) cell — the same LBTS round structure every conservative
// algorithm shares — and this model replays each algorithm's schedule over
// those measured costs:
//
//   Barrier:      LPs statically pinned to ranks; a round costs the maximum
//                 rank total; ranks idle for the rest (that idle IS the
//                 synchronization time S of §3.2).
//   Null message: one LP per rank; an LP may start round r when it and its
//                 channel neighbours finished round r-1 (the lookahead
//                 window), i.e. longest-path relaxation over the LP graph.
//   Unison:       workers claim LPs longest-estimate-first (the real
//                 scheduler's policy) with the estimate source selectable,
//                 so estimation error shows up exactly as it would live.
//
// Who wins, by what factor, and where crossovers fall are all properties of
// these schedules, not of the host's core count — see DESIGN.md §2.
#ifndef UNISON_SRC_COSTMODEL_COST_MODEL_H_
#define UNISON_SRC_COSTMODEL_COST_MODEL_H_

#include <cstdint>
#include <vector>

#include "src/kernel/kernel.h"
#include "src/stats/profiler.h"

namespace unison {

struct ModelResult {
  uint64_t makespan_ns = 0;    // Modeled parallel wall time.
  uint64_t processing_ns = 0;  // Sum of all event-processing costs.
  // Per-executor totals; S = makespan - P - M for each executor.
  std::vector<uint64_t> executor_p_ns;
  std::vector<uint64_t> executor_s_ns;
  // Per-round makespans (for S/T-per-round figures).
  std::vector<uint64_t> round_makespan_ns;
  std::vector<uint64_t> round_ideal_ns;  // Unison model only: LPT on true costs.

  double SyncRatio() const {
    const uint64_t total =
        makespan_ns * (executor_p_ns.empty() ? 1 : executor_p_ns.size());
    uint64_t s = 0;
    for (uint64_t v : executor_s_ns) {
      s += v;
    }
    return total == 0 ? 0.0 : static_cast<double>(s) / static_cast<double>(total);
  }
};

class ParallelCostModel {
 public:
  // `trace` comes from RunTrace::lp_rounds() of an instrumented run.
  ParallelCostModel(const std::vector<LpRoundCost>& trace, uint32_t num_lps);

  uint32_t rounds() const { return static_cast<uint32_t>(cost_.size()); }
  uint32_t num_lps() const { return num_lps_; }
  uint64_t SequentialNs() const;

  // Raw per-round, per-LP cost matrix (benches derive custom per-round
  // breakdowns from it).
  const std::vector<std::vector<uint64_t>>& round_costs() const { return cost_; }
  const std::vector<std::vector<uint32_t>>& round_events() const { return events_; }

  // Barrier synchronization with a static LP→rank map. `sync_overhead_ns` is
  // the per-round barrier/allreduce cost.
  ModelResult Barrier(const std::vector<uint32_t>& rank_of_lp, uint32_t ranks,
                      uint64_t sync_overhead_ns) const;

  // Null message with one LP per rank. `per_round_overhead_ns` models the
  // null-message exchange per window.
  ModelResult NullMessage(const std::vector<std::vector<uint32_t>>& lp_neighbors,
                          uint64_t per_round_overhead_ns) const;

  // Unison's load-adaptive scheduling on `workers` cores. `metric` selects
  // the estimate source; `sched_period` mirrors the kernel's re-sort cadence
  // (0 = every round).
  ModelResult Unison(uint32_t workers, SchedulingMetric metric, uint32_t sched_period,
                     uint64_t per_round_overhead_ns) const;

  // Slowdown factor alpha (§6.3): sum of actual round completion times over
  // the sum of idealistic round times.
  static double SlowdownFactor(const ModelResult& result);

 private:
  uint32_t num_lps_ = 0;
  // cost_[round][lp], events_[round][lp], pending_[round][lp].
  std::vector<std::vector<uint64_t>> cost_;
  std::vector<std::vector<uint32_t>> events_;
  std::vector<std::vector<uint32_t>> pending_;
};

}  // namespace unison

#endif  // UNISON_SRC_COSTMODEL_COST_MODEL_H_
