// The round kernel: one four-phase LBTS loop (Fig. 7) behind the barrier
// baseline (§2.3), Unison (§4, §5), and the hybrid kernel (§5.2).
//
// Executors are laid out as G groups of L lanes; worker ids are group-major
// (worker = group * L + lane), so compact placement keeps a group's lanes on
// one package. Each round has four phases:
//   1. Process events  — the lanes of a group claim that group's LPs through
//                        an atomic cursor over its claim order (LPT list
//                        scheduling) and run each up to the window bound.
//   2. Global events   — worker 0 alone runs public-LP events on the window
//                        edge; topology changes recompute the lookahead here.
//   3. Receive events  — each worker drains the mailboxes of its own LP list.
//   4. Update window   — each worker folds the same list into a local minimum
//                        and contributes it, with its event count and stop
//                        vote, to the end-of-round barrier's fused reduction;
//                        worker 0 absorbs the result and derives the next
//                        LBTS from Eq. 2 (RoundSync).
// Under speculation the phase-4 fold doubles as the causality-miss check.
//
// A round crosses the barrier three times: after worker 0's prologue, after
// phase 1, and at the end of round. Phase 2 adds a fourth crossing only in
// rounds where a global event is due (RoundSync::globals_due, or an LP event
// that scheduled one mid-round); otherwise worker 0 has nothing to run and
// the others go straight to phase 3. Phases 3 and 4 need no crossing between
// them, because each worker folds exactly the LPs it drained.
//
// The three kernels are presets of that loop, picked from KernelType:
//
//   preset   groups x lanes  owners        phase 3/4 list      claim order
//   unison   1 x W           W lanes,      owner % live W      re-sorted by
//                            strided                           the metric
//   hybrid   R x L           R ranks, by   lane-strided slice  per rank, by
//                            first node    of the rank's LPs   last-round time
//   barrier  N x 1 (N LPs)   N ranks,      the rank's LPs      ascending,
//                            LP r on r                         never re-sorted
//
// Unison and hybrid lanes are a live tunable; barrier's party count is fixed.
// Barrier ranks exchange cross-LP events through each target's locked
// inbox — mailboxes are left unwired, so every send takes Kernel's overflow
// fallback — which reproduces MPI receive-order indeterminism when the run
// is non-deterministic (Fig. 11). Stock barrier sync all-reduces *before*
// each round; here that reduction is the end-of-round one, and the leading
// reduce is RoundSync::SeedMinFromLps, so the same three crossings per round
// just start one phase later.
#ifndef UNISON_SRC_KERNEL_ROUND_KERNEL_H_
#define UNISON_SRC_KERNEL_ROUND_KERNEL_H_

#include <atomic>
#include <memory>
#include <vector>

#include "src/kernel/engine/executor_pool.h"
#include "src/kernel/engine/round_sync.h"
#include "src/kernel/kernel.h"
#include "src/sched/combining_barrier.h"

namespace unison {

class RoundKernel : public Kernel {
 public:
  // `config.type` must be kBarrier, kUnison, or kHybrid.
  explicit RoundKernel(const KernelConfig& config);

  void Setup(const TopoGraph& graph, const Partition& partition) override;
  RunResult Run(Time stop_time) override;

  // The ceiling, not the live count: tuning may shrink lanes between
  // windows, but per-executor state sized at Finalize must cover every one.
  uint32_t MaxExecutors() const override { return groups_ * max_lanes_; }

  ExecutorPool* executor_pool() override { return active_pool_; }

  // Barrier crossings completed since the barrier was built, at Setup or in
  // the last window whose worker count changed (test hook: a run of R rounds
  // makes 3R + 1 when no global is ever due, the +1 being the crossing that
  // ends the run).
  uint32_t barrier_crossings() const { return barrier_->generation(); }

  uint64_t LiveEvents() const override {
    uint64_t sum = 0;
    for (uint64_t n : worker_events_) {
      sum += n;
    }
    return sum;
  }

 protected:
  void WireMailboxes() override;
  void OnOwnershipChanged() override { layout_workers_ = 0; }

 private:
  // Per-group claim cursor, one cache line each.
  struct alignas(64) Cursor {
    std::atomic<uint32_t> next{0};
  };

  // Rebuilds the claim orders and per-worker LP lists from the partition
  // map. Runs at a window boundary, only when ownership or the live worker
  // count changed since the last build.
  void BuildLayout(uint32_t workers);
  // Worker 0's start-of-round bookkeeping: window computation, termination
  // check, periodic claim-order re-sort.
  void Prologue();
  void RoundLoop(uint32_t worker);

  // The preset, fixed at construction.
  const char* const name_;
  const SchedulingMetric claim_metric_;  // What claim orders are sorted by.
  const bool lanes_tunable_;
  // True when the partition map assigns LPs to lanes (unison) rather than to
  // groups (hybrid ranks, barrier ranks).
  const bool lane_owned_;

  uint32_t groups_ = 1;
  uint32_t max_lanes_ = 1;
  uint32_t lanes_ = 1;
  uint32_t period_ = 1;

  ExecutorPool pool_;  // Threads spawned once at Setup, reused across runs.
  // The pool Run() actually uses: the borrowed external pool when one was
  // lent (Session::Fork), else pool_. Set at Setup.
  ExecutorPool* active_pool_ = nullptr;
  RoundSync sync_{this};
  std::unique_ptr<CombiningBarrier> barrier_;
  std::unique_ptr<Cursor[]> cursors_;

  // Window layout. order_ holds every group's claim order back to back
  // (group-major; group g owns [group_begin_[g], group_begin_[g + 1])), so
  // the trace records it as one list. lists_[w] is worker w's LP list for
  // phases 3 and 4; the lists partition all LPs.
  std::vector<uint32_t> order_;
  std::vector<uint32_t> group_begin_;
  std::vector<std::vector<uint32_t>> lists_;
  uint32_t layout_workers_ = 0;  // Worker count of the last build; 0 = stale.

  std::vector<uint64_t> last_round_ns_;  // Per-LP ByLastRoundTime estimates.
  std::vector<uint64_t> cost_buf_;
  std::vector<uint64_t> worker_events_;
  bool timing_ = false;  // Collect per-LP wall time this run.
};

}  // namespace unison

#endif  // UNISON_SRC_KERNEL_ROUND_KERNEL_H_
