// The round kernel: one four-phase LBTS loop (Fig. 7) behind the barrier
// baseline (§2.3), Unison (§4, §5), and the hybrid kernel (§5.2).
//
// Executors are laid out as G groups of L lanes; worker ids are group-major
// (worker = group * L + lane), so compact placement keeps a group's lanes on
// one package. Each worker owns a list of its group's LPs: the ones it ran
// last round (the first round starts from the preset's setup placement, a
// PartitionMap). Each round has four phases:
//   1. Process events  — each worker claims its own list from the head, in
//                        LPT order, then steals from the tails of the other
//                        lanes' lists of its group, never a victim's last
//                        unclaimed LP (ClaimRange), and runs each claimed LP
//                        up to the window bound.
//   2. Global events   — worker 0 alone runs public-LP events on the window
//                        edge; topology changes recompute the lookahead here.
//   3. Receive events  — each worker drains the mailboxes of the LPs it
//                        claimed this round, which become its next own list.
//   4. Update window   — each worker folds the same LPs into a local minimum
//                        and contributes it, with its event count and stop
//                        vote, to the end-of-round barrier's fused reduction.
//                        The party that completes that crossing absorbs the
//                        result and runs the next round's prologue (Eq. 2
//                        LBTS, re-sort, claim-range reset; RoundSync) before
//                        it releases the others.
// Under speculation the phase-4 fold doubles as the causality-miss check.
//
// A round crosses the barrier twice: after phase 1, and at the end of round.
// Phase 2 adds a third crossing only in rounds where a global event is due
// (RoundSync::globals_due, or an LP event that scheduled one mid-round);
// otherwise worker 0 has nothing to run and the others go straight to phase
// 3. Phases 3 and 4 need no crossing between them, because each worker folds
// exactly the LPs it drained, and round 0's prologue runs on the caller
// before the workers start, so no crossing opens a round or ends the run.
//
// The three kernels are presets of that loop, picked from KernelType:
//
//   preset   groups x lanes  owners        first own list      re-sorted by
//   unison   1 x W           W lanes,      owner % live W      the metric
//                            strided
//   hybrid   R x L           R ranks, by   lane-strided slice  last-round
//                            first node    of the rank's LPs   time
//   barrier  N x 1 (N LPs)   N ranks,      the rank's LPs      never
//                            LP r on r     (ascending)
//
// Unison and hybrid lanes are a live tunable; barrier's party count is fixed,
// and with one lane per group its ranks never steal. Hybrid lanes steal only
// within their rank. Barrier ranks exchange cross-LP events through each
// target's locked inbox — mailboxes are left unwired, so every send takes
// Kernel's overflow fallback — which reproduces MPI receive-order
// indeterminism when the run is non-deterministic (Fig. 11). Stock barrier
// sync all-reduces *before* each round; here that reduction is the
// end-of-round one, and the leading reduce is RoundSync::SeedMinFromLps.
//
// A window with one live worker (unison at 1 thread, hybrid 1 x 1, barrier
// with one LP, or lanes tuned down to 1) and a positive lookahead runs no
// rounds unless it records per-LP round costs. The caller alone steps the LP
// with the earliest head — its next event, lowered by the events waiting in
// its inboxes — after draining its inboxes, up to
//   min(other LPs' heads + L, its own head + 2L, next global, stop):
// any later send from another LP lands at or past its head + L, and a reply
// to this step's own sends at or past this head + 2L, so every event the
// step runs is final. Sends stay in the outboxes until their target's next
// step; each step lowers its targets' heads from the events it appended.
// Every inbox is drained before globals run and when the window ends. Such a
// window never speculates, crosses no barrier and counts 0 rounds.
#ifndef UNISON_SRC_KERNEL_ROUND_KERNEL_H_
#define UNISON_SRC_KERNEL_ROUND_KERNEL_H_

#include <atomic>
#include <memory>
#include <vector>

#include "src/kernel/engine/executor_pool.h"
#include "src/kernel/engine/round_sync.h"
#include "src/kernel/kernel.h"
#include "src/partition/partition_map.h"
#include "src/sched/claim_range.h"
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

  bool RunsSpeculativeRounds() const override { return true; }

  ExecutorPool* executor_pool() override { return active_pool_; }

  // Barrier crossings completed since the barrier was built, at Setup or in
  // the last window whose worker count changed (test hook: a run of R rounds
  // makes 2R when no global is ever due).
  uint32_t barrier_crossings() const { return shared_.barrier->generation(); }

  uint64_t LiveEvents() const override {
    uint64_t sum = 0;
    for (uint32_t w = 0; w < live_workers_; ++w) {
      sum += shared_.workers[w].events;
    }
    return sum;
  }

  // The preset's setup placement: which group (barrier or hybrid rank,
  // unison lane slot) each LP's first own list belongs to. Fixed from Setup.
  const PartitionMap& partition_map() const { return pmap_; }

  // Per-LP wall time of the last round that ran each LP: the
  // last-round-time metric's re-sort input, written while the metric is on
  // (always for hybrid) or the window is recorded.
  const std::vector<uint64_t>& last_round_ns() const { return last_round_ns_; }

 protected:
  void WireMailboxes() override;
  void ScheduleRemote(Lp* from, LpId target, Event ev) override;

 private:
  // A worker's own list as the lanes of its group see it in phase 1: the
  // claim range and the list it indexes, on one cache line — thieves read
  // both, and nothing else is written there during the phase.
  struct alignas(64) ClaimLine {
    ClaimRange range;
    const uint32_t* lps = nullptr;
  };
  static_assert(sizeof(ClaimLine) == 64, "a claim line is one cache line");

  // One worker's slot: its claim line, then the state only it writes between
  // crossings. The end-of-round completion reads and re-sorts `list` and
  // resets the claim line. `steals` and `messages` are written once, when
  // the worker leaves the window.
  struct alignas(64) Worker {
    ClaimLine claim;
    std::vector<uint32_t> list;     // This round's own list.
    std::vector<uint32_t> claimed;  // This round's claims, in claim order.
    uint64_t events = 0;            // Window events, published at crossings.
    uint64_t steals = 0;            // Claims from another lane's list.
    uint64_t messages = 0;          // Events drained from inbound mailboxes.
  };

  // Read by every worker at every claim and crossing, written only at Setup
  // and between windows: on lines of their own, so that no member written
  // per round can share them.
  struct alignas(64) Shared {
    std::unique_ptr<CombiningBarrier> barrier;
    std::unique_ptr<Worker[]> workers;  // MaxExecutors() slots.
    const std::unique_ptr<Lp>* lps = nullptr;  // Kernel::lps_.data().
    uint32_t lanes = 1;  // Live lanes per group.
    // Collect per-LP wall time this run: recording, or the last-round-time
    // metric.
    bool timing = false;
  };

  // Runs the window on the caller alone, step by step: each step drains the
  // LP with the earliest head and runs it to its own safe bound. Returns why
  // the window ended.
  RunReason StepLoop(Time stop);

  // Rebuilds the workers' own lists from the setup placement. Runs at a
  // window boundary, only when the live worker count changed since the last
  // build; otherwise each window continues from the lists the last one ended
  // with.
  void BuildLayout(uint32_t workers);
  // The start-of-round bookkeeping: window computation, termination check,
  // periodic re-sort, round record, claim-range reset. Round 0's runs on the
  // caller before the workers start; every later one runs in the completion
  // step of the previous round's end-of-round crossing.
  void Prologue();
  void RoundLoop(uint32_t worker);

  // The preset, fixed at construction.
  const char* const name_;
  const SchedulingMetric claim_metric_;  // What own lists are sorted by.
  const bool lanes_tunable_;
  // True when the setup placement assigns LPs to lanes (unison) rather than
  // to groups (hybrid ranks, barrier ranks).
  const bool lane_owned_;

  uint32_t groups_ = 1;
  uint32_t max_lanes_ = 1;
  uint32_t live_workers_ = 0;  // groups_ * live lanes; 0 before any Run().
  uint32_t period_ = 1;

  ExecutorPool pool_;  // Threads spawned once at Setup, reused across runs.
  // The pool Run() actually uses: the borrowed external pool when one was
  // lent (Session::Fork), else pool_. Set at Setup.
  ExecutorPool* active_pool_ = nullptr;
  RoundSync sync_{this};
  Shared shared_;
  static_assert(sizeof(Shared) == 64, "the fixed pointers fill one line");
  uint32_t layout_workers_ = 0;  // Worker count of the last build; 0 = stale.
  PartitionMap pmap_;            // The setup placement; see partition_map().

  std::vector<uint64_t> last_round_ns_;  // Per-LP ByLastRoundTime estimates.
  std::vector<uint64_t> cost_buf_;
  std::vector<uint32_t> claim_order_;  // Recorded group priority orders.

  // Step loop state: per-LP heads (lower bounds on each LP's next event, in
  // ps), the stepped LP's outbox sizes before its step, and whether a send
  // took the overflow box since the heads were last re-read.
  std::vector<int64_t> head_ps_;
  std::vector<size_t> sent_before_;
  bool overflowed_ = false;
};

}  // namespace unison

#endif  // UNISON_SRC_KERNEL_ROUND_KERNEL_H_
