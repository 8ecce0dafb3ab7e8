// The coordinator prologue of the round kernel.
//
// RoundSync holds the start-of-round logic of the one round loop
// (round_kernel.h) that the barrier, Unison, and hybrid presets share: fold
// the workers' min-reduction into the Eq. 2 LBTS, run the stop/termination
// check, and open the recorded round, parameterized by kernel name — the
// cross-kernel time-composition comparisons (Figs. 5b/9b/13) are only
// trustworthy because every preset runs this one audited copy.
//
// The reduction inputs no longer arrive through a shared CAS line: workers
// contribute their partial {min, event count, stop flag} to the
// CombiningBarrier's fused arrival pass, and the coordinator Absorb()s the
// tree's published result in the end-of-round crossing's completion step.
// The coordinator is whichever worker completes that crossing (the caller,
// for round 0's prologue); every method here runs there, except
// RecordBarrierWait, which worker 0 calls after the crossing releases.
#ifndef UNISON_SRC_KERNEL_ENGINE_ROUND_SYNC_H_
#define UNISON_SRC_KERNEL_ENGINE_ROUND_SYNC_H_

#include <cstdint>
#include <vector>

#include "src/core/time.h"
#include "src/kernel/kernel.h"
#include "src/sched/combining_barrier.h"

namespace unison {

// Cache-line aligned: the coordinator rewrites this state every round
// (prologue, Absorb) while the other workers read it, so no neighbouring
// member of the round kernel may share its lines — a layout that put the
// kernel's barrier_ pointer, read at every crossing, on RoundSync's last line
// measured ~5% slower on the sync-bound WAN ring.
class alignas(64) RoundSync {
 public:
  explicit RoundSync(Kernel* kernel) : kernel_(kernel) {}

  RoundSync(const RoundSync&) = delete;
  RoundSync& operator=(const RoundSync&) = delete;

  // Once per Run window that runs rounds: opens the window under
  // `kernel_name` (Kernel::BeginWindow — stale stop request, recorder),
  // caches the recording gate, and resets the round/termination state.
  // Session state — LP clocks, FELs, mailboxes — is deliberately untouched:
  // a window continues the session, it does not restart it.
  void BeginRun(const char* kernel_name, uint32_t executors, Time stop);

  // Lowers the reduced minimum to every LP's next event timestamp. Workers
  // contribute partial minima at the *end* of each round, so the first
  // prologue needs this instead (for the barrier preset it replaces stock
  // barrier sync's leading all-reduce); and globals insert into FELs after
  // the reduction, so the completion that ran them calls it again.
  void FoldLpHeads();

  // Copies the fused reduction the barrier published on its last release —
  // min next-event timestamp, summed event count, OR'd stop flags — into the
  // coordinator's window state. Call after the reduction barrier, before
  // ComputeWindow.
  void Absorb(const CombiningBarrier& barrier);

  // Folds the reduced minimum into the Eq. 2 LBTS and runs the
  // stop/termination check. Returns false — and latches done() with a
  // reason() — when the window is over. "Window boundary reached" (events
  // remain past the stop time; the session can continue) is distinguished
  // from genuine termination (every FEL empty, or an early stop request).
  bool ComputeWindow();

  // Opens round round_index(): records it when recording, then advances the
  // index. `events_before` is the kernel's live event count.
  void CommitRound(uint64_t events_before);

  // Marks the round just committed as re-sorted and attaches its claim
  // order, which the caller computes only when claim_orders_recorded().
  void RecordClaimOrder(const std::vector<uint32_t>& order);
  // Whether this window records claim orders (RunTrace::record_claim_order).
  bool claim_orders_recorded() const;

  // Trace hook for the end-of-round crossing: worker 0's observed
  // arrive-to-release latency plus the barrier's cumulative park counter
  // (converted to a per-round delta here). Attaches to round `round`: by the
  // time worker 0 returns from the crossing, its completion has already
  // committed the next round. Gated on recording().
  void RecordBarrierWait(uint32_t round, uint64_t barrier_ns,
                         uint64_t parks_cumulative);
  // Baselines the park-delta accounting; call once after BeginRun with the
  // barrier's current cumulative count.
  void SetParkBaseline(uint64_t parks_cumulative) {
    parks_baseline_ = parks_cumulative;
  }

  // Whether this window is recorded (Kernel::recorder()), cached at BeginRun.
  bool recording() const { return recording_; }
  bool done() const { return done_; }
  // Why done() latched; meaningful only once it has.
  RunReason reason() const { return reason_; }
  Time stop() const { return stop_; }
  Time lbts() const { return lbts_; }
  Time window() const { return window_; }
  uint32_t round_index() const { return round_index_; }
  // Event count from the last Absorb(): the cross-worker total as of the
  // reduction barrier — the live events_before input to CommitRound.
  uint64_t reduced_events() const { return reduced_events_; }

 private:
  Kernel* const kernel_;
  Time stop_;
  Time lbts_;
  Time window_;
  // Written by the coordinator between barriers, read by every worker after
  // the next barrier; the barrier's acquire/release ordering publishes it.
  bool done_ = false;
  RunReason reason_ = RunReason::kExhausted;
  bool recording_ = false;
  uint32_t round_index_ = 0;
  // Last absorbed reduction (coordinator-only).
  int64_t reduced_min_ps_ = INT64_MAX;
  uint64_t reduced_events_ = 0;
  bool reduced_stop_ = false;
  uint64_t parks_baseline_ = 0;
};

}  // namespace unison

#endif  // UNISON_SRC_KERNEL_ENGINE_ROUND_SYNC_H_
