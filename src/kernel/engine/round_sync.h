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

  // Once per Run window (and per speculative retry): opens the window under
  // `kernel_name` (Kernel::BeginWindow — stale stop request, recorder),
  // caches the recording gate, and resets the round/termination state.
  // Session state — LP clocks, FELs, mailboxes — is deliberately untouched:
  // a window continues the session, it does not restart it.
  void BeginRun(const char* kernel_name, uint32_t executors, Time stop);

  // Seeds the reduced minimum with every LP's next event timestamp: workers
  // contribute partial minima at the *end* of each round, so the first
  // prologue needs this instead (for the barrier preset it replaces stock
  // barrier sync's leading all-reduce).
  void SeedMinFromLps();

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
  //
  // Under speculation (EnableSpeculation after BeginRun) the round bound may
  // additionally extend up to spec_horizon_ps past the conservative LBTS —
  // capped at the public LP's next event, so a pending global never executes
  // with LP state it could not have seen conservatively. lbts() itself stays
  // the conservative Eq. 2 value. ComputeWindow also runs the miss checks: a
  // worker-flagged causality violation (kSpecMissFlag), a straggler global
  // that landed below the already-covered bound, or a stop request arriving
  // after optimistic rounds ran, each latch spec_miss() and end the attempt
  // without a valid reason() — the kernel then rolls back and re-runs the
  // window conservatively.
  bool ComputeWindow();

  // Arms speculation for this attempt; call right after BeginRun, only when
  // the window checkpoint was captured (Kernel::BeginSpeculativeWindow).
  void EnableSpeculation(int64_t horizon_ps) {
    spec_enabled_ = horizon_ps > 0;
    spec_horizon_ps_ = horizon_ps;
  }

  // True once at least one round of this attempt extended past the LBTS:
  // workers gate the per-LP arrival check on it (in conservative rounds the
  // check is vacuous — arrivals always land at or above the round's LBTS).
  // Coordinator-written between barriers, worker-read after them.
  bool spec_active() const { return spec_enabled_ && spec_rounds_ > 0; }

  // Phase-2 guard, coordinator-only, before RunGlobalEvents: false when a
  // straggler global (scheduled mid-round from an LP event) landed below the
  // covered bound — executing it would observe speculative state, and its
  // side effects (topology mutations) are not all in the checkpoint. The
  // caller skips the global phase; the next ComputeWindow latches the miss.
  bool SpecAllowsGlobals() const;

  // Whether this attempt ended in a causality miss; the kernel's retry loop
  // restores the checkpoint and re-runs conservatively when set.
  bool spec_miss() const { return spec_miss_; }
  // Rounds of this attempt whose bound extended past the conservative LBTS.
  uint32_t spec_rounds() const { return spec_rounds_; }

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
  // Whether the public FEL held an event at or below lbts() when the window
  // was computed, i.e. the round's global phase has work before any LP event
  // schedules one.
  bool globals_due() const { return globals_due_; }
  uint32_t round_index() const { return round_index_; }
  // Event count from the last Absorb(): the cross-worker total as of the
  // reduction barrier — the live events_before input to CommitRound.
  uint64_t reduced_events() const { return reduced_events_; }

 private:
  Kernel* const kernel_;
  Time stop_;
  Time lbts_;
  Time window_;
  bool globals_due_ = false;
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
  // Speculation state (reset by BeginRun, armed by EnableSpeculation).
  // covered_ is the maximum round bound issued this attempt — the watermark
  // the straggler and global-phase guards compare the public FEL against.
  bool spec_enabled_ = false;
  bool spec_miss_ = false;
  bool reduced_spec_miss_ = false;
  int64_t spec_horizon_ps_ = 0;
  uint32_t spec_rounds_ = 0;
  Time covered_;
};

}  // namespace unison

#endif  // UNISON_SRC_KERNEL_ENGINE_ROUND_SYNC_H_
