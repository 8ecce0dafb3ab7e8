#include "src/kernel/engine/round_sync.h"

#include <algorithm>
#include <cstdint>

#include "src/kernel/kernel.h"

namespace unison {

void RoundSync::BeginRun(const char* kernel_name, uint32_t executors, Time stop) {
  kernel_->BeginWindow(kernel_name, executors);
  recording_ = kernel_->recorder() != nullptr;
  stop_ = stop;
  lbts_ = Time::Zero();
  window_ = Time::Zero();
  globals_due_ = false;
  done_ = false;
  reason_ = RunReason::kExhausted;
  round_index_ = 0;
  reduced_min_ps_ = INT64_MAX;
  reduced_events_ = 0;
  reduced_stop_ = false;
  parks_baseline_ = 0;
  spec_enabled_ = false;
  spec_miss_ = false;
  reduced_spec_miss_ = false;
  spec_horizon_ps_ = 0;
  spec_rounds_ = 0;
  covered_ = Time::Zero();
}

void RoundSync::SeedMinFromLps() {
  for (uint32_t i = 0; i < kernel_->num_lps(); ++i) {
    reduced_min_ps_ =
        std::min(reduced_min_ps_, kernel_->lp(i)->fel().NextTimestamp().ps());
  }
}

void RoundSync::Absorb(const CombiningBarrier& barrier) {
  reduced_min_ps_ = barrier.reduced_min();
  reduced_events_ = barrier.reduced_count();
  reduced_stop_ = (barrier.reduced_flags() & CombiningBarrier::kStopFlag) != 0;
  reduced_spec_miss_ =
      (barrier.reduced_flags() & CombiningBarrier::kSpecMissFlag) != 0;
}

bool RoundSync::ComputeWindow() {
  const Time min_next = reduced_min_ps_ == INT64_MAX
                            ? Time::Max()
                            : Time::Picoseconds(reduced_min_ps_);
  const Time npub = kernel_->public_lp()->fel().NextTimestamp();
  if (spec_enabled_ && spec_rounds_ > 0) {
    // Miss checks, ahead of every termination check so an attempt that
    // speculated never commits through a hazard. (1) a worker's per-LP
    // arrival check flagged a violation; (2) a straggler global — scheduled
    // mid-round from an LP event — landed below the covered bound, where it
    // would observe speculative state; (3) a stop request: model-driven
    // stops must fire from a conservative execution to stop at the exact
    // conservative point, so the rollback re-runs and re-observes them.
    if (reduced_spec_miss_ || npub < covered_ || reduced_stop_ ||
        kernel_->stop_requested()) {
      done_ = true;
      spec_miss_ = true;
      return false;
    }
  }
  if (reduced_stop_ || kernel_->stop_requested()) {
    done_ = true;
    reason_ = RunReason::kStopRequested;
    return false;
  }
  if (min_next.IsMax() && npub.IsMax()) {
    done_ = true;
    reason_ = RunReason::kExhausted;
    return false;
  }
  if (std::min(min_next, npub) >= stop_) {
    // Events remain at or past the stop time: a window boundary, not
    // termination — the next Run() on this session picks them up.
    done_ = true;
    reason_ = RunReason::kWindowReached;
    return false;
  }
  const Time lookahead = kernel_->partition().lookahead;
  if (min_next.IsMax() || lookahead.IsMax()) {
    lbts_ = npub;
  } else {
    lbts_ = std::min(npub, min_next + lookahead);
  }
  window_ = std::min(lbts_, stop_);
  globals_due_ = npub <= lbts_ && !npub.IsMax();
  if (spec_enabled_) {
    if (!min_next.IsMax() && !lookahead.IsMax()) {
      // Optimistic extension: up to spec_horizon_ps past the Eq. 2 bound,
      // but never past the next global (all LP events below a global's
      // timestamp are processed before it executes, conservatively or not —
      // capping here keeps the global's observed state bit-identical) and
      // never past the caller's stop time.
      const Time bound = std::min(
          npub, min_next + lookahead + Time::Picoseconds(spec_horizon_ps_));
      const Time spec_window = std::min(bound, stop_);
      if (spec_window > window_) {
        window_ = spec_window;
        ++spec_rounds_;
      }
    }
    covered_ = std::max(covered_, window_);
  }
  return true;
}

bool RoundSync::SpecAllowsGlobals() const {
  if (!spec_enabled_ || spec_rounds_ == 0) {
    return true;
  }
  // Re-read the public FEL: phase 1 of this round may have scheduled a
  // global (Kernel::ScheduleGlobal from an LP event, mutex path) below the
  // covered bound. Such a straggler must not execute against speculative
  // state; skipping the phase leaves it pending, and the next ComputeWindow's
  // straggler check latches the miss.
  return kernel_->public_lp()->fel().NextTimestamp() >= covered_;
}

void RoundSync::CommitRound(uint64_t events_before) {
  if (recording_) {
    kernel_->trace_->BeginRound(round_index_, lbts_, window_, events_before);
  }
  ++round_index_;
}

void RoundSync::RecordClaimOrder(const std::vector<uint32_t>& order) {
  if (recording_) {
    kernel_->trace_->RecordClaimOrder(order);
  }
}

bool RoundSync::claim_orders_recorded() const {
  return recording_ && kernel_->trace_->record_claim_order;
}

void RoundSync::RecordBarrierWait(uint32_t round, uint64_t barrier_ns,
                                  uint64_t parks_cumulative) {
  if (!recording_) {
    return;
  }
  const uint64_t parked = parks_cumulative - parks_baseline_;
  parks_baseline_ = parks_cumulative;
  kernel_->trace_->RecordBarrier(round, barrier_ns, parked);
}

}  // namespace unison
