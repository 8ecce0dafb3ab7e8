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
  done_ = false;
  reason_ = RunReason::kExhausted;
  round_index_ = 0;
  reduced_min_ps_ = INT64_MAX;
  reduced_events_ = 0;
  reduced_stop_ = false;
  parks_baseline_ = 0;
}

void RoundSync::FoldLpHeads() {
  for (uint32_t i = 0; i < kernel_->num_lps(); ++i) {
    reduced_min_ps_ =
        std::min(reduced_min_ps_, kernel_->lp(i)->fel().NextTimestamp().ps());
  }
}

void RoundSync::Absorb(const CombiningBarrier& barrier) {
  reduced_min_ps_ = barrier.reduced_min();
  reduced_events_ = barrier.reduced_count();
  reduced_stop_ = (barrier.reduced_flags() & CombiningBarrier::kStopFlag) != 0;
}

bool RoundSync::ComputeWindow() {
  const Time min_next = reduced_min_ps_ == INT64_MAX
                            ? Time::Max()
                            : Time::Picoseconds(reduced_min_ps_);
  const Time npub = kernel_->public_lp()->fel().NextTimestamp();
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
  return true;
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
