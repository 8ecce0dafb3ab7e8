#include "src/kernel/sequential.h"

#include <algorithm>
#include <string>

namespace unison {

void SequentialKernel::Setup(const TopoGraph& graph,
                             const Partition& partition) {
  if (partition.num_lps != 1) {
    FatalConfigError("the sequential kernel runs one LP, got a partition of " +
                     std::to_string(partition.num_lps) +
                     " (use SingleLpPartition)");
  }
  Kernel::Setup(graph, partition);
}

RunResult SequentialKernel::Run(Time stop_time) {
  Lp* const lp = lps_[0].get();
  // Nothing here is tunable (no rounds, no pool), but sampling stamps the
  // window's tuning epoch into the summary like every other kernel.
  tuning_ = SampleTuning(1, /*parties_tunable=*/false);
  BeginWindow("sequential", 1);
  const uint64_t t0 = Profiler::NowNs();

  processed_events_ = 0;
  RunReason reason = RunReason::kStopRequested;
  while (!stop_requested()) {
    const Time npub = public_lp_->fel().NextTimestamp();
    const Time nloc = lp->fel().NextTimestamp();
    const Time next = std::min(npub, nloc);
    if (next.IsMax()) {
      reason = RunReason::kExhausted;
      break;
    }
    if (next >= stop_time) {
      reason = RunReason::kWindowReached;
      break;
    }
    if (npub <= nloc) {
      // Global events run before node events with the same timestamp, the
      // same order the parallel kernels' phase structure produces.
      processed_events_ += RunGlobalEvents(npub, stop_time);
    } else {
      processed_events_ += lp->ProcessUntil(std::min(npub, stop_time));
    }
  }

  const uint64_t wall_ns = Profiler::NowNs() - t0;
  if (Profiler* const rows = window_rows()) {
    // One executor that only processes: the whole window is P.
    rows->executor(0).processing_ns = wall_ns;
    rows->executor(0).events = processed_events_;
  }
  return FinishRun("sequential", 1, wall_ns, stop_time, reason);
}

}  // namespace unison
