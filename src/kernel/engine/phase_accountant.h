// Executor-local phase accounting for the parallel kernels' round loops.
//
// PhaseAccountant owns the wall-clock cursor each kernel used to hand-roll
// around every phase boundary: an interval is opened at the cursor, and each
// Close* call routes the elapsed time into exactly one of the P/S/M buckets —
// the executor-local total and the window's per-round row are written in the
// same call, with the same delta. The accounting invariant the profiler tests
// rely on ("per-round rows sum exactly to executor totals") therefore holds
// by construction: there is no code path that adds time to a total without
// the matching row, or vice versa. Both accounting bugs fixed in earlier PRs
// (the worker-0 P undercount and the unmeasured phase-2 gap) were instances
// of exactly that divergence, hand-duplicated per kernel.
//
// The destructor publishes the totals into the window's executor slot
// (RAII), so a kernel cannot forget the end-of-run flush either. All state is
// executor-private: the window's executor-major matrices are only ever
// written on this executor's own rows, keyed by the worker-local round index
// the kernel mirrors via BeginRound (see profiler.h on why that is safe).
#ifndef UNISON_SRC_KERNEL_ENGINE_PHASE_ACCOUNTANT_H_
#define UNISON_SRC_KERNEL_ENGINE_PHASE_ACCOUNTANT_H_

#include <cstdint>

#include "src/stats/profiler.h"

namespace unison {

class PhaseAccountant {
 public:
  // `rows` is the recorder's live window (RunTrace::rows()) and receives the
  // per-round rows and the final totals; nullptr when recording is off, and
  // then every call is a no-op — no clock is read.
  PhaseAccountant(uint32_t executor, Profiler* rows)
      : executor_(executor), rows_(rows) {}

  ~PhaseAccountant() { Flush(); }

  PhaseAccountant(const PhaseAccountant&) = delete;
  PhaseAccountant& operator=(const PhaseAccountant&) = delete;

  // Whether the clock is read: exactly when there are rows to write.
  bool timing() const { return rows_ != nullptr; }

  // (Re)opens the interval at "now", discarding any time since the last
  // close. Call at the top of each round iteration — and after any work that
  // must stay unattributed, such as the termination iteration's barrier wait,
  // which has no round row to land in (rows must keep summing to totals).
  void OpenInterval() {
    if (timing()) {
      cursor_ = Profiler::NowNs();
    }
  }

  // Keys subsequent per-round rows. Executors mirror the coordinator's round
  // index locally so their row writes stay private between barriers.
  void BeginRound(uint32_t round) { round_ = round; }

  // Close the open interval into one bucket and re-open it at "now".
  // Returns the interval length in nanoseconds (0 when not timing).
  uint64_t CloseProcessing() {
    return Close(&local_.processing_ns, &Profiler::AddRoundProcessing);
  }
  uint64_t CloseSync() {
    return Close(&local_.synchronization_ns, &Profiler::AddRoundSync);
  }
  uint64_t CloseMessaging() {
    return Close(&local_.messaging_ns, &Profiler::AddRoundMessaging);
  }

  void set_events(uint64_t events) { local_.events = events; }
  const ExecutorPhaseStats& local() const { return local_; }

  // Publishes the totals into the window's executor slot; idempotent, and
  // invoked by the destructor so the flush cannot be forgotten.
  void Flush() {
    if (rows_ != nullptr) {
      rows_->executor(executor_) = local_;
    }
  }

 private:
  uint64_t Close(uint64_t* bucket,
                 void (Profiler::*add_row)(uint32_t, uint32_t, uint64_t)) {
    if (!timing()) {
      return 0;
    }
    const uint64_t now = Profiler::NowNs();
    const uint64_t ns = now - cursor_;
    cursor_ = now;
    *bucket += ns;
    (rows_->*add_row)(executor_, round_, ns);
    return ns;
  }

  const uint32_t executor_;
  Profiler* const rows_;
  ExecutorPhaseStats local_{};
  uint64_t cursor_ = 0;
  uint32_t round_ = 0;
};

}  // namespace unison

#endif  // UNISON_SRC_KERNEL_ENGINE_PHASE_ACCOUNTANT_H_
