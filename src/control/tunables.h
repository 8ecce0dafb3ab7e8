// Epoch-versioned live tunables: the mutable half of the two-tier config
// split.
//
// KernelConfig keeps only simulation identity — kernel kind, seed, partition,
// determinism — which must be frozen at MakeKernel because changing any of
// them mid-session would change *what* is simulated. Everything that merely
// changes *how fast* it is simulated (scheduler re-sort cadence, active party
// count, executor placement, and the Run() window horizon) lives here, in a
// TunableStore seeded from the KernelConfig at Finalize and re-published by
// the Controller (src/control/controller.h) between windows.
//
// Concurrency contract: the store is single-writer, window-boundary-only.
// Kernels sample it once per Run() window (Kernel::SampleTuning), before any
// worker is released; the controller publishes only after the pool has
// quiesced. Both sides run on the session thread, so plain fields suffice —
// the epoch exists for provenance (traces and snapshots), not for locking.
#ifndef UNISON_SRC_CONTROL_TUNABLES_H_
#define UNISON_SRC_CONTROL_TUNABLES_H_

#include <cstdint>

#include "src/kernel/engine/cpu_topology.h"

namespace unison {

struct Tunables {
  // Rounds between scheduler re-sorts; 0 keeps the kernel's own default
  // (config value, else ceil(log2 n), §4.3).
  uint32_t sched_period = 0;
  // Active party knob in the kernel's own units: workers for unison, lanes
  // per rank for hybrid. 0 keeps the config default; kernels whose party
  // count is structural (barrier/nullmsg: one per LP) ignore it. Values are
  // clamped to the config default so per-executor state sized at Finalize
  // (FlowMonitor shards) is never exceeded.
  uint32_t parties = 0;
  // Executor placement for the kernel's own pool; borrowed pools keep their
  // owner's placement.
  AffinityPolicy affinity = AffinityPolicy::kNone;
  // Upper bound on how much simulated time one Run() window may cover, in
  // picoseconds; 0 = unbounded (the caller's stop time is the horizon).
  // Network::Run slices its stop time by this when a controller is attached.
  int64_t max_window_ps = 0;
  // Speculative execution horizon: how far past the Eq. 2 LBTS bound a round
  // may optimistically extend, in picoseconds. 0 disables speculation (the
  // default; Network::Finalize seeds it only under speculation=auto). The
  // controller's spec rule widens/narrows it from the observed miss rate.
  // Results-neutral: a causality miss rolls back to the window checkpoint and
  // re-runs conservatively, so fingerprints and digests never change.
  int64_t spec_horizon_ps = 0;
};

class TunableStore {
 public:
  // Installs the config-derived defaults without consuming an epoch: a store
  // that was only ever seeded is indistinguishable (epoch 0) from "tuning
  // never acted", which is what makes static and tuned runs comparable.
  void Seed(const Tunables& t) { current_ = t; }

  // Publishes a new tunable set; each publish is one epoch. Call only at a
  // window boundary (no kernel Run() in flight).
  void Publish(const Tunables& t) {
    current_ = t;
    ++epoch_;
  }

  // Snapshot restore: reinstalls captured values *and* the captured epoch so
  // a fork resumes with the parent's learned settings, not the config
  // defaults frozen at capture time.
  void Restore(const Tunables& t, uint64_t epoch) {
    current_ = t;
    epoch_ = epoch;
  }

  const Tunables& Get() const { return current_; }
  uint64_t epoch() const { return epoch_; }

 private:
  Tunables current_;
  uint64_t epoch_ = 0;
};

}  // namespace unison

#endif  // UNISON_SRC_CONTROL_TUNABLES_H_
