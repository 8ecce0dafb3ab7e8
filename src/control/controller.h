// Trace-driven closed-loop controller: turns WindowTraceSegments into
// tunable updates.
//
// The kernel already measures everything a tuner needs — per-round P/S/M,
// barrier latency, futex parks, re-sort markers — but until this module every
// knob was frozen at MakeKernel. The controller closes the loop: it consumes
// each completed window's trace segment (never anything mid-round, so
// simulation results are bit-identical with tuning on or off — scheduling
// order, party count, and window slicing are all results-neutral by the
// session invariants established in PRs 4–6) and publishes at most one
// tunable epoch per window:
//
//   rule              | signal (from the segment)        | action
//   ------------------+----------------------------------+----------------------
//   oversubscribed    | parked/round > threshold         | parties -> fit the
//                     |                                  | machine; at the floor,
//                     |                                  | drop affinity to none
//   re-sort cadence   | per-round P imbalance drift      | halve/double
//                     | across re-sort stretches         | sched_period
//   window horizon    | P/(P+S) ratio of the window      | halve/double the
//                     |                                  | Run() slice bound
//
// The re-sort and window rules carry hysteresis: each direction must be
// observed for kRulePatience consecutive eligible windows before its epoch
// publishes, so a single noisy window cannot flip a knob.
//
// PARSIR's observation (PAPERS.md) is that exploiting the *actual*
// multiprocessor — not the nominal one — is the whole game; the
// oversubscription rule is exactly that, applied unattended.
#ifndef UNISON_SRC_CONTROL_CONTROLLER_H_
#define UNISON_SRC_CONTROL_CONTROLLER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/control/tunables.h"
#include "src/stats/trace.h"

namespace unison {

// The controller's settable thresholds: the ones a caller tunes per
// scenario. Everything else it acts on is a Controller constant below.
struct ControllerConfig {
  // Window-horizon rule on the P/(P+S) ratio. Below `ps_low` the windows are
  // sync-bound — halve the Run() slice so the controller gets to react more
  // often and short LBTS windows stop being amortized over a long horizon;
  // above Controller::kPsHigh (and not below `ps_low`) the slicing itself is
  // overhead — double it, reverting to unbounded past the cap. The two
  // directions are disjoint and shrink wins, so `ps_low` >= kPsHigh means
  // "always shrink" (1.0 keeps the observation cadence at its floor).
  double ps_low = 0.35;
  int64_t min_window_ps = 50'000'000;  // 50 us of simulated time.
  // Seed horizon installed when tuning is enabled (0 = leave unbounded). A
  // controller can only act at window boundaries; without an initial bound,
  // a single long Run() would give it exactly one observation, at the end.
  // Window slicing is results-neutral, so the seed only affects wall time.
  int64_t initial_window_ps = 1'000'000'000;  // 1 ms of simulated time.

  // Oversubscription rule: mean futex parks per round across the window's
  // barrier crossings. Parks mean workers waiting on descheduled peers —
  // the signature of more parties than the machine can run. A round crosses
  // the barrier once, so a run whose waiters all park at every crossing
  // shows parties - 1 parks per round: above the default from three
  // parties on, while a run that fits the machine catches its crossings in
  // the spin (under 0.03 parks per round on a 4-core host).
  double parks_per_round_high = 1.0;

  // Windows with fewer rounds than this carry too little signal to act on
  // (and sequential/null-message windows have no round records at all).
  uint32_t min_rounds = 8;

  // Ignored: speculative execution is gone (DESIGN.md §3k). It stays only
  // because perfbench/workload.cc's wan-spec workload sets it.
  int64_t spec_horizon_initial_ps = 2'000'000;
};

class Controller {
 public:
  // Re-sort cadence rule: mean per-stretch growth of the processing-time
  // imbalance (max-executor share over the ideal share, minus one). Above
  // kDriftShrink the claim order goes stale too fast between re-sorts —
  // halve the period; below kDriftGrow re-sorting buys nothing — double it,
  // within [kMinPeriod, kMaxPeriod]. The thresholds come from the claim-order
  // drift replay (bench_claim_drift): the offline payoff curve stays within
  // ~5% of the every-round oracle for small staleness and inflects past ~30%.
  static constexpr double kDriftShrink = 0.30;
  static constexpr double kDriftGrow = 0.05;
  static constexpr uint32_t kMinPeriod = 1;
  static constexpr uint32_t kMaxPeriod = 4096;
  // Window-horizon rule: above this P/(P+S) ratio the slicing is overhead.
  static constexpr double kPsHigh = 0.70;
  // Horizon cap past which a growing window bound reverts to 0 (unbounded):
  // one second of simulated time.
  static constexpr int64_t kMaxWindowPs = 1'000'000'000'000;
  // Oversubscription rule: the party count it never goes below.
  static constexpr uint32_t kMinParties = 1;
  // Hysteresis for the re-sort cadence and window-horizon rules: how many
  // consecutive eligible windows must show the same out-of-band signal
  // before that direction publishes. Thin windows (below min_rounds) neither
  // extend nor reset a streak.
  static constexpr uint32_t kRulePatience = 2;

  // `cpus` is the machine size the oversubscription rule fits the party
  // count to: the CPUs the process may use (Network passes
  // ProcessCpuCount()).
  Controller(const ControllerConfig& config, uint32_t cpus, TunableStore* store);

  // Consumes one completed window's segment; publishes at most one tunable
  // epoch. Returns true when something was published. Call only between
  // Run() windows.
  bool OnWindowEnd(const WindowTraceSegment& segment);

  // Audit log: one entry per published epoch.
  struct Decision {
    uint64_t epoch = 0;
    uint32_t window = 0;
    std::string rule;  // "oversubscribed" | "affinity-fallback" |
                       // "resort-shrink" | "resort-grow" |
                       // "window-shrink" | "window-grow" (comma-joined
                       // when several rules fire in one window).
    Tunables tunables;
  };
  const std::vector<Decision>& decisions() const { return decisions_; }

  const ControllerConfig& config() const { return config_; }

  // Mean growth of the per-round processing imbalance across the window's
  // re-sort stretches; exposed for tests and the trace tooling.
  static double ResortDrift(const WindowTraceSegment& segment);

 private:
  ControllerConfig config_;
  const uint32_t cpus_;
  TunableStore* const store_;
  std::vector<Decision> decisions_;
  // Hysteresis streaks: consecutive eligible windows showing each signal.
  uint32_t resort_shrink_streak_ = 0;
  uint32_t resort_grow_streak_ = 0;
  uint32_t window_shrink_streak_ = 0;
  uint32_t window_grow_streak_ = 0;
};

}  // namespace unison

#endif  // UNISON_SRC_CONTROL_CONTROLLER_H_
