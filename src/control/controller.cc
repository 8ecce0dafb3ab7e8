#include "src/control/controller.h"

#include <algorithm>
#include <cstdint>
#include <utility>

namespace unison {

namespace {
// RoundImbalance (src/stats/trace.h) of the window's round `round`; false
// when the round has no usable row.
bool ImbalanceAt(const WindowTraceSegment& segment, uint32_t round, double* out) {
  return round < segment.round_p.size() &&
         RoundImbalance(segment.round_p[round], out);
}

// Hysteresis helper: `signal` observed this window extends the streak (and
// resets the opposite direction's); returns true — and restarts the streak —
// once it has held for kRulePatience consecutive eligible windows.
bool StreakFire(bool signal, uint32_t* streak, uint32_t* opposite) {
  if (!signal) {
    *streak = 0;
    return false;
  }
  *opposite = 0;
  if (++*streak < Controller::kRulePatience) {
    return false;
  }
  *streak = 0;
  return true;
}
}  // namespace

Controller::Controller(const ControllerConfig& config, uint32_t cpus,
                       TunableStore* store)
    : config_(config), cpus_(std::max(1u, cpus)), store_(store) {}

double Controller::ResortDrift(const WindowTraceSegment& segment) {
  // A stretch is a maximal run of rounds sharing one claim order (from one
  // re-sort to just before the next). Its drift is how much the imbalance
  // grew while the order went stale.
  const auto& records = segment.records;
  double total = 0.0;
  uint32_t stretches = 0;
  size_t i = 0;
  while (i < records.size()) {
    size_t j = i + 1;
    while (j < records.size() && !records[j].resorted) {
      ++j;
    }
    if (j - i >= 2) {
      double first = 0.0;
      double last = 0.0;
      if (ImbalanceAt(segment, records[i].round, &first) &&
          ImbalanceAt(segment, records[j - 1].round, &last)) {
        total += last - first;
        ++stretches;
      }
    }
    i = j;
  }
  return stretches == 0 ? 0.0 : total / stretches;
}

bool Controller::OnWindowEnd(const WindowTraceSegment& segment) {
  const RunSummary& sum = segment.summary;
  const uint64_t rounds = segment.records.size();
  if (rounds < std::max(1u, config_.min_rounds)) {
    // Too little signal — and the sequential/null-message kernels, which
    // have no synchronization rounds at all, land here every window. Thin
    // windows neither extend nor reset the hysteresis streaks.
    return false;
  }

  Tunables next = store_->Get();
  std::string rule;
  const auto fire = [&rule](const char* name) {
    if (!rule.empty()) {
      rule += ',';
    }
    rule += name;
  };

  const uint32_t knob = std::max(1u, sum.parties);
  const uint32_t executors = std::max(1u, sum.executors);

  // Rule 1 — oversubscription: futex parks at the reduction barrier mean
  // workers waiting on descheduled peers. Fit the party knob to the machine
  // first; at the floor, release the pins instead (a pinned worker sharing
  // its core with an unpinned stranger parks forever). Up to one executor
  // per CPU waiters spin before they park (WaitSpins), so parks there mean
  // a peer outlived the spin bound; past it every wait parks at once, and
  // the party count itself is the fault (DESIGN.md §3f).
  uint64_t parked = 0;
  for (const RoundTraceRecord& rec : segment.records) {
    parked += rec.parked;
  }
  if (static_cast<double>(parked) / static_cast<double>(rounds) >
      config_.parks_per_round_high) {
    uint32_t want = knob;
    if (executors > cpus_) {
      // Scale the knob so the *total* executor count fits the machine (the
      // knob is lanes-per-rank for hybrid, so knob != executors there).
      want = static_cast<uint32_t>(static_cast<uint64_t>(knob) * cpus_ /
                                   executors);
    } else {
      want = knob / 2;
    }
    want = std::max(kMinParties, want);
    if (want < knob) {
      next.parties = want;
      fire("oversubscribed");
    } else if (next.affinity != AffinityPolicy::kNone) {
      next.affinity = AffinityPolicy::kNone;
      fire("affinity-fallback");
    }
  }

  // Rule 2 — re-sort cadence: replace the static ceil(log2 n) of §4.3 with
  // the observed payoff. Fast-growing imbalance between re-sorts means the
  // order goes stale too quickly (shrink the period); flat imbalance means
  // re-sorting buys nothing (grow it). Each direction must hold for
  // kRulePatience consecutive windows before it publishes.
  bool any_resort = false;
  for (const RoundTraceRecord& rec : segment.records) {
    any_resort = any_resort || rec.resorted;
  }
  if (any_resort && executors > 1 && !segment.round_p.empty()) {
    const double drift = ResortDrift(segment);
    const uint32_t period = std::max(1u, sum.sched_period);
    if (StreakFire(drift > kDriftShrink && period > kMinPeriod,
                   &resort_shrink_streak_, &resort_grow_streak_)) {
      next.sched_period = std::max(kMinPeriod, period / 2);
      fire("resort-shrink");
    }
    if (StreakFire(drift < kDriftGrow && period < kMaxPeriod,
                   &resort_grow_streak_, &resort_shrink_streak_)) {
      next.sched_period = std::min(kMaxPeriod, period * 2);
      fire("resort-grow");
    }
  }

  // Rule 3 — window horizon: a sync-bound window (low P/(P+S)) gets a
  // shorter Run() slice so tuning reacts more often; a processing-bound one
  // sheds the slicing overhead again, reverting to unbounded past the cap.
  // Same hysteresis as rule 2. Grow also requires the ratio to clear
  // `ps_low`, so the two signals are disjoint and shrink wins: were both
  // raised by one window, each would zero the other's streak and neither
  // could ever publish.
  const uint64_t p_ns = sum.processing_ns;
  const uint64_t s_ns = sum.synchronization_ns;
  if (executors > 1 && p_ns + s_ns > 0) {
    const double ps_ratio =
        static_cast<double>(p_ns) / static_cast<double>(p_ns + s_ns);
    if (StreakFire(ps_ratio < config_.ps_low, &window_shrink_streak_,
                   &window_grow_streak_)) {
      const int64_t span = sum.window_stop_ps - sum.window_start_ps;
      const int64_t current =
          next.max_window_ps > 0
              ? next.max_window_ps
              : std::max<int64_t>(span, 2 * config_.min_window_ps);
      const int64_t want = std::max(config_.min_window_ps, current / 2);
      if (want != next.max_window_ps) {
        next.max_window_ps = want;
        fire("window-shrink");
      }
    }
    if (StreakFire(ps_ratio > kPsHigh && ps_ratio >= config_.ps_low &&
                       next.max_window_ps > 0,
                   &window_grow_streak_, &window_shrink_streak_)) {
      const int64_t want = next.max_window_ps * 2;
      next.max_window_ps = want > kMaxWindowPs ? 0 : want;
      fire("window-grow");
    }
  }

  if (rule.empty()) {
    return false;
  }
  store_->Publish(next);
  decisions_.push_back(
      Decision{store_->epoch(), sum.window_index, std::move(rule), next});
  return true;
}

}  // namespace unison
