// Claim-order drift: what a stale LPT claim order costs, as a function of
// the re-sort period.
//
// The kernel re-sorts its LPT claim order every sched_period rounds; between
// re-sorts workers claim by a stale order. The replay is the parallel cost
// model's Unison schedule under the kernel's default metric
// (ParallelCostModel::Unison with kByLastRoundTime and period k): claims
// start in id order and re-sort every k rounds on the *previous* round's
// costs (cost descending, id ascending), while the model's round_ideal_ns is
// the clairvoyant order re-sorted every round on the true costs. The mean
// per-round ratio of the two makespans, as a function of k, is the payoff
// curve that seeds the controller's drift thresholds and lets
// bench_claim_drift check the paper's ceil(log2 n) default against measured
// data.
//
// Costs are abstract units; the traced bench feeds per-round event counts
// (deterministic across runs), tests feed synthetic matrices.
#ifndef UNISON_BENCH_CLAIM_DRIFT_H_
#define UNISON_BENCH_CLAIM_DRIFT_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/costmodel/cost_model.h"

namespace unison {

struct DriftReplayPoint {
  uint32_t staleness = 1;       // Rounds between re-sorts (k).
  double makespan_ratio = 1.0;  // Mean per-round stale/oracle makespan.
};

// Replays `costs` ([round][lp] nonnegative units) on `workers` parallel
// executors for each staleness in `stalenesses`: the mean of
// round_makespan_ns / round_ideal_ns over the rounds whose ideal is nonzero
// (rounds with no work to schedule are skipped). Returns one point per
// requested staleness, in input order. A pure function of its inputs.
inline std::vector<DriftReplayPoint> ReplayClaimOrderDrift(
    const std::vector<std::vector<uint64_t>>& costs, uint32_t workers,
    const std::vector<uint32_t>& stalenesses) {
  const uint32_t lps = costs.empty() ? 0 : static_cast<uint32_t>(costs[0].size());
  std::vector<LpRoundCost> cells;
  cells.reserve(costs.size() * lps);
  for (uint32_t r = 0; r < costs.size(); ++r) {
    for (uint32_t lp = 0; lp < lps; ++lp) {
      cells.push_back(LpRoundCost{r, lp, 0, 0, costs[r][lp]});
    }
  }
  const ParallelCostModel model(cells, lps);
  std::vector<DriftReplayPoint> curve;
  curve.reserve(stalenesses.size());
  for (uint32_t k : stalenesses) {
    k = std::max(1u, k);
    const ModelResult run = model.Unison(
        std::max(1u, workers), SchedulingMetric::kByLastRoundTime, k, 0);
    double ratio_sum = 0.0;
    uint32_t counted = 0;
    for (size_t r = 0; r < run.round_ideal_ns.size(); ++r) {
      if (run.round_ideal_ns[r] == 0) {
        continue;  // Nothing to schedule this round.
      }
      ratio_sum += static_cast<double>(run.round_makespan_ns[r]) /
                   static_cast<double>(run.round_ideal_ns[r]);
      ++counted;
    }
    curve.push_back(
        DriftReplayPoint{k, counted == 0 ? 1.0 : ratio_sum / counted});
  }
  return curve;
}

// Largest staleness whose makespan ratio stays within `tolerance` of the
// curve's smallest-staleness baseline (the freshest order the kernel can
// actually have: one round old). Falls back to the baseline's staleness when
// no larger one is within tolerance, and to 1 for an empty curve.
inline uint32_t RecommendPeriod(const std::vector<DriftReplayPoint>& curve,
                                double tolerance) {
  if (curve.empty()) {
    return 1;
  }
  const DriftReplayPoint& base = *std::min_element(
      curve.begin(), curve.end(),
      [](const DriftReplayPoint& a, const DriftReplayPoint& b) {
        return a.staleness < b.staleness;
      });
  uint32_t best = base.staleness;
  for (const DriftReplayPoint& pt : curve) {
    if (pt.makespan_ratio <= base.makespan_ratio + tolerance &&
        pt.staleness > best) {
      best = pt.staleness;
    }
  }
  return best;
}

}  // namespace unison

#endif  // UNISON_BENCH_CLAIM_DRIFT_H_
