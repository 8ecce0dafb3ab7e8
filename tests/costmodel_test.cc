// Parallel cost model: schedule replays over measured per-(round, LP) costs.
#include <gtest/gtest.h>

#include "src/costmodel/cost_model.h"
#include "tests/test_util.h"

namespace unison {
namespace {

// Hand-built trace: 3 rounds, 4 LPs, one LP persistently hot (skew).
std::vector<LpRoundCost> SkewedTrace() {
  std::vector<LpRoundCost> t;
  for (uint32_t r = 0; r < 3; ++r) {
    t.push_back({r, 0, 10, 10, 900});  // Hot LP.
    t.push_back({r, 1, 1, 1, 100});
    t.push_back({r, 2, 1, 1, 100});
    t.push_back({r, 3, 1, 1, 100});
  }
  return t;
}

TEST(CostModel, SequentialIsSumOfCosts) {
  ParallelCostModel m(SkewedTrace(), 4);
  EXPECT_EQ(m.rounds(), 3u);
  EXPECT_EQ(m.SequentialNs(), 3u * 1200u);
}

TEST(CostModel, BarrierMakespanIsMaxRankPerRound) {
  ParallelCostModel m(SkewedTrace(), 4);
  // Static map: LP i -> rank i (4 ranks).
  const ModelResult r = m.Barrier({0, 1, 2, 3}, 4, /*sync_overhead_ns=*/0);
  EXPECT_EQ(r.makespan_ns, 3u * 900u);  // Hot rank dominates every round.
  EXPECT_EQ(r.processing_ns, 3u * 1200u);
  // The cold ranks spend 800 of each 900ns round waiting.
  EXPECT_EQ(r.executor_s_ns[1], 3u * 800u);
  EXPECT_GT(r.SyncRatio(), 0.5);
}

TEST(CostModel, UnisonCannotSplitOneHotLpButBalancesRest) {
  ParallelCostModel m(SkewedTrace(), 4);
  const ModelResult r =
      m.Unison(4, SchedulingMetric::kByPendingEventCount, 1, /*overhead=*/0);
  // The 900ns LP lower-bounds each round; others overlap it.
  EXPECT_EQ(r.makespan_ns, 3u * 900u);
  // Now make the hot work divisible: 9 LPs of 100 each + 3 cold LPs.
  std::vector<LpRoundCost> fine;
  for (uint32_t r2 = 0; r2 < 3; ++r2) {
    for (uint32_t lp = 0; lp < 12; ++lp) {
      fine.push_back({r2, lp, 1, 1, 100});
    }
  }
  ParallelCostModel mf(fine, 12);
  const ModelResult rf =
      mf.Unison(4, SchedulingMetric::kByPendingEventCount, 1, 0);
  EXPECT_EQ(rf.makespan_ns, 3u * 300u);  // Perfect balance: 12*100/4.
  EXPECT_LT(rf.SyncRatio(), 0.01);
}

TEST(CostModel, NullMessageNeighborGating) {
  // Chain 0-1-2-3: LP 0 hot. Neighbour gating makes everyone wait for the
  // hot LP's previous round.
  std::vector<std::vector<uint32_t>> nbrs = {{1}, {0, 2}, {1, 3}, {2}};
  ParallelCostModel m(SkewedTrace(), 4);
  const ModelResult r = m.NullMessage(nbrs, 0);
  // Round 0 finishes at 900 for LP0, 100 for others. Round 1: LP1 gated by
  // LP0's 900. LP3 is 2 hops away: gated only in round 2.
  EXPECT_EQ(r.makespan_ns, 3u * 900u);
  EXPECT_GT(r.executor_s_ns[1], r.executor_s_ns[3]);
}

TEST(CostModel, LastRoundMetricExploitsTemporalLocality) {
  // Costs stable across rounds: ByLastRoundTime should match the ideal
  // schedule from round 1 on; slowdown close to 1.
  std::vector<LpRoundCost> t;
  for (uint32_t r = 0; r < 50; ++r) {
    for (uint32_t lp = 0; lp < 8; ++lp) {
      t.push_back({r, lp, 1, 1, 100 + lp * 130});
    }
  }
  ParallelCostModel m(t, 8);
  const ModelResult adaptive = m.Unison(4, SchedulingMetric::kByLastRoundTime, 1, 0);
  const ModelResult none = m.Unison(4, SchedulingMetric::kNone, 1, 0);
  const double a_adaptive = ParallelCostModel::SlowdownFactor(adaptive);
  const double a_none = ParallelCostModel::SlowdownFactor(none);
  EXPECT_LE(a_adaptive, a_none + 1e-9);
  EXPECT_LT(a_adaptive, 1.05);
}

TEST(CostModel, IntegratesWithInstrumentedRun) {
  // End to end: instrumented Unison run produces a trace the model accepts,
  // and the modeled 1-worker makespan equals the sequential cost.
  KernelConfig k;
  k.type = KernelType::kUnison;
  k.threads = 1;
  SimConfig cfg;
  cfg.kernel = k;
  cfg.profile_per_lp = true;
  Network net(cfg);
  FatTreeTopo topo = BuildFatTree(net, 4, 10000000000ULL, Time::Microseconds(3));
  net.Finalize();
  GeneratePermutation(net, topo.hosts, 100000, Time::Zero());
  net.Run(Time::Milliseconds(5));

  const auto trace = net.run_trace().lp_rounds();
  ASSERT_FALSE(trace.empty());
  ParallelCostModel m(trace, net.kernel().num_lps());
  EXPECT_GT(m.rounds(), 0u);
  const ModelResult one = m.Unison(1, SchedulingMetric::kByLastRoundTime,
                                   /*period=*/4, 0);
  EXPECT_EQ(one.makespan_ns, m.SequentialNs());
  const ModelResult four = m.Unison(4, SchedulingMetric::kByLastRoundTime, 4, 0);
  EXPECT_LT(four.makespan_ns, one.makespan_ns);
}

}  // namespace
}  // namespace unison
