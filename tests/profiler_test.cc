// Profiler plumbing: per-executor, per-round and per-LP records.
#include <gtest/gtest.h>

#include "src/stats/profiler.h"
#include "src/stats/trace.h"
#include "tests/test_util.h"

namespace unison {
namespace {

TEST(Profiler, AccumulatesExecutorPhases) {
  Profiler p;
  p.BeginRun(3);
  p.executor(0).processing_ns = 100;
  p.executor(1).synchronization_ns = 50;
  p.executor(2).messaging_ns = 25;
  EXPECT_EQ(p.TotalProcessingNs(), 100u);
  EXPECT_EQ(p.TotalSyncNs(), 50u);
  EXPECT_EQ(p.TotalMessagingNs(), 25u);
}

TEST(Profiler, RoundRecordsGrowPerRound) {
  Profiler p;
  p.BeginRun(2);
  p.BeginRound();
  p.AddRoundProcessing(0, 0, 10);
  p.AddRoundSync(1, 0, 20);
  p.BeginRound();
  p.AddRoundProcessing(1, 1, 30);
  EXPECT_EQ(p.rounds(), 2u);
  ASSERT_EQ(p.round_processing_ns().size(), 2u);
  EXPECT_EQ(p.round_processing_ns()[0][0], 10u);
  EXPECT_EQ(p.round_sync_ns()[0][1], 20u);
  EXPECT_EQ(p.round_processing_ns()[1][1], 30u);
  // Executors that recorded nothing for a round read as zero in the
  // round-major view (rows are padded, not ragged).
  EXPECT_EQ(p.round_processing_ns()[1][0], 0u);
  EXPECT_EQ(p.round_sync_ns()[1][0], 0u);
}

TEST(Profiler, RoundWritesAccumulateIntoSameSlot) {
  // Executors add several deltas against the same (executor, round) key —
  // e.g. the three barrier waits of one Unison round — and the slot sums them.
  Profiler p;
  p.BeginRun(1);
  p.BeginRound();
  p.AddRoundSync(0, 0, 5);
  p.AddRoundSync(0, 0, 7);
  p.AddRoundProcessing(0, 0, 11);
  p.AddRoundProcessing(0, 0, 13);
  EXPECT_EQ(p.round_sync_ns()[0][0], 12u);
  EXPECT_EQ(p.round_processing_ns()[0][0], 24u);
}

TEST(Profiler, MergedLpRoundsSortedByRoundThenLp) {
  Profiler p;
  p.per_lp = true;
  p.BeginRun(2);
  p.AddLpRound(0, {2, 1, 5, 5, 500});
  p.AddLpRound(1, {1, 3, 2, 2, 200});
  p.AddLpRound(0, {1, 0, 1, 1, 100});
  const auto merged = p.MergedLpRounds();
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].round, 1u);
  EXPECT_EQ(merged[0].lp, 0u);
  EXPECT_EQ(merged[1].round, 1u);
  EXPECT_EQ(merged[1].lp, 3u);
  EXPECT_EQ(merged[2].round, 2u);
}

TEST(Profiler, UnisonRunPopulatesAllPhases) {
  KernelConfig k;
  k.type = KernelType::kUnison;
  k.threads = 2;
  SimConfig cfg;
  cfg.kernel = k;
  cfg.profile_per_lp = true;
  Network net(cfg);
  FatTreeTopo topo = BuildFatTree(net, 4, 10000000000ULL, Time::Microseconds(3));
  net.Finalize();
  GeneratePermutation(net, topo.hosts, 50000, Time::Zero());
  net.Run(Time::Milliseconds(5));

  const RunTrace& p = net.run_trace();
  ASSERT_EQ(p.executors().size(), 2u);
  EXPECT_GT(p.summary().processing_ns, 0u);
  EXPECT_GT(p.summary().synchronization_ns, 0u);
  EXPECT_GT(p.round_processing_ns().size(), 0u);
  EXPECT_EQ(p.round_processing_ns().size(), net.kernel().rounds());
  const auto merged = p.lp_rounds();
  EXPECT_FALSE(merged.empty());
  uint64_t trace_events = 0;
  for (const auto& c : merged) {
    trace_events += c.events;
  }
  // The per-LP trace accounts for every event a claimed LP executed; global
  // events (none here) are the only exception.
  EXPECT_EQ(trace_events, net.kernel().processed_events());
}

// The accounting invariant behind Figs. 5b/9b: summing an executor's
// per-round P/S/M rows reproduces its end-of-run totals. PhaseAccountant
// routes each closed interval's exact delta into both the executor
// accumulator and the per-round matrix in the same call, so this holds with
// equality — by construction, for every kernel on the engine. A regression
// here means a phase's time stopped reaching the per-round matrix (the old
// worker-0 phase-2 undercount) or is counted twice.
void CheckRoundRowsSumToTotals(const RunTrace& p, uint32_t executors) {
  const auto rp = p.round_processing_ns();
  const auto rs = p.round_sync_ns();
  const auto rm = p.round_messaging_ns();
  ASSERT_EQ(rs.size(), rp.size());
  ASSERT_EQ(rm.size(), rp.size());
  std::vector<uint64_t> p_sum(executors, 0);
  std::vector<uint64_t> s_sum(executors, 0);
  std::vector<uint64_t> m_sum(executors, 0);
  for (const auto& row : rp) {
    ASSERT_EQ(row.size(), executors);
    for (uint32_t w = 0; w < executors; ++w) {
      p_sum[w] += row[w];
    }
  }
  for (const auto& row : rs) {
    for (uint32_t w = 0; w < executors; ++w) {
      s_sum[w] += row[w];
    }
  }
  for (const auto& row : rm) {
    ASSERT_EQ(row.size(), executors);
    for (uint32_t w = 0; w < executors; ++w) {
      m_sum[w] += row[w];
    }
  }
  for (uint32_t w = 0; w < executors; ++w) {
    EXPECT_EQ(p_sum[w], p.executors()[w].processing_ns) << "executor " << w;
    EXPECT_EQ(s_sum[w], p.executors()[w].synchronization_ns) << "executor " << w;
    EXPECT_EQ(m_sum[w], p.executors()[w].messaging_ns) << "executor " << w;
  }
}

// `recording_switch` is the SimConfig switch that turns the recorder on: a
// trace export, or per-LP costs alone. Either way the window keeps its rows.
void RunAndCheckRoundRows(const KernelConfig& k, PartitionMode partition,
                          uint32_t executors, bool SimConfig::*recording_switch) {
  SCOPED_TRACE(recording_switch == &SimConfig::trace ? "trace" : "profile_per_lp");
  SimConfig cfg;
  cfg.kernel = k;
  cfg.partition = partition;
  cfg.*recording_switch = true;
  Network net(cfg);
  FatTreeTopo topo = BuildFatTree(net, 4, 10000000000ULL, Time::Microseconds(3));
  if (partition == PartitionMode::kManual) {
    net.SetManualPartition(4, FatTreePodPartition(topo, net.num_nodes()));
  }
  net.Finalize();
  GeneratePermutation(net, topo.hosts, 50000, Time::Zero());
  net.Run(Time::Milliseconds(5));
  ASSERT_EQ(net.run_trace().executors().size(), executors);
  CheckRoundRowsSumToTotals(net.run_trace(), executors);
}

constexpr bool SimConfig::*kRecordingSwitches[] = {&SimConfig::trace,
                                                   &SimConfig::profile_per_lp};

TEST(Profiler, UnisonRoundRowsSumToExecutorTotals) {
  KernelConfig k;
  k.type = KernelType::kUnison;
  k.threads = 2;
  for (bool SimConfig::*sw : kRecordingSwitches) {
    RunAndCheckRoundRows(k, PartitionMode::kAuto, 2, sw);
  }
}

TEST(Profiler, HybridRoundRowsSumToExecutorTotals) {
  KernelConfig k;
  k.type = KernelType::kHybrid;
  k.ranks = 2;
  k.threads = 2;  // 2 ranks x 2 lanes = 4 executors.
  for (bool SimConfig::*sw : kRecordingSwitches) {
    RunAndCheckRoundRows(k, PartitionMode::kAuto, 4, sw);
  }
}

TEST(Profiler, BarrierRoundRowsSumToExecutorTotals) {
  KernelConfig k;
  k.type = KernelType::kBarrier;
  k.deterministic = true;
  for (bool SimConfig::*sw : kRecordingSwitches) {
    RunAndCheckRoundRows(k, PartitionMode::kManual, 4, sw);  // One rank per pod.
  }
}

TEST(Profiler, NullMessageRoundRowsSumToExecutorTotals) {
  // "Rounds" are LP-local iterations for CMB, so row counts are ragged
  // across executors; the invariant still holds row-sum by row-sum.
  KernelConfig k;
  k.type = KernelType::kNullMessage;
  k.deterministic = true;
  for (bool SimConfig::*sw : kRecordingSwitches) {
    RunAndCheckRoundRows(k, PartitionMode::kManual, 4, sw);
  }
}

TEST(Profiler, PhaseTimesBoundedByWallTime) {
  // Each executor's P + S + M is a set of disjoint wall-clock segments nested
  // inside Run(), so it can never exceed the run's wall time (small slack for
  // clock reads landing across the FinishRun timestamp).
  KernelConfig k;
  k.type = KernelType::kUnison;
  k.threads = 2;
  SimConfig cfg;
  cfg.kernel = k;
  cfg.trace = true;
  Network net(cfg);
  FatTreeTopo topo = BuildFatTree(net, 4, 10000000000ULL, Time::Microseconds(3));
  net.Finalize();
  GeneratePermutation(net, topo.hosts, 50000, Time::Zero());
  net.Run(Time::Milliseconds(5));

  const RunSummary& summary = net.kernel().run_summary();
  ASSERT_GT(summary.wall_ns, 0u);
  const uint64_t slack = summary.wall_ns / 20 + 1000000;  // 5% + 1ms
  for (const ExecutorPhaseStats& e : net.run_trace().executors()) {
    EXPECT_LE(e.processing_ns + e.synchronization_ns + e.messaging_ns,
              summary.wall_ns + slack);
  }
}

TEST(Profiler, SequentialRunAccountsAllEventsToWorkerZero) {
  KernelConfig k;
  k.type = KernelType::kSequential;
  SimConfig cfg;
  cfg.kernel = k;
  cfg.trace = true;
  Network net(cfg);
  FatTreeTopo topo = BuildFatTree(net, 4, 10000000000ULL, Time::Microseconds(3));
  net.Finalize();
  GeneratePermutation(net, topo.hosts, 50000, Time::Zero());
  net.Run(Time::Milliseconds(5));
  EXPECT_EQ(net.run_trace().executors()[0].events, net.kernel().processed_events());
  EXPECT_GT(net.run_trace().executors()[0].processing_ns, 0u);
}

}  // namespace
}  // namespace unison
