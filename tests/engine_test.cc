// The shared round-execution engine: ExecutorPool, PhaseAccountant, and the
// cross-kernel reuse guarantees they exist to provide.
//
// The load-bearing claims: a pool's OS threads are spawned once at Setup and
// reused by every subsequent Run() on the same kernel instance; back-to-back
// runs stay bit-deterministic; and every nanosecond the accountant times
// lands in exactly one P/S/M bucket, with per-round rows summing to the
// executor totals by construction.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "src/kernel/engine/cpu_topology.h"
#include "src/kernel/engine/executor_pool.h"
#include "src/kernel/engine/phase_accountant.h"
#include "src/kernel/engine/spec_checkpoint.h"
#include "src/kernel/kernel.h"
#include "src/net/session.h"
#include "src/partition/manual.h"
#include "tests/test_util.h"

namespace unison {
namespace {

// --- ExecutorPool ---

TEST(ExecutorPool, RunsEveryWorkerEachEpoch) {
  ExecutorPool pool;
  pool.Ensure(4);
  std::vector<std::atomic<int>> hits(4);
  for (int epoch = 0; epoch < 50; ++epoch) {
    pool.Run([&hits](uint32_t id) { hits[id].fetch_add(1); });
  }
  for (auto& h : hits) {
    EXPECT_EQ(h.load(), 50);
  }
}

TEST(ExecutorPool, CallerIsWorkerZero) {
  ExecutorPool pool;
  pool.Ensure(3);
  const auto caller = std::this_thread::get_id();
  std::thread::id seen;
  pool.Run([&](uint32_t id) {
    if (id == 0) {
      seen = std::this_thread::get_id();
    }
  });
  EXPECT_EQ(seen, caller);
}

TEST(ExecutorPool, SpawnsOnceAndReusesThreadsAcrossRuns) {
  ExecutorPool pool;
  pool.Ensure(4);
  EXPECT_EQ(pool.parties(), 4u);
  EXPECT_EQ(pool.threads_spawned(), 3u);  // Caller is worker 0.
  for (int i = 0; i < 10; ++i) {
    pool.Run([](uint32_t) {});
  }
  EXPECT_EQ(pool.threads_spawned(), 3u);
  pool.Ensure(4);  // Same size: no-op, running threads kept.
  EXPECT_EQ(pool.threads_spawned(), 3u);
  pool.Ensure(2);  // Shrink: excess threads park in place, none retired.
  EXPECT_EQ(pool.parties(), 2u);
  EXPECT_EQ(pool.threads_spawned(), 3u);
  pool.Run([](uint32_t) {});
  EXPECT_EQ(pool.threads_spawned(), 3u);
  pool.Ensure(4);  // Grow back within the high-water mark: no new spawns.
  EXPECT_EQ(pool.parties(), 4u);
  EXPECT_EQ(pool.threads_spawned(), 3u);
  pool.Ensure(6);  // Beyond the high-water mark: only the delta spawns.
  EXPECT_EQ(pool.threads_spawned(), 5u);
  pool.Run([](uint32_t) {});
  EXPECT_EQ(pool.threads_spawned(), 5u);
}

TEST(ExecutorPool, ShrinkParksExcessWorkersAndGrowReenlistsThem) {
  ExecutorPool pool;
  pool.Ensure(4);
  std::vector<std::atomic<int>> hits(6);
  pool.Run([&hits](uint32_t id) { hits[id].fetch_add(1); });
  pool.Ensure(2);
  // Parked workers (ids 2, 3) must not execute the body — and must not be
  // counted toward epoch completion either, or Run would hang.
  for (int i = 0; i < 20; ++i) {
    pool.Run([&hits](uint32_t id) { hits[id].fetch_add(1); });
  }
  EXPECT_EQ(hits[0].load(), 21);
  EXPECT_EQ(hits[1].load(), 21);
  EXPECT_EQ(hits[2].load(), 1);
  EXPECT_EQ(hits[3].load(), 1);
  // Alternating sizes never churns OS threads once the high-water set exists.
  const uint64_t spawned = pool.threads_spawned();
  for (int i = 0; i < 5; ++i) {
    pool.Ensure(6);
    pool.Run([&hits](uint32_t id) { hits[id].fetch_add(1); });
    pool.Ensure(2);
    pool.Run([&hits](uint32_t id) { hits[id].fetch_add(1); });
  }
  EXPECT_EQ(pool.threads_spawned(), 5u);
  EXPECT_GE(pool.threads_spawned(), spawned);
  EXPECT_EQ(hits[0].load(), 31);
  EXPECT_EQ(hits[5].load(), 5);  // Only alive in the 6-party epochs.
}

TEST(ExecutorPool, SinglePartyRunsInline) {
  ExecutorPool pool;
  pool.Ensure(1);
  EXPECT_EQ(pool.threads_spawned(), 0u);
  int ran = 0;
  pool.Run([&ran](uint32_t id) {
    EXPECT_EQ(id, 0u);
    ++ran;
  });
  EXPECT_EQ(ran, 1);
}

TEST(ExecutorPool, ApplyPlacementSpawnsNothingAndKeepsWorkersAlive) {
  ExecutorPool pool;
  pool.Ensure(3);
  const uint64_t spawned = pool.threads_spawned();
  std::vector<std::atomic<int>> hits(3);
  const auto tick = [&hits](uint32_t id) { hits[id].fetch_add(1); };

  // Changing placement mid-session re-pins the existing workers lazily; it
  // never respawns them, and every worker still executes every epoch.
  pool.ApplyPlacement(AffinityPolicy::kCompact);
  pool.Run(tick);
  pool.ApplyPlacement(AffinityPolicy::kCompact);  // Same policy: no-op.
  pool.Run(tick);
  pool.ApplyPlacement(AffinityPolicy::kScatter);
  pool.Run(tick);
  pool.ApplyPlacement(AffinityPolicy::kNone);
  pool.Run(tick);
  EXPECT_EQ(pool.threads_spawned(), spawned);
  for (auto& h : hits) {
    EXPECT_EQ(h.load(), 4);
  }
}

TEST(ExecutorPool, PlacementRoundTripRestoresCallerAffinity) {
  // kCompact pins the caller (worker 0) to one core; kNone must widen it
  // back to the full pre-pin set.
  const size_t before = CurrentThreadCpus().size();
  ExecutorPool pool;
  pool.Ensure(2);
  pool.ApplyPlacement(AffinityPolicy::kCompact);
  pool.ApplyPlacement(AffinityPolicy::kNone);
  pool.Run([](uint32_t) {});  // Let workers observe the placement epoch too.
  EXPECT_EQ(CurrentThreadCpus().size(), before);
}

TEST(ExecutorPool, ApplyPlacementBeforeAnyPinIsANoOp) {
  ExecutorPool pool;
  pool.Ensure(2);
  // kNone with nothing ever pinned must not touch the caller's mask.
  const size_t before = CurrentThreadCpus().size();
  pool.ApplyPlacement(AffinityPolicy::kNone);
  EXPECT_EQ(CurrentThreadCpus().size(), before);
}

// Running one pinned Network must not change how the next one in the same
// process is placed. The pool pins its caller as worker 0; it must hand the
// caller its pre-pin mask back at shutdown, and the next pool's topology
// must not be read from a mask an earlier pool narrowed.
TEST(ExecutorPool, BackToBackPinnedNetworksKeepCallerMaskAndSpreadWorkers) {
  const size_t before = CurrentThreadCpus().size();
  if (before < 2) {
    GTEST_SKIP() << "needs at least 2 allowed CPUs";
  }
  const auto pinned_network = [] {
    SimConfig cfg;
    cfg.kernel.type = KernelType::kUnison;
    cfg.kernel.threads = 2;
    cfg.kernel.affinity = AffinityPolicy::kCompact;
    auto net = std::make_unique<Network>(cfg);
    BuildFatTree(*net, 4, 10'000'000'000ULL, Time::Microseconds(3));
    net->Finalize();
    return net;
  };
  {
    std::unique_ptr<Network> first = pinned_network();
    first->Run(Time::Microseconds(100));
  }
  EXPECT_EQ(CurrentThreadCpus().size(), before);

  std::unique_ptr<Network> second = pinned_network();
  std::vector<std::vector<uint32_t>> masks(2);
  second->kernel().executor_pool()->Run(
      [&masks](uint32_t worker) { masks[worker] = CurrentThreadCpus(); });
  ASSERT_EQ(masks[0].size(), 1u);
  ASSERT_EQ(masks[1].size(), 1u);
  EXPECT_NE(masks[0][0], masks[1][0]);
}

// Two pools pinning the same caller at once: whichever is torn down last
// must still leave the caller its full pre-pin set, not the other's pin.
TEST(ExecutorPool, OverlappingPinnedPoolsRestoreCallerInAnyOrder) {
  const size_t before = CurrentThreadCpus().size();
  auto first = std::make_unique<ExecutorPool>();
  auto second = std::make_unique<ExecutorPool>();
  first->SetPlacement(AffinityPolicy::kCompact);
  first->Ensure(2);
  second->SetPlacement(AffinityPolicy::kScatter);
  second->Ensure(2);
  first.reset();
  second.reset();
  EXPECT_EQ(CurrentThreadCpus().size(), before);
}

// --- CpuTopology ---

TEST(CpuTopology, PlacementOrderIsAPermutationOfAllowedCpus) {
  const CpuTopology topo = CpuTopology::Detect();
  ASSERT_FALSE(topo.cpus.empty());  // Detect never returns empty.
  std::set<uint32_t> allowed;
  for (const auto& cpu : topo.cpus) {
    allowed.insert(cpu.id);
  }
  EXPECT_TRUE(topo.PlacementOrder(AffinityPolicy::kNone).empty());
  for (auto policy : {AffinityPolicy::kCompact, AffinityPolicy::kScatter}) {
    const std::vector<uint32_t> order = topo.PlacementOrder(policy);
    EXPECT_EQ(std::set<uint32_t>(order.begin(), order.end()), allowed);
    EXPECT_EQ(order.size(), allowed.size());  // Each CPU exactly once.
  }
}

TEST(CpuTopology, PolicyNamesRoundTrip) {
  for (auto policy : {AffinityPolicy::kNone, AffinityPolicy::kCompact,
                      AffinityPolicy::kScatter}) {
    AffinityPolicy parsed = AffinityPolicy::kNone;
    ASSERT_TRUE(AffinityPolicyFromName(AffinityPolicyName(policy), &parsed));
    EXPECT_EQ(parsed, policy);
  }
  AffinityPolicy parsed = AffinityPolicy::kScatter;
  EXPECT_FALSE(AffinityPolicyFromName("numa", &parsed));
  EXPECT_EQ(parsed, AffinityPolicy::kScatter);  // Untouched on failure.
}

// --- PhaseAccountant ---

TEST(PhaseAccountant, EveryIntervalLandsInExactlyOneBucket) {
  Profiler prof;
  prof.BeginRun(1);
  uint64_t s0 = 0, p0 = 0, m1 = 0;
  {
    PhaseAccountant acct(0, &prof);
    EXPECT_TRUE(acct.timing());
    acct.BeginRound(0);
    acct.OpenInterval();
    s0 = acct.CloseSync();
    p0 = acct.CloseProcessing();
    acct.BeginRound(1);
    m1 = acct.CloseMessaging();
    acct.set_events(42);
  }  // Destructor flushes the totals.

  const ExecutorPhaseStats& e = prof.executors()[0];
  EXPECT_EQ(e.events, 42u);
  // Totals are exactly the closed intervals — nothing double-counted,
  // nothing dropped.
  EXPECT_EQ(e.synchronization_ns, s0);
  EXPECT_EQ(e.processing_ns, p0);
  EXPECT_EQ(e.messaging_ns, m1);
  // Per-round rows carry the same deltas, keyed by BeginRound.
  const auto rs = prof.round_sync_ns();
  const auto rp = prof.round_processing_ns();
  const auto rm = prof.round_messaging_ns();
  ASSERT_EQ(prof.rounds(), 2u);
  EXPECT_EQ(rs[0][0], s0);
  EXPECT_EQ(rp[0][0], p0);
  EXPECT_EQ(rm[0][0], 0u);
  EXPECT_EQ(rs[1][0], 0u);
  EXPECT_EQ(rm[1][0], m1);
}

TEST(PhaseAccountant, OpenIntervalDiscardsUnattributedTime) {
  Profiler prof;
  prof.BeginRun(1);
  {
    PhaseAccountant acct(0, &prof);
    acct.BeginRound(0);
    acct.OpenInterval();
    acct.CloseSync();
    // Time passing here must vanish: the next close measures from the
    // re-opened cursor, not from the last close.
    acct.OpenInterval();
    const uint64_t p = acct.CloseProcessing();
    EXPECT_EQ(prof.executors()[0].processing_ns, 0u);  // Not yet flushed.
    acct.Flush();
    EXPECT_EQ(prof.executors()[0].processing_ns, p);
  }
}

// Without rows (recording off) the accountant reads no clock: every close
// returns 0 and nothing accumulates.
TEST(PhaseAccountant, DisabledTimingIsFreeOfSideEffects) {
  PhaseAccountant acct(0, /*rows=*/nullptr);
  EXPECT_FALSE(acct.timing());
  acct.BeginRound(0);
  acct.OpenInterval();
  EXPECT_EQ(acct.CloseSync(), 0u);
  EXPECT_EQ(acct.CloseProcessing(), 0u);
  EXPECT_EQ(acct.CloseMessaging(), 0u);
  const ExecutorPhaseStats& e = acct.local();
  EXPECT_EQ(e.processing_ns, 0u);
  EXPECT_EQ(e.synchronization_ns, 0u);
  EXPECT_EQ(e.messaging_ns, 0u);
}

// --- Back-to-back Run() on one kernel instance ---

// Two nodes ping-ponging across the cut edge; each node's log is written
// only by the LP that owns it, so logs are race-free and comparable across
// kernel instances.
struct PingPong {
  Kernel* kernel;
  std::array<std::vector<int64_t>, 2> log;

  void Hop(NodeId node, int64_t t_us, int64_t until_us) {
    kernel->ScheduleOnNode(node, Time::Microseconds(t_us),
                           [this, node, t_us, until_us] {
                             log[node].push_back(t_us);
                             if (t_us + 2 <= until_us) {
                               Hop(1 - node, t_us + 2, until_us);
                             }
                           });
  }
};

struct TwoRunOutcome {
  std::array<std::vector<int64_t>, 2> log;
  uint64_t spawned_setup = 0;  // Threads spawned by Setup (pool creation).
  uint64_t spawned_run2 = 0;   // Threads spawned by the second Run: must be 0.
  uint64_t events = 0;         // Total across both runs.
  RunResult first;             // Window results reported by each Run().
  RunResult second;
  uint64_t session_events = 0;  // Kernel's session accumulator after run 2.
  uint32_t session_windows = 0;
};

TwoRunOutcome RunTwice(KernelType type, uint32_t threads, uint32_t ranks = 2) {
  TopoGraph graph;
  graph.num_nodes = 2;
  graph.edges.push_back(TopoEdge{0, 1, Time::Microseconds(1), true});
  KernelConfig kc;
  kc.type = type;
  kc.threads = threads;
  kc.ranks = ranks;
  auto kernel = MakeKernel(kc);

  const uint64_t before_setup = ExecutorPool::TotalThreadsSpawned();
  kernel->Setup(graph, RangePartition(graph, 2));
  TwoRunOutcome out;
  out.spawned_setup = ExecutorPool::TotalThreadsSpawned() - before_setup;

  PingPong pp{kernel.get(), {}};
  // The chain spans both runs: events past the first stop stay pending and
  // the second Run() picks them up (simulated time never rewinds).
  pp.Hop(0, 1, 299);
  out.first = kernel->Run(Time::Microseconds(100));
  out.events = kernel->processed_events();

  // New work injected between runs, at an absolute time in run 2's window.
  kernel->ScheduleOnNode(0, Time::Microseconds(200), [&pp] {
    pp.log[0].push_back(-200);
  });
  const uint64_t before_run2 = ExecutorPool::TotalThreadsSpawned();
  out.second = kernel->Run(Time::Microseconds(300));
  out.spawned_run2 = ExecutorPool::TotalThreadsSpawned() - before_run2;
  out.events += kernel->processed_events();
  out.session_events = kernel->session_events();
  out.session_windows = kernel->session_windows();
  out.log = std::move(pp.log);
  return out;
}

class EngineReuseTest : public ::testing::TestWithParam<KernelType> {};

TEST_P(EngineReuseTest, SecondRunReusesPoolThreadsAndStaysDeterministic) {
  const KernelType type = GetParam();
  const TwoRunOutcome a = RunTwice(type, /*threads=*/3);
  const TwoRunOutcome b = RunTwice(type, /*threads=*/3);

  // The ping-pong actually crossed the cut in both runs.
  EXPECT_GT(a.events, 100u);
  ASSERT_FALSE(a.log[0].empty());
  ASSERT_FALSE(a.log[1].empty());
  EXPECT_GT(a.log[1].back(), 100);  // Run 2 continued the chain.

  // Setup spawned the pool; the second Run() spawned nothing.
  EXPECT_GT(a.spawned_setup, 0u);
  EXPECT_EQ(a.spawned_run2, 0u);
  EXPECT_EQ(b.spawned_run2, 0u);

  // Window classification: run 1 hit its stop time with the chain still
  // pending (a window boundary), run 2 drained the chain (exhaustion).
  EXPECT_EQ(a.first.reason, RunReason::kWindowReached);
  EXPECT_EQ(a.first.end, Time::Microseconds(100));
  EXPECT_EQ(a.second.reason, RunReason::kExhausted);
  EXPECT_EQ(a.session_windows, 2u);
  EXPECT_EQ(a.session_events, a.first.events + a.second.events);
  EXPECT_EQ(a.events, a.session_events);

  // Bit-determinism across instances, both runs included.
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.log[0], b.log[0]);
  EXPECT_EQ(a.log[1], b.log[1]);
}

// --- SpecCheckpoint ---

TEST(SpecCheckpoint, CaptureRestoreCountersAndDeclines) {
  SpecCheckpoint ck;
  EXPECT_FALSE(ck.installed());
  EXPECT_FALSE(ck.Capture());  // No hooks: refuse, never speculate.
  EXPECT_FALSE(ck.valid());

  int restored = 0;
  bool refuse = false;
  uint64_t reencoded = 1000;
  ck.InstallHooks(
      [&refuse, &reencoded]() -> std::optional<uint64_t> {
        if (refuse) {
          return std::nullopt;
        }
        return reencoded;
      },
      [&restored] { ++restored; });
  EXPECT_TRUE(ck.installed());
  ASSERT_TRUE(ck.Capture());
  EXPECT_TRUE(ck.valid());
  EXPECT_EQ(ck.captures(), 1u);
  EXPECT_EQ(ck.last_capture_bytes(), 1000u);

  ck.Restore();
  EXPECT_EQ(ck.restores(), 1u);
  EXPECT_EQ(restored, 1);
  EXPECT_TRUE(ck.valid());  // A restore keeps the checkpoint.

  // A declined capture invalidates the prior checkpoint, and Restore
  // without a valid checkpoint is a no-op.
  refuse = true;
  EXPECT_FALSE(ck.Capture());
  EXPECT_FALSE(ck.valid());
  EXPECT_EQ(ck.captures(), 1u);
  ck.Restore();
  EXPECT_EQ(ck.restores(), 1u);
  EXPECT_EQ(restored, 1);

  // Each capture reports what it re-encoded: a quieter window less.
  refuse = false;
  reencoded = 40;
  ASSERT_TRUE(ck.Capture());
  EXPECT_EQ(ck.captures(), 2u);
  EXPECT_EQ(ck.last_capture_bytes(), 40u);
}

// A live speculative session: one checkpoint per eligible window, rollbacks
// on forced misses, the checkpoint store settling at its high-water mark, and —
// the engine's core reuse promise — zero OS threads spawned across
// speculative windows and their conservative re-runs.
TEST(SpecCheckpoint, SpeculativeWindowsReuseBufferAndSpawnNoThreads) {
  SimConfig cfg;
  cfg.kernel.type = KernelType::kUnison;
  cfg.kernel.threads = 2;
  cfg.speculation = SpeculationMode::kAuto;
  // Horizon far past the 3 us lookahead: busy windows overshoot and roll
  // back, so Restore runs on top of Capture.
  cfg.tuning_config.spec_horizon_initial_ps = Time::Milliseconds(10).ps();
  Network net(cfg);
  FatTreeTopo topo =
      BuildFatTree(net, 4, 10'000'000'000ULL, Time::Microseconds(3));
  net.Finalize();
  GeneratePermutation(net, topo.hosts, 200 * 1024, Time::Zero());

  const uint32_t windows = 5;
  uint64_t spawned_before = 0;
  size_t cap_mid = 0;
  for (uint32_t w = 1; w <= windows; ++w) {
    if (w == 2) {
      spawned_before = ExecutorPool::TotalThreadsSpawned();
    }
    net.Run(Time::Milliseconds(w));
    if (w == 3) {
      cap_mid = CheckpointStoreFootprint(net);
    }
  }
  EXPECT_EQ(ExecutorPool::TotalThreadsSpawned() - spawned_before, 0u);

  const SpecCheckpoint& ck = net.kernel().spec_checkpoint();
  EXPECT_EQ(ck.captures(), windows);  // Every boundary captured exactly once.
  EXPECT_GE(ck.restores(), 1u);       // The overshooting window rolled back.
  // The permutation drains inside window 1, so the store's high-water mark
  // is set early and later captures reuse it — no regrowth.
  EXPECT_EQ(CheckpointStoreFootprint(net), cap_mid);
  EXPECT_LE(ck.last_capture_bytes(), CheckpointStoreFootprint(net));
}

INSTANTIATE_TEST_SUITE_P(AllParallelKernels, EngineReuseTest,
                         ::testing::Values(KernelType::kBarrier,
                                           KernelType::kNullMessage,
                                           KernelType::kUnison,
                                           KernelType::kHybrid),
                         [](const ::testing::TestParamInfo<KernelType>& info) {
                           switch (info.param) {
                             case KernelType::kBarrier: return "Barrier";
                             case KernelType::kNullMessage: return "NullMessage";
                             case KernelType::kUnison: return "Unison";
                             case KernelType::kHybrid: return "Hybrid";
                             default: return "Sequential";
                           }
                         });

}  // namespace
}  // namespace unison
