// Cross-kernel equivalence and kernel mechanics.
//
// The load-bearing property of the whole system: every kernel — sequential,
// barrier, null message, Unison, hybrid — must execute the same model to the
// same outcome, event for event, for any thread count.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "src/kernel/nullmsg.h"
#include "src/kernel/round_kernel.h"
#include "src/kernel/simulator.h"
#include "src/partition/fine_grained.h"
#include "src/partition/manual.h"
#include "src/stats/digest.h"
#include "tests/test_util.h"

namespace unison {
namespace {

RunOutcome Sequential() {
  KernelConfig k;
  k.type = KernelType::kSequential;
  return RunFatTreeScenario(k, PartitionMode::kSingle);
}

TEST(KernelEquivalence, SequentialIsDeterministic) {
  const RunOutcome a = Sequential();
  const RunOutcome b = Sequential();
  EXPECT_GT(a.events, 1000u);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
}

TEST(KernelEquivalence, UnisonMatchesSequential) {
  const RunOutcome seq = Sequential();
  for (uint32_t threads : {1u, 2u, 4u}) {
    KernelConfig k;
    k.type = KernelType::kUnison;
    k.threads = threads;
    const RunOutcome par = RunFatTreeScenario(k, PartitionMode::kAuto);
    EXPECT_EQ(par.events, seq.events) << "threads=" << threads;
    EXPECT_EQ(par.fingerprint, seq.fingerprint) << "threads=" << threads;
    EXPECT_GT(par.lps, 4u);
  }
}

TEST(KernelEquivalence, BarrierMatchesSequential) {
  const RunOutcome seq = Sequential();
  KernelConfig k;
  k.type = KernelType::kBarrier;
  k.deterministic = true;
  const RunOutcome par = RunFatTreeScenario(k, PartitionMode::kManual);
  EXPECT_EQ(par.events, seq.events);
  EXPECT_EQ(par.fingerprint, seq.fingerprint);
  EXPECT_EQ(par.lps, 4u);  // One LP per pod.
}

TEST(KernelEquivalence, NullMessageMatchesSequential) {
  const RunOutcome seq = Sequential();
  KernelConfig k;
  k.type = KernelType::kNullMessage;
  k.deterministic = true;
  const RunOutcome par = RunFatTreeScenario(k, PartitionMode::kManual);
  EXPECT_EQ(par.events, seq.events);
  EXPECT_EQ(par.fingerprint, seq.fingerprint);
}

TEST(KernelEquivalence, HybridMatchesSequential) {
  const RunOutcome seq = Sequential();
  for (uint32_t ranks : {2u, 4u}) {
    KernelConfig k;
    k.type = KernelType::kHybrid;
    k.ranks = ranks;
    k.threads = 2;
    const RunOutcome par = RunFatTreeScenario(k, PartitionMode::kAuto);
    EXPECT_EQ(par.events, seq.events) << "ranks=" << ranks;
    EXPECT_EQ(par.fingerprint, seq.fingerprint) << "ranks=" << ranks;
  }
}

TEST(KernelEquivalence, UnisonSchedulingMetricsAgree) {
  const RunOutcome seq = Sequential();
  for (SchedulingMetric metric : {SchedulingMetric::kNone,
                                  SchedulingMetric::kByPendingEventCount,
                                  SchedulingMetric::kByLastRoundTime}) {
    KernelConfig k;
    k.type = KernelType::kUnison;
    k.threads = 3;
    k.metric = metric;
    const RunOutcome par = RunFatTreeScenario(k, PartitionMode::kAuto);
    EXPECT_EQ(par.fingerprint, seq.fingerprint)
        << "metric=" << static_cast<int>(metric);
  }
}

// --- Kernel mechanics on synthetic events ---

TEST(KernelMechanics, GlobalEventsInterleaveDeterministically) {
  // Two LPs ping-ponging; a global event in between must execute before
  // same-timestamp node events, once, on the public LP.
  TopoGraph graph;
  graph.num_nodes = 2;
  graph.edges.push_back(TopoEdge{0, 1, Time::Microseconds(1), true});

  auto run = [&graph](KernelType type, uint32_t threads) {
    KernelConfig kc;
    kc.type = type;
    kc.threads = threads;
    auto kernel = MakeKernel(kc);
    const Partition part = type == KernelType::kSequential
                               ? SingleLpPartition(graph)
                               : RangePartition(graph, 2);
    kernel->Setup(graph, part);
    std::vector<int> order;
    kernel->ScheduleOnNode(0, Time::Microseconds(5), [&order] { order.push_back(1); });
    kernel->ScheduleGlobal(Time::Microseconds(5), [&order] { order.push_back(2); });
    kernel->ScheduleOnNode(1, Time::Microseconds(6), [&order] { order.push_back(3); });
    kernel->Run(Time::Milliseconds(1));
    return order;
  };

  const std::vector<int> seq = run(KernelType::kSequential, 1);
  EXPECT_EQ(seq, (std::vector<int>{2, 1, 3}));
  EXPECT_EQ(run(KernelType::kUnison, 2), seq);
}

TEST(KernelMechanics, StopTimeExcludesBoundaryEvents) {
  TopoGraph graph;
  graph.num_nodes = 1;
  KernelConfig kc;
  kc.type = KernelType::kSequential;
  auto kernel = MakeKernel(kc);
  kernel->Setup(graph, SingleLpPartition(graph));
  int ran = 0;
  kernel->ScheduleOnNode(0, Time::Microseconds(9), [&ran] { ++ran; });
  kernel->ScheduleOnNode(0, Time::Microseconds(10), [&ran] { ++ran; });
  kernel->ScheduleOnNode(0, Time::Microseconds(11), [&ran] { ++ran; });
  kernel->Run(Time::Microseconds(10));
  EXPECT_EQ(ran, 1);  // Only the event strictly before the stop time.
}

TEST(KernelMechanics, RequestStopHaltsEarly) {
  TopoGraph graph;
  graph.num_nodes = 2;
  graph.edges.push_back(TopoEdge{0, 1, Time::Microseconds(1), true});
  KernelConfig kc;
  kc.type = KernelType::kUnison;
  kc.threads = 2;
  auto kernel = MakeKernel(kc);
  kernel->Setup(graph, FineGrainedPartition(graph));
  std::atomic<int> count{0};
  // Self-rescheduling chatter on both nodes.
  std::function<void()> tick0;
  Kernel* kp = kernel.get();
  for (int i = 0; i < 1000; ++i) {
    kernel->ScheduleOnNode(0, Time::Microseconds(1 + i), [&count] { ++count; });
    kernel->ScheduleOnNode(1, Time::Microseconds(1 + i), [&count] { ++count; });
  }
  kernel->ScheduleGlobal(Time::Microseconds(50), [kp] { kp->RequestStop(); });
  kernel->Run(Time::Milliseconds(10));
  EXPECT_LT(count.load(), 2000);
  EXPECT_GT(count.load(), 0);
}

// The re-sort period lives in the network's tunable store; one published
// before the first Run() drives every window.
TEST(KernelMechanics, UnisonSchedulePeriodOverride) {
  KernelConfig k;
  k.type = KernelType::kUnison;
  k.threads = 2;
  FatTreeScenario s = BuildFatTreeScenarioStreaming(k, PartitionMode::kAuto);
  Tunables t = s.net->tunable_store().Get();
  t.sched_period = 4;
  s.net->tunable_store().Publish(t);
  s.net->Run(Time::Milliseconds(5));
  EXPECT_EQ(s.net->kernel().window_tuning().sched_period, 4u);
  const RunOutcome a = OutcomeOf(*s.net);
  KernelConfig seq;
  seq.type = KernelType::kSequential;
  const RunOutcome b = RunFatTreeScenario(seq, PartitionMode::kSingle);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
}

TEST(KernelMechanics, EmptySimulationTerminates) {
  TopoGraph graph;
  graph.num_nodes = 4;
  graph.edges.push_back(TopoEdge{0, 1, Time::Microseconds(1), true});
  graph.edges.push_back(TopoEdge{2, 3, Time::Microseconds(1), true});
  for (KernelType type : {KernelType::kSequential, KernelType::kUnison}) {
    KernelConfig kc;
    kc.type = type;
    kc.threads = 2;
    auto kernel = MakeKernel(kc);
    kernel->Setup(graph, type == KernelType::kSequential ? SingleLpPartition(graph)
                                                         : FineGrainedPartition(graph));
    kernel->Run(Time::Seconds(1.0));
    EXPECT_EQ(kernel->processed_events(), 0u);
  }
}

TEST(KernelMechanics, OverflowBoxDeliversToUnwiredLpUntilRewire) {
  // Four nodes, links only 0-1 and 2-3: the fine-grained partition cuts both
  // (median delay) and yields one LP per node, with no channel between LP0
  // and LP3. A cross-LP send between them must take the locked OverflowBox,
  // and a topology change wiring 0-3 must switch later sends to a real
  // outbox. The payloads capture a unique_ptr, so every hop — outbox push,
  // overflow push, inbox drain, FEL insert — handles move-only events.
  TopoGraph graph;
  graph.num_nodes = 4;
  graph.edges.push_back(TopoEdge{0, 1, Time::Microseconds(1), true});
  graph.edges.push_back(TopoEdge{2, 3, Time::Microseconds(1), true});

  KernelConfig kc;
  kc.type = KernelType::kUnison;
  kc.threads = 2;
  auto kernel = MakeKernel(kc);
  kernel->Setup(graph, FineGrainedPartition(graph));
  ASSERT_EQ(kernel->num_lps(), 4u);
  ASSERT_EQ(kernel->LpOfNode(3), 3u);
  ASSERT_EQ(kernel->lp(0)->FindOutbox(3), nullptr);

  Kernel* kp = kernel.get();
  std::atomic<int> delivered{0};
  auto send_to_node3 = [kp, &delivered](Time at, int value) {
    auto payload = std::make_unique<int>(value);
    kp->ScheduleOnNode(3, at, [&delivered, payload = std::move(payload)] {
      delivered += *payload;
    });
  };

  // Executes on LP0; no outbox to LP3 exists yet, so this send can only
  // arrive through LP3's overflow box.
  kernel->ScheduleOnNode(0, Time::Microseconds(1), [&send_to_node3] {
    send_to_node3(Time::Microseconds(3), 7);
  });

  // Mid-run topology change: link 0-3 appears and the kernel rewires.
  kernel->ScheduleGlobal(Time::Microseconds(5), [kp, &graph] {
    graph.edges.push_back(TopoEdge{0, 3, Time::Microseconds(1), true});
    kp->NotifyTopologyChanged();
  });

  // After the rewire the same route rides the wired outbox fast path.
  kernel->ScheduleOnNode(0, Time::Microseconds(6), [&send_to_node3] {
    send_to_node3(Time::Microseconds(8), 100);
  });

  kernel->Run(Time::Milliseconds(1));
  EXPECT_EQ(delivered.load(), 107);
  EXPECT_NE(kernel->lp(0)->FindOutbox(3), nullptr);
}

TEST(KernelMechanics, DisconnectedGraphRunsIndependently) {
  // Two components, no cut edges: lookahead is infinite and both LPs run to
  // the stop time without interaction.
  TopoGraph graph;
  graph.num_nodes = 2;  // No edges at all.
  KernelConfig kc;
  kc.type = KernelType::kUnison;
  kc.threads = 2;
  auto kernel = MakeKernel(kc);
  Partition part = FineGrainedPartition(graph);
  EXPECT_EQ(part.num_lps, 2u);
  EXPECT_TRUE(part.lookahead.IsMax());
  kernel->Setup(graph, part);
  std::atomic<int> ran{0};
  kernel->ScheduleOnNode(0, Time::Microseconds(1), [&ran] { ++ran; });
  kernel->ScheduleOnNode(1, Time::Microseconds(2), [&ran] { ++ran; });
  kernel->Run(Time::Seconds(1.0));
  EXPECT_EQ(ran.load(), 2);
}

// --- Round barrier crossings ---

struct GlobalsRun {
  RunDigest digest;
  uint64_t rounds = 0;
  uint32_t crossings = 0;  // Round kernels only.
  int mid_round_globals = 0;
};

// The k=4 fat-tree with permutation and streaming Poisson traffic, plus
// globals mid-run: a FailLink at 2 ms, and a second core link failing at
// 3 ms. With `mid_round`, the 3 ms failure is not scheduled up front: an LP
// event at 1.5 ms schedules, through ScheduleGlobal's locked path and at its
// own timestamp (so at or below its round's LBTS), a global that schedules
// it. Without, an identical LP event does nothing and the failure is
// scheduled up front, so both variants see the same public FEL from 1.5 ms
// on and run the same rounds.
GlobalsRun RunWithGlobals(const KernelConfig& kernel, PartitionMode partition,
                          bool mid_round) {
  SimConfig cfg;
  cfg.kernel = kernel;
  cfg.partition = partition;
  Network net(cfg);
  FatTreeTopo topo =
      BuildFatTree(net, 4, 10'000'000'000ULL, Time::Microseconds(3));
  if (partition == PartitionMode::kManual) {
    net.SetManualPartition(4, FatTreePodPartition(topo, net.num_nodes()));
  }
  net.Finalize();
  GeneratePermutation(net, topo.hosts, 200 * 1024, Time::Zero());
  TrafficSpec traffic;
  traffic.hosts = topo.hosts;
  traffic.bisection_bps = topo.bisection_bps;
  traffic.load = 0.1;
  traffic.duration = Time::Milliseconds(4);
  InstallFlowSources(net, traffic);

  const uint32_t core_a = static_cast<uint32_t>(net.links().size()) - 1;
  const uint32_t core_b = core_a - 1;
  net.FailLink(core_a, Time::Milliseconds(2));
  const Time lp_event_at = Time::Microseconds(1500);
  std::atomic<int> mid_round_globals{0};
  Network* const n = &net;
  std::atomic<int>* const ran = &mid_round_globals;
  if (mid_round) {
    net.kernel().ScheduleOnNode(topo.hosts[3], lp_event_at, [n, ran, core_b] {
      n->sim().ScheduleGlobal(n->sim().Now(), [n, ran, core_b] {
        ran->fetch_add(1);
        n->FailLink(core_b, Time::Milliseconds(3));
      });
    });
  } else {
    net.kernel().ScheduleOnNode(topo.hosts[3], lp_event_at, [] {});
    net.FailLink(core_b, Time::Milliseconds(3));
  }
  net.Run(Time::Milliseconds(4));

  GlobalsRun out;
  out.digest = DigestOf(net);
  out.rounds = net.kernel().rounds();
  if (auto* round_kernel = dynamic_cast<RoundKernel*>(&net.kernel())) {
    out.crossings = round_kernel->barrier_crossings();
  }
  out.mid_round_globals = mid_round_globals.load();
  EXPECT_FALSE(net.links()[core_a].up);
  EXPECT_FALSE(net.links()[core_b].up);
  return out;
}

// A round crosses the barrier once, globals included: the crossing's
// completion runs the globals due at or below the round's LBTS — including
// one an LP event scheduled mid-round, which runs in the very round that
// scheduled it — before it opens the next round. Unison at 1 thread has one
// worker, so it steps its LPs with no round and no crossing. Results stay
// those of the sequential kernel.
TEST(RoundCrossings, OnePerRoundGlobalsIncluded) {
  KernelConfig seq;
  seq.type = KernelType::kSequential;
  const GlobalsRun seq_mid = RunWithGlobals(seq, PartitionMode::kSingle, true);
  const GlobalsRun seq_plain =
      RunWithGlobals(seq, PartitionMode::kSingle, false);
  EXPECT_EQ(seq_mid.mid_round_globals, 1);
  EXPECT_EQ(seq_mid.digest.flow_fingerprint, seq_plain.digest.flow_fingerprint);

  for (KernelType type :
       {KernelType::kUnison, KernelType::kHybrid, KernelType::kBarrier}) {
    for (uint32_t threads : {1u, 2u, 4u}) {
      KernelConfig k;
      k.type = type;
      k.threads = threads;
      k.ranks = 2;
      const PartitionMode partition = type == KernelType::kBarrier
                                          ? PartitionMode::kManual
                                          : PartitionMode::kAuto;
      SCOPED_TRACE("type=" + std::to_string(static_cast<int>(type)) +
                   " threads=" + std::to_string(threads));
      const GlobalsRun mid = RunWithGlobals(k, partition, true);
      const GlobalsRun plain = RunWithGlobals(k, partition, false);
      EXPECT_TRUE(mid.digest == seq_mid.digest);
      EXPECT_EQ(mid.digest.flow_fingerprint, seq_mid.digest.flow_fingerprint);
      EXPECT_TRUE(plain.digest == seq_plain.digest);
      EXPECT_EQ(mid.mid_round_globals, 1);
      if (type == KernelType::kUnison && threads == 1) {
        EXPECT_EQ(plain.rounds, 0u);
        EXPECT_EQ(mid.rounds, 0u);
        EXPECT_EQ(plain.crossings, 0u);
        EXPECT_EQ(mid.crossings, 0u);
        continue;
      }
      // The mid-round global ran in the round that scheduled it: no extra
      // round against the up-front variant.
      EXPECT_GT(plain.rounds, 0u);
      EXPECT_EQ(mid.rounds, plain.rounds);
      EXPECT_EQ(plain.crossings, plain.rounds);
      EXPECT_EQ(mid.crossings, mid.rounds);
    }
  }
}

// --- Affinity claiming ---

struct IncastRun {
  RunDigest digest;
  uint64_t steals = 0;
  uint64_t messages = 0;
  bool mailboxes_empty = true;  // At every window boundary.
};

// Whether every outbox lane and overflow box of the kernel is empty.
bool MailboxesEmpty(Kernel& kernel) {
  for (uint32_t i = 0; i < kernel.num_lps(); ++i) {
    Lp* const lp = kernel.lp(i);
    for (const std::unique_ptr<Outbox>& box : lp->outboxes()) {
      if (!box->empty()) {
        return false;
      }
    }
    if (!lp->overflow().empty()) {
      return false;
    }
  }
  return true;
}

// The k=4 fat-tree with web-search flows at load 0.3, 30% of them redirected
// at one victim host, traced so the window summaries count steals, and run
// to 3 ms in `windows` equal windows.
IncastRun RunIncast(const KernelConfig& kernel, PartitionMode partition,
                    int windows = 1) {
  SimConfig cfg;
  cfg.kernel = kernel;
  cfg.partition = partition;
  cfg.seed = 5;
  cfg.trace = true;
  Network net(cfg);
  FatTreeTopo topo =
      BuildFatTree(net, 4, 10'000'000'000ULL, Time::Microseconds(3));
  if (partition == PartitionMode::kManual) {
    net.SetManualPartition(4, FatTreePodPartition(topo, net.num_nodes()));
  }
  net.Finalize();
  TrafficSpec traffic;
  traffic.hosts = topo.hosts;
  traffic.bisection_bps = topo.bisection_bps;
  traffic.load = 0.3;
  traffic.incast_ratio = 0.3;
  traffic.duration = Time::Milliseconds(3);
  GenerateTraffic(net, traffic);

  IncastRun out;
  for (int w = 1; w <= windows; ++w) {
    net.Run(Time::Picoseconds(Time::Milliseconds(3).ps() * w / windows));
    out.steals += net.kernel().run_summary().steals;
    out.messages += net.kernel().run_summary().messages;
    out.mailboxes_empty = out.mailboxes_empty && MailboxesEmpty(net.kernel());
  }
  out.digest = DigestOf(net);
  return out;
}

// Incast piles load onto the victim's LPs, so lanes run out of their own
// lists at different times and steal from each other's. A steal only moves
// an LP to another core for a round: results stay the sequential kernel's.
// Barrier ranks have one lane each, so they never steal.
TEST(AffinityClaims, IncastStealsAcrossLanesAndMatchesSequential) {
  KernelConfig seq;
  seq.type = KernelType::kSequential;
  const IncastRun reference = RunIncast(seq, PartitionMode::kSingle);
  EXPECT_GT(reference.digest.event_count, 1000u);

  KernelConfig unison;
  unison.type = KernelType::kUnison;
  unison.threads = 4;
  const IncastRun u = RunIncast(unison, PartitionMode::kAuto);
  EXPECT_TRUE(u.digest == reference.digest);
  EXPECT_GT(u.steals, 0u);

  KernelConfig hybrid;
  hybrid.type = KernelType::kHybrid;
  hybrid.ranks = 2;
  hybrid.threads = 2;
  const IncastRun h = RunIncast(hybrid, PartitionMode::kAuto);
  EXPECT_TRUE(h.digest == reference.digest);
  EXPECT_GT(h.steals, 0u);

  KernelConfig barrier;
  barrier.type = KernelType::kBarrier;
  const IncastRun b = RunIncast(barrier, PartitionMode::kManual);
  EXPECT_TRUE(b.digest == reference.digest);
  EXPECT_EQ(b.steals, 0u);
}

// --- Mailbox handoff ---

// Round r's sends wait in lane r % 2 while round r's claimers drain lane
// (r + 1) % 2, so a worker that claims an LP can drain it while other
// workers, stealing across lanes, append to its other lane. Barrier ranks
// send through the targets' overflow boxes, which a claimer drains while
// other ranks push. Over several windows results stay the sequential
// kernel's, and every window ends with its mailboxes empty (snapshots have
// no mailbox section).
TEST(MailboxHandoff, IncastOverWindowsMatchesSequentialWithEmptyMailboxes) {
  KernelConfig seq;
  seq.type = KernelType::kSequential;
  const IncastRun reference = RunIncast(seq, PartitionMode::kSingle);
  for (uint32_t threads : {2u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    KernelConfig unison;
    unison.type = KernelType::kUnison;
    unison.threads = threads;
    const IncastRun u = RunIncast(unison, PartitionMode::kAuto, /*windows=*/6);
    EXPECT_TRUE(u.digest == reference.digest);
    EXPECT_TRUE(u.mailboxes_empty);
    EXPECT_GT(u.steals, 0u);
  }
  KernelConfig barrier;
  barrier.type = KernelType::kBarrier;
  const IncastRun b = RunIncast(barrier, PartitionMode::kManual, /*windows=*/6);
  EXPECT_TRUE(b.digest == reference.digest);
  EXPECT_TRUE(b.mailboxes_empty);
}

// Node 0 sends kBurst events per microsecond to node 1, which sends nothing
// back.
struct OneWaySource {
  static constexpr uint32_t kBurst = 40;  // Three chunks per round.
  Kernel* kernel;
  std::atomic<uint64_t>* received;
  void operator()() const {
    const Time next = kernel->Now() + Time::Microseconds(1);
    for (uint32_t i = 0; i < kBurst; ++i) {
      std::atomic<uint64_t>* const r = received;
      kernel->ScheduleOnNode(1, next,
                             [r] { r->fetch_add(1, std::memory_order_relaxed); });
    }
    kernel->ScheduleOnNode(0, next, OneWaySource{*this});
  }
};

// Two workers, one LP each (a victim's last LP is never stolen), and traffic
// in one direction only: worker 0 takes every chunk and worker 1 frees every
// one. The caches trade whole batches through the pool, so the chunk count
// follows what is in flight instead of growing with the run.
TEST(MailboxHandoff, OneWayTrafficKeepsTheChunkCountBounded) {
  TopoGraph graph;
  graph.num_nodes = 2;
  graph.edges.push_back(TopoEdge{0, 1, Time::Microseconds(1), true});
  KernelConfig kc;
  kc.type = KernelType::kUnison;
  kc.threads = 2;
  auto kernel = MakeKernel(kc);
  kernel->Setup(graph, RangePartition(graph, 2));
  auto* const rounds = dynamic_cast<RoundKernel*>(kernel.get());
  ASSERT_NE(rounds, nullptr);
  std::atomic<uint64_t> received{0};
  kernel->ScheduleOnNode(0, Time::Zero(), OneWaySource{kernel.get(), &received});
  constexpr int kWindows = 20;
  for (int w = 1; w <= kWindows; ++w) {
    kernel->Run(Time::Microseconds(200 * w));
    EXPECT_TRUE(MailboxesEmpty(*kernel));
  }
  EXPECT_EQ(kernel->session_rounds(), 4000u);
  // Sends at 1..3999 us have landed by 4 ms; the burst at 3999 us lands at
  // 4 ms, past the last window.
  EXPECT_EQ(received.load(), uint64_t{OneWaySource::kBurst} * 3999);
  // 4,000 rounds of three chunks each: without recycling across workers
  // the count would reach ~12,000.
  EXPECT_LE(rounds->mailbox_chunks(), 8u * ChunkPool::kBatch);
}

// --- Cross-LP message counter ---

// The window's message count is the number of events that crossed an LP
// boundary through a mailbox or an overflow box. On one partition it is a
// property of the model, not of the schedule: the same for every thread
// count and round-kernel preset (barrier ranks send through overflow boxes,
// the others through wired outboxes), and 0 when there is only one LP.
TEST(MessageCounter, SameForEveryPresetAndThreadCountOnOnePartition) {
  uint64_t reference = 0;
  for (uint32_t threads : {1u, 2u, 4u}) {
    KernelConfig unison;
    unison.type = KernelType::kUnison;
    unison.threads = threads;
    const IncastRun u = RunIncast(unison, PartitionMode::kManual);
    if (threads == 1) {
      reference = u.messages;
      EXPECT_GT(reference, 1000u);
    }
    EXPECT_EQ(u.messages, reference) << "threads=" << threads;
  }
  KernelConfig hybrid;
  hybrid.type = KernelType::kHybrid;
  hybrid.ranks = 2;
  hybrid.threads = 2;
  EXPECT_EQ(RunIncast(hybrid, PartitionMode::kManual).messages, reference);
  KernelConfig barrier;
  barrier.type = KernelType::kBarrier;
  EXPECT_EQ(RunIncast(barrier, PartitionMode::kManual).messages, reference);

  KernelConfig single;
  single.type = KernelType::kUnison;
  single.threads = 2;
  EXPECT_EQ(RunIncast(single, PartitionMode::kSingle).messages, 0u);
}

// --- In-place event construction ---

// Counts the moves and copies of the functor it is, as it travels from the
// scheduling call to its dispatch.
struct MoveCountingEvent {
  struct Counts {
    int moves = 0;
    int copies = 0;
    int moves_at_dispatch = -1;
  };
  Counts* counts;

  explicit MoveCountingEvent(Counts* c) : counts(c) {}
  MoveCountingEvent(MoveCountingEvent&& other) noexcept : counts(other.counts) {
    ++counts->moves;
  }
  MoveCountingEvent(const MoveCountingEvent& other) : counts(other.counts) {
    ++counts->copies;
  }
  void operator()() { counts->moves_at_dispatch = counts->moves; }
};

// A functor handed to the Simulator is built once, where it is dispatched
// from: a local event moves into its FEL slot and out at pop (2 moves); a
// cross-LP one moves into the outbox, into the target's FEL slot at drain,
// and out at pop (3). Never copied. The slabs are pre-sized so that growing
// one (which relocates the events already in it) does not count.
TEST(EventPath, FunctorsAreMovedAtMostThreeTimesAndNeverCopied) {
  TopoGraph g;
  g.num_nodes = 2;
  g.edges.push_back(TopoEdge{0, 1, Time::Microseconds(1), true});
  KernelConfig kc;
  kc.type = KernelType::kUnison;
  kc.threads = 2;
  auto kernel = MakeKernel(kc);
  kernel->Setup(g, FineGrainedPartition(g));
  ASSERT_EQ(kernel->num_lps(), 2u);
  kernel->lp(0)->fel().Reserve(8);
  kernel->lp(1)->fel().Reserve(8);
  Simulator sim(kernel.get());

  MoveCountingEvent::Counts local;
  MoveCountingEvent::Counts remote;
  MoveCountingEvent::Counts setup;
  sim.ScheduleOnNode(0, Time::Microseconds(2), MoveCountingEvent(&setup));
  sim.ScheduleOnNode(0, Time::Microseconds(1), [&] {
    sim.Schedule(Time::Microseconds(3), MoveCountingEvent(&local));
    sim.ScheduleOnNode(1, Time::Microseconds(5), MoveCountingEvent(&remote));
  });
  kernel->Run(Time::Milliseconds(1));

  for (const auto* c : {&setup, &local}) {
    EXPECT_EQ(c->copies, 0);
    ASSERT_GE(c->moves_at_dispatch, 0) << "never dispatched";
    EXPECT_LE(c->moves_at_dispatch, 2);
  }
  EXPECT_EQ(remote.copies, 0);
  ASSERT_GE(remote.moves_at_dispatch, 0) << "never dispatched";
  EXPECT_LE(remote.moves_at_dispatch, 3);
}

// A manual partition that cuts a zero-delay link leaves a null-message
// channel with no lookahead, on which CMB can never promise progress. The
// kernel rejects it at Setup through the single config-error path.
TEST(NullMessageDeathTest, ManualPartitionCuttingZeroDelayLinkIsFatal) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  SimConfig cfg;
  cfg.kernel.type = KernelType::kNullMessage;
  cfg.partition = PartitionMode::kManual;
  Network net(cfg);
  net.AddNodes(2);
  net.AddLink(0, 1, 10'000'000'000ULL, Time::Zero());
  net.SetManualPartition(2, {0, 1});
  EXPECT_DEATH(net.Finalize(), "unison: NullMessageKernel: zero-lookahead channel");
}

}  // namespace
}  // namespace unison
