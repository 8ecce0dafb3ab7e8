// The live tuning plane: TunableStore epoch semantics, each controller rule
// exercised on synthetic window segments, the claim-order drift replay, and
// the network-level closed loop (published tunables take effect at the next
// window without perturbing results).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "bench/claim_drift.h"
#include "src/control/controller.h"
#include "src/control/tunables.h"
#include "src/net/app.h"
#include "src/net/network.h"
#include "src/sched/spin_wait.h"
#include "tests/test_util.h"

namespace unison {
namespace {

// --- TunableStore ---

TEST(TunableStore, SeedDoesNotConsumeAnEpoch) {
  TunableStore store;
  Tunables t;
  t.sched_period = 7;
  t.parties = 3;
  store.Seed(t);
  EXPECT_EQ(store.epoch(), 0u);  // Epoch 0 == "tuning never acted".
  EXPECT_EQ(store.Get().sched_period, 7u);
  EXPECT_EQ(store.Get().parties, 3u);
}

TEST(TunableStore, PublishBumpsEpochAndRestoreSetsBoth) {
  TunableStore store;
  Tunables t;
  t.sched_period = 4;
  store.Publish(t);
  EXPECT_EQ(store.epoch(), 1u);
  t.sched_period = 2;
  store.Publish(t);
  EXPECT_EQ(store.epoch(), 2u);
  EXPECT_EQ(store.Get().sched_period, 2u);

  // Snapshot restore reinstalls captured values *and* the captured epoch.
  Tunables captured;
  captured.sched_period = 9;
  captured.max_window_ps = 123;
  store.Restore(captured, 5);
  EXPECT_EQ(store.epoch(), 5u);
  EXPECT_EQ(store.Get().sched_period, 9u);
  EXPECT_EQ(store.Get().max_window_ps, 123);
}

// --- Controller rules on synthetic segments ---

struct SegmentSpec {
  uint32_t rounds = 8;
  uint32_t executors = 2;   // Width of the per-round P rows.
  uint32_t parties = 2;     // Kernel knob value the window ran with.
  uint32_t sched_period = 8;
  uint64_t parked_per_round = 0;
  uint32_t resort_every = 0;  // 0 = no re-sort rounds at all.
  // Per-round processing imbalance ramps from imb_first at each re-sort to
  // imb_last just before the next (Imb = max * W / sum - 1).
  double imb_first = 0.0;
  double imb_last = 0.0;
  uint64_t p_ns = 500;  // Window totals; ratio p/(p+s) drives rule 3.
  uint64_t s_ns = 500;
  int64_t window_start_ps = 0;
  int64_t window_stop_ps = 1'000'000'000;  // 1 ms span.
};

// One executor gets the (1 + d) / W share of the round's processing time,
// the rest split the remainder evenly — an exact imbalance of d for W = 2.
std::vector<uint64_t> ImbalancedRow(uint32_t executors, double d) {
  const double total = 1e6 * executors;
  const double heavy = (1.0 + d) * total / executors;
  const double light = (total - heavy) / (executors - 1);
  std::vector<uint64_t> row(executors, static_cast<uint64_t>(light));
  row[0] = static_cast<uint64_t>(heavy);
  return row;
}

WindowTraceSegment MakeSegment(const SegmentSpec& spec) {
  WindowTraceSegment seg;
  seg.summary.kernel = "synthetic";
  seg.summary.executors = spec.executors;
  seg.summary.parties = spec.parties;
  seg.summary.sched_period = spec.sched_period;
  seg.summary.rounds = spec.rounds;
  seg.summary.processing_ns = spec.p_ns;
  seg.summary.synchronization_ns = spec.s_ns;
  seg.summary.window_start_ps = spec.window_start_ps;
  seg.summary.window_stop_ps = spec.window_stop_ps;
  for (uint32_t r = 0; r < spec.rounds; ++r) {
    RoundTraceRecord rec;
    rec.round = r;
    rec.parked = spec.parked_per_round;
    rec.resorted = spec.resort_every > 0 && r % spec.resort_every == 0;
    seg.records.push_back(rec);
    double imb = spec.imb_first;
    if (spec.resort_every >= 2) {
      const uint32_t pos = r % spec.resort_every;
      imb += (spec.imb_last - spec.imb_first) * pos / (spec.resort_every - 1);
    }
    seg.round_p.push_back(ImbalancedRow(spec.executors, imb));
  }
  return seg;
}

// A config whose thresholds are the defaults but with the round gate
// pinned. Tests pass a fixed machine size (kCpus unless they need a smaller
// one), so they are host-independent.
ControllerConfig TestConfig() {
  ControllerConfig cfg;
  cfg.min_rounds = 1;
  return cfg;
}
constexpr uint32_t kCpus = 64;

TEST(Controller, ResortDriftMeasuresPerStretchGrowth) {
  SegmentSpec spec;
  spec.rounds = 8;
  spec.resort_every = 4;
  spec.imb_first = 0.1;
  spec.imb_last = 0.4;
  const double drift = Controller::ResortDrift(MakeSegment(spec));
  EXPECT_NEAR(drift, 0.3, 1e-3);  // Both stretches grow 0.1 -> 0.4.
}

TEST(Controller, ResortShrinkHalvesThePeriod) {
  TunableStore store;
  Controller ctl(TestConfig(), kCpus, &store);
  SegmentSpec spec;
  spec.sched_period = 8;
  spec.resort_every = 4;
  spec.imb_first = 0.0;
  spec.imb_last = 0.5;  // Drift 0.5 > kDriftShrink 0.30.
  EXPECT_FALSE(ctl.OnWindowEnd(MakeSegment(spec)));  // Streak 1 of 2.
  EXPECT_TRUE(ctl.OnWindowEnd(MakeSegment(spec)));
  EXPECT_EQ(store.epoch(), 1u);
  EXPECT_EQ(store.Get().sched_period, 4u);
  ASSERT_EQ(ctl.decisions().size(), 1u);
  EXPECT_EQ(ctl.decisions()[0].rule, "resort-shrink");
}

TEST(Controller, ResortGrowDoublesThePeriod) {
  TunableStore store;
  Controller ctl(TestConfig(), kCpus, &store);
  SegmentSpec spec;
  spec.sched_period = 8;
  spec.resort_every = 4;
  spec.imb_first = 0.2;
  spec.imb_last = 0.2;  // Drift 0 < kDriftGrow 0.05: re-sorting buys nothing.
  EXPECT_FALSE(ctl.OnWindowEnd(MakeSegment(spec)));  // Streak 1 of 2.
  EXPECT_TRUE(ctl.OnWindowEnd(MakeSegment(spec)));
  EXPECT_EQ(store.Get().sched_period, 16u);
  ASSERT_EQ(ctl.decisions().size(), 1u);
  EXPECT_EQ(ctl.decisions()[0].rule, "resort-grow");
}

TEST(Controller, OversubscribedFitsPartiesToTheMachine) {
  TunableStore store;
  Controller ctl(TestConfig(), /*cpus=*/4, &store);
  SegmentSpec spec;
  spec.executors = 8;  // Twice the machine.
  spec.parties = 8;
  spec.parked_per_round = 10;  // > parks_per_round_high 1.0.
  EXPECT_TRUE(ctl.OnWindowEnd(MakeSegment(spec)));
  EXPECT_EQ(store.Get().parties, 4u);  // knob * cpus / executors.
  ASSERT_EQ(ctl.decisions().size(), 1u);
  EXPECT_EQ(ctl.decisions()[0].rule, "oversubscribed");
}

// The default threshold separates a two-party run whose waiter parks at each
// of a round's two crossings from one that catches most crossings in the
// spin.
TEST(Controller, OversubscribedDefaultThresholdSplitsParkingFromSpinning) {
  SegmentSpec spec;
  spec.executors = 2;
  spec.parties = 2;
  spec.parked_per_round = 2;
  {
    TunableStore store;
    Controller ctl(TestConfig(), kCpus, &store);
    EXPECT_TRUE(ctl.OnWindowEnd(MakeSegment(spec)));
    EXPECT_EQ(store.Get().parties, 1u);
    ASSERT_EQ(ctl.decisions().size(), 1u);
    EXPECT_EQ(ctl.decisions()[0].rule, "oversubscribed");
  }
  {
    TunableStore store;
    Controller ctl(TestConfig(), kCpus, &store);
    WindowTraceSegment seg = MakeSegment(spec);
    for (RoundTraceRecord& rec : seg.records) {
      rec.parked = rec.round % 2;  // 0.5 parks per round.
    }
    EXPECT_FALSE(ctl.OnWindowEnd(seg));
    EXPECT_TRUE(ctl.decisions().empty());
  }
}

// With one executor per CPU every wait parks at once by policy (2 crossings
// x 3 waiters = 6 parks per round), not because a peer was descheduled: no
// decision.
TEST(Controller, PartiesEqualToTheCpuCountParkByPolicy) {
  TunableStore store;
  Controller ctl(TestConfig(), /*cpus=*/4, &store);
  SegmentSpec spec;
  spec.executors = 4;
  spec.parties = 4;
  spec.parked_per_round = 6;
  EXPECT_FALSE(ctl.OnWindowEnd(MakeSegment(spec)));
  EXPECT_TRUE(ctl.decisions().empty());
  EXPECT_EQ(store.epoch(), 0u);  // Nothing published.
}

TEST(Controller, AffinityFallbackAtThePartyFloor) {
  TunableStore store;
  Tunables seed;
  seed.affinity = AffinityPolicy::kCompact;
  store.Seed(seed);
  Controller ctl(TestConfig(), kCpus, &store);
  SegmentSpec spec;
  spec.executors = 1;  // Already at the floor; parks persist anyway.
  spec.parties = 1;
  spec.parked_per_round = 10;
  EXPECT_TRUE(ctl.OnWindowEnd(MakeSegment(spec)));
  EXPECT_EQ(store.Get().affinity, AffinityPolicy::kNone);
  ASSERT_EQ(ctl.decisions().size(), 1u);
  EXPECT_EQ(ctl.decisions()[0].rule, "affinity-fallback");
}

TEST(Controller, WindowShrinkOnSyncBoundWindows) {
  TunableStore store;
  Controller ctl(TestConfig(), kCpus, &store);
  SegmentSpec spec;
  spec.p_ns = 100;
  spec.s_ns = 900;  // P/(P+S) = 0.1 < ps_low 0.35.
  EXPECT_FALSE(ctl.OnWindowEnd(MakeSegment(spec)));  // Streak 1 of 2.
  EXPECT_TRUE(ctl.OnWindowEnd(MakeSegment(spec)));
  // Unbounded horizon seeds from the observed window span (1 ms), then halves.
  EXPECT_EQ(store.Get().max_window_ps, 500'000'000);
  ASSERT_EQ(ctl.decisions().size(), 1u);
  EXPECT_EQ(ctl.decisions()[0].rule, "window-shrink");

  // Repeated shrink saturates at min_window_ps and stops publishing.
  for (int i = 0; i < 4; ++i) {
    EXPECT_FALSE(ctl.OnWindowEnd(MakeSegment(spec)));
    EXPECT_TRUE(ctl.OnWindowEnd(MakeSegment(spec)));
  }
  EXPECT_EQ(store.Get().max_window_ps, ctl.config().min_window_ps);
  EXPECT_FALSE(ctl.OnWindowEnd(MakeSegment(spec)));
  EXPECT_FALSE(ctl.OnWindowEnd(MakeSegment(spec)));
}

TEST(Controller, WindowGrowRevertsToUnboundedPastTheCap) {
  TunableStore store;
  Tunables seed;
  seed.max_window_ps = 600'000'000'000;  // 0.6 s, one doubling past the cap.
  store.Seed(seed);
  Controller ctl(TestConfig(), kCpus, &store);
  SegmentSpec spec;
  spec.p_ns = 900;
  spec.s_ns = 100;  // P/(P+S) = 0.9 > kPsHigh 0.70.
  EXPECT_FALSE(ctl.OnWindowEnd(MakeSegment(spec)));  // Streak 1 of 2.
  EXPECT_TRUE(ctl.OnWindowEnd(MakeSegment(spec)));
  EXPECT_EQ(store.Get().max_window_ps, 0);
  ASSERT_EQ(ctl.decisions().size(), 1u);
  EXPECT_EQ(ctl.decisions()[0].rule, "window-grow");
}

// With ps_low at or above kPsHigh, a window between the two thresholds
// signals shrink only: the directions are disjoint, so ps_low 1.0 means
// "always shrink" instead of two streaks that zero each other every window.
TEST(Controller, WindowShrinkWinsWhenPsLowIsAbovePsHigh) {
  TunableStore store;
  Tunables seed;
  seed.max_window_ps = 1'000'000'000;  // 1 ms, as tuning=auto seeds it.
  store.Seed(seed);
  ControllerConfig cfg = TestConfig();
  cfg.ps_low = 1.0;
  Controller ctl(cfg, kCpus, &store);
  SegmentSpec spec;
  spec.p_ns = 900;
  spec.s_ns = 100;  // P/(P+S) = 0.9: above kPsHigh, below ps_low.
  for (uint32_t w = 1; w < Controller::kRulePatience; ++w) {
    EXPECT_FALSE(ctl.OnWindowEnd(MakeSegment(spec)));
  }
  EXPECT_TRUE(ctl.OnWindowEnd(MakeSegment(spec)));
  EXPECT_EQ(store.Get().max_window_ps, 500'000'000);
  ASSERT_EQ(ctl.decisions().size(), 1u);
  EXPECT_EQ(ctl.decisions()[0].rule, "window-shrink");
}

// --- Hysteresis (kRulePatience) ---

TEST(Controller, HysteresisDelaysRuleUntilPatienceWindows) {
  TunableStore store;
  Controller ctl(TestConfig(), kCpus, &store);
  SegmentSpec spec;
  spec.p_ns = 100;
  spec.s_ns = 900;  // Window-shrink signal every window.
  EXPECT_FALSE(ctl.OnWindowEnd(MakeSegment(spec)));  // Streak 1 of 2.
  EXPECT_EQ(store.epoch(), 0u);
  EXPECT_TRUE(ctl.OnWindowEnd(MakeSegment(spec)));  // Streak 2: publish.
  ASSERT_EQ(ctl.decisions().size(), 1u);
  EXPECT_EQ(ctl.decisions()[0].rule, "window-shrink");
}

TEST(Controller, HysteresisStreakResetsOnAQuietWindow) {
  TunableStore store;
  Controller ctl(TestConfig(), kCpus, &store);
  SegmentSpec noisy;
  noisy.p_ns = 100;
  noisy.s_ns = 900;
  SegmentSpec quiet;  // Balanced P/S: no signal.
  EXPECT_FALSE(ctl.OnWindowEnd(MakeSegment(noisy)));
  EXPECT_FALSE(ctl.OnWindowEnd(MakeSegment(quiet)));  // Resets the streak.
  EXPECT_FALSE(ctl.OnWindowEnd(MakeSegment(noisy)));  // Restarts at 1.
  EXPECT_TRUE(ctl.OnWindowEnd(MakeSegment(noisy)));
  EXPECT_EQ(store.epoch(), 1u);
}

// --- Round imbalance ---

TEST(Controller, MeanRoundImbalanceAveragesUsableRounds) {
  SegmentSpec spec;
  spec.imb_first = 0.3;  // Constant 0.3 per round (no ramp without re-sorts).
  EXPECT_NEAR(MeanRoundImbalance(MakeSegment(spec).round_p), 0.3, 1e-3);
}

TEST(Controller, MinRoundsGateSkipsThinWindows) {
  TunableStore store;
  ControllerConfig cfg = TestConfig();
  cfg.min_rounds = 8;
  Controller ctl(cfg, kCpus, &store);
  SegmentSpec spec;
  spec.rounds = 3;
  spec.parked_per_round = 100;  // Would otherwise certainly fire rule 1.
  spec.parties = 8;
  spec.executors = 8;
  EXPECT_FALSE(ctl.OnWindowEnd(MakeSegment(spec)));
  EXPECT_EQ(store.epoch(), 0u);
  EXPECT_TRUE(ctl.decisions().empty());
}

TEST(Controller, QuietWindowPublishesNothing) {
  TunableStore store;
  Controller ctl(TestConfig(), kCpus, &store);
  SegmentSpec spec;  // Balanced P/S, no parks, no re-sorts.
  for (uint32_t i = 0; i < Controller::kRulePatience; ++i) {
    EXPECT_FALSE(ctl.OnWindowEnd(MakeSegment(spec)));
  }
  EXPECT_EQ(store.epoch(), 0u);
}

// --- Claim-order drift replay ---

TEST(DriftReplay, UniformCostsMakeStalenessFree) {
  const std::vector<std::vector<uint64_t>> costs(16,
                                                 std::vector<uint64_t>(8, 5));
  const auto curve = ReplayClaimOrderDrift(costs, 4, {1, 2, 4, 8});
  ASSERT_EQ(curve.size(), 4u);
  for (const DriftReplayPoint& pt : curve) {
    EXPECT_DOUBLE_EQ(pt.makespan_ratio, 1.0);
  }
  EXPECT_EQ(RecommendPeriod(curve, 0.05), 8u);
}

TEST(DriftReplay, RotatingHotspotPenalizesStaleOrders) {
  // One heavy LP whose position rotates each round: a never-re-sorted id
  // order schedules the heavy LP late and eats its cost on top of an already
  // loaded worker, while the every-round oracle leads with it.
  const uint32_t rounds = 24;
  const uint32_t lps = 6;
  std::vector<std::vector<uint64_t>> costs(rounds,
                                           std::vector<uint64_t>(lps, 1));
  for (uint32_t r = 0; r < rounds; ++r) {
    costs[r][r % lps] = 100;
  }
  const auto curve = ReplayClaimOrderDrift(costs, 2, {1, rounds});
  ASSERT_EQ(curve.size(), 2u);
  for (const DriftReplayPoint& pt : curve) {
    // The sorted-descending oracle is optimal here, so no order beats it.
    EXPECT_GE(pt.makespan_ratio, 1.0);
  }
  EXPECT_GT(curve[1].makespan_ratio, 1.0001);
}

TEST(DriftReplay, DeterministicAndZeroRoundsSkipped) {
  std::vector<std::vector<uint64_t>> costs(10, std::vector<uint64_t>(5, 0));
  uint64_t x = 1;
  for (auto& round : costs) {
    for (auto& c : round) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      c = x >> 60;  // Small pseudo-costs, some zero.
    }
  }
  costs[3].assign(5, 0);  // A whole round with nothing to schedule.
  const auto a = ReplayClaimOrderDrift(costs, 3, {1, 2, 4});
  const auto b = ReplayClaimOrderDrift(costs, 3, {1, 2, 4});
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].staleness, b[i].staleness);
    EXPECT_DOUBLE_EQ(a[i].makespan_ratio, b[i].makespan_ratio);
  }

  const std::vector<std::vector<uint64_t>> empty(8,
                                                 std::vector<uint64_t>(4, 0));
  const auto flat = ReplayClaimOrderDrift(empty, 2, {1, 4});
  for (const DriftReplayPoint& pt : flat) {
    EXPECT_DOUBLE_EQ(pt.makespan_ratio, 1.0);  // Nothing counted.
  }
}

TEST(DriftReplay, RecommendPeriodPicksLargestWithinTolerance) {
  const std::vector<DriftReplayPoint> curve = {
      {1, 1.00}, {2, 1.02}, {4, 1.04}, {8, 1.50}};
  EXPECT_EQ(RecommendPeriod(curve, 0.05), 4u);
  EXPECT_EQ(RecommendPeriod(curve, 0.60), 8u);
  EXPECT_EQ(RecommendPeriod(curve, 0.001), 1u);
  // Baseline is the smallest staleness regardless of input order.
  const std::vector<DriftReplayPoint> shuffled = {
      {8, 1.50}, {1, 1.00}, {4, 1.04}};
  EXPECT_EQ(RecommendPeriod(shuffled, 0.05), 4u);
  EXPECT_EQ(RecommendPeriod({}, 0.05), 1u);
}

// --- Network-level closed loop ---

// A mid-session Publish takes effect at the next window: the kernel samples
// the store before releasing workers, shrinks its party count, and the
// session still lands bit-identical to an untouched run (thread-count
// invariance + window-slicing neutrality).
TEST(TuningPlane, PublishedTunablesTakeEffectNextWindow) {
  KernelConfig kcfg;
  kcfg.type = KernelType::kUnison;
  kcfg.threads = 4;

  FatTreeScenario s = BuildFatTreeScenarioStreaming(kcfg, PartitionMode::kAuto);
  s.net->Run(Time::Milliseconds(1));
  EXPECT_EQ(s.net->kernel().window_tuning().epoch, 0u);
  EXPECT_EQ(s.net->kernel().window_tuning().parties, 4u);

  Tunables t = s.net->tunable_store().Get();
  t.sched_period = 1;
  t.parties = 1;
  s.net->tunable_store().Publish(t);
  s.net->Run(Time::Milliseconds(2));
  EXPECT_EQ(s.net->kernel().window_tuning().epoch, 1u);
  EXPECT_EQ(s.net->kernel().window_tuning().parties, 1u);
  EXPECT_EQ(s.net->kernel().window_tuning().sched_period, 1u);
  EXPECT_EQ(s.net->kernel().run_summary().tuning_epoch, 1u);

  s.net->Run(Time::Milliseconds(5));
  const RunOutcome tuned = OutcomeOf(*s.net);
  const RunOutcome reference =
      RunFatTreeScenarioStreaming(kcfg, PartitionMode::kAuto);
  EXPECT_EQ(tuned.fingerprint, reference.fingerprint);
  EXPECT_EQ(tuned.events, reference.events);
}

// Party values above the config default are clamped (per-executor state is
// sized at Finalize), and 0 means "keep the default".
TEST(TuningPlane, PartiesClampToConfigDefault) {
  KernelConfig kcfg;
  kcfg.type = KernelType::kUnison;
  kcfg.threads = 2;

  FatTreeScenario s = BuildFatTreeScenarioStreaming(kcfg, PartitionMode::kAuto);
  Tunables t = s.net->tunable_store().Get();
  t.parties = 16;  // Above the config default of 2.
  s.net->tunable_store().Publish(t);
  s.net->Run(Time::Milliseconds(1));
  EXPECT_EQ(s.net->kernel().window_tuning().parties, 2u);

  t.parties = 0;  // Keep the default.
  s.net->tunable_store().Publish(t);
  s.net->Run(Time::Milliseconds(2));
  EXPECT_EQ(s.net->kernel().window_tuning().parties, 2u);
}

// kAuto end to end: an aggressive controller config guarantees at least one
// decision (window-shrink fires whenever any barrier time is observed), the
// run slices itself into more windows than the caller asked for, and the
// result is still bit-identical to the static run. The controller reads only
// the newest window, so without a trace the session keeps one segment however
// many windows it runs (a long run's memory stays flat); the traced twin keeps
// one segment per window for the export.
TEST(TuningPlane, AutoTuningIsResultsNeutral) {
  KernelConfig kcfg;
  kcfg.type = KernelType::kUnison;
  kcfg.threads = 2;

  const RunOutcome off = RunFatTreeScenario(kcfg, PartitionMode::kAuto);

  for (const bool trace : {false, true}) {
    SCOPED_TRACE(trace ? "traced" : "untraced");
    SimConfig cfg;
    cfg.kernel = kcfg;
    cfg.partition = PartitionMode::kAuto;
    cfg.tuning = TuningMode::kAuto;
    cfg.trace = trace;
    cfg.tuning_config.min_rounds = 1;
    cfg.tuning_config.ps_low = 1.0;  // Shrink on every window with sync time.
    // 0.1 ms slices, so the traffic's 0.35 ms of activity spans the two
    // windows the rule's patience needs; floor at 50 us.
    cfg.tuning_config.initial_window_ps = 100'000'000;
    cfg.tuning_config.min_window_ps = 50'000'000;

    Network net(cfg);
    FatTreeTopo topo = BuildFatTree(net, 4, 10'000'000'000ULL,
                                    Time::Microseconds(3));
    net.Finalize();
    GeneratePermutation(net, topo.hosts, 200 * 1024, Time::Zero());
    TrafficSpec traffic;
    traffic.hosts = topo.hosts;
    traffic.bisection_bps = topo.bisection_bps;
    traffic.load = 0.1;
    traffic.duration = Time::Milliseconds(5);
    GenerateTraffic(net, traffic);
    net.Run(Time::Milliseconds(5));

    ASSERT_NE(net.controller(), nullptr);
    EXPECT_FALSE(net.controller()->decisions().empty());
    EXPECT_GT(net.tunable_store().epoch(), 0u);
    // The controller bounded the horizon, so one Run() became several
    // windows.
    EXPECT_GE(net.kernel().session_windows(), 3u);
    EXPECT_EQ(net.run_trace().segments().size(),
              trace ? net.kernel().session_windows() : 1u);

    const RunOutcome tuned = OutcomeOf(net);
    EXPECT_EQ(tuned.fingerprint, off.fingerprint);
    EXPECT_EQ(tuned.events, off.events);
  }
}

// A sync-bound run that fits the machine: 2 unpinned threads on a 4-site WAN
// ring whose 100 ns cut links hold every round to a few events. Its waiters
// catch most of a round's crossings in the spin, so the oversubscription
// rule must stay quiet and the run keeps both parties.
TEST(TuningPlane, SyncBoundRunThatFitsIsNotOversubscribed) {
  if (!WaitSpins(2)) {
    GTEST_SKIP() << "needs 3 allowed CPUs for 2 parties to spin";
  }
  constexpr uint32_t kSites = 4;
  constexpr uint32_t kHostsPerSite = 4;
  constexpr uint64_t kBps = 10'000'000'000ULL;
  SimConfig cfg;
  cfg.kernel.type = KernelType::kUnison;
  cfg.kernel.threads = 2;
  cfg.partition = PartitionMode::kManual;
  cfg.tuning = TuningMode::kAuto;
  Network net(cfg);
  std::vector<NodeId> routers;
  std::vector<std::vector<NodeId>> hosts(kSites);
  std::vector<LpId> lp_of_node;
  for (uint32_t s = 0; s < kSites; ++s) {
    routers.push_back(net.AddNode());
    lp_of_node.push_back(s);
    for (uint32_t h = 0; h < kHostsPerSite; ++h) {
      hosts[s].push_back(net.AddNode());
      lp_of_node.push_back(s);
      net.AddLink(hosts[s][h], routers[s], kBps, Time::Microseconds(1));
    }
  }
  for (uint32_t s = 0; s < kSites; ++s) {
    net.AddLink(routers[s], routers[(s + 1) % kSites], kBps,
                Time::Nanoseconds(100));
  }
  net.SetManualPartition(kSites, std::move(lp_of_node));
  net.Finalize();
  FlowSpec flow;
  for (uint32_t s = 0; s < kSites; ++s) {
    for (uint32_t h = 0; h < kHostsPerSite; ++h) {
      flow.src = hosts[s][h];
      flow.dst = h + 1 < kHostsPerSite ? hosts[s][h + 1]
                                       : hosts[(s + 1) % kSites][0];
      flow.bytes = 256 * 1024;
      flow.start = Time::Nanoseconds(700 * (s * kHostsPerSite + h));
      InstallFlow(net, flow);
    }
  }
  net.Run(Time::Milliseconds(2));

  ASSERT_NE(net.controller(), nullptr);
  EXPECT_GT(net.kernel().session_rounds(), 1000u);
  for (const Controller::Decision& d : net.controller()->decisions()) {
    EXPECT_EQ(d.rule.find("oversubscribed"), std::string::npos)
        << "window " << d.window << ": " << d.rule;
  }
  EXPECT_EQ(net.kernel().window_tuning().parties, 2u);
}

// The same at network scale: a k=4 fat-tree under web-search load on 4
// threads with tuning=auto. Where exactly 4 CPUs are allowed, the waiters
// park by policy and the run must keep its 4 parties; with more CPUs they
// spin, and parks stay rare.
TEST(TuningPlane, RunWithOnePartyPerCpuIsNotOversubscribed) {
  if (ProcessCpuCount() < 4) {
    GTEST_SKIP() << "needs 4 allowed CPUs";
  }
  SimConfig cfg;
  cfg.kernel.type = KernelType::kUnison;
  cfg.kernel.threads = 4;
  cfg.tuning = TuningMode::kAuto;
  Network net(cfg);
  FatTreeTopo topo =
      BuildFatTree(net, 4, 10'000'000'000ULL, Time::Microseconds(3));
  net.Finalize();
  TrafficSpec traffic;
  traffic.hosts = topo.hosts;
  traffic.bisection_bps = topo.bisection_bps;
  traffic.load = 0.5;
  traffic.duration = Time::Milliseconds(2);
  InstallFlowSources(net, traffic);
  net.Run(Time::Milliseconds(2));

  ASSERT_NE(net.controller(), nullptr);
  for (const Controller::Decision& d : net.controller()->decisions()) {
    EXPECT_EQ(d.rule.find("oversubscribed"), std::string::npos)
        << "window " << d.window << ": " << d.rule;
  }
}

}  // namespace
}  // namespace unison
