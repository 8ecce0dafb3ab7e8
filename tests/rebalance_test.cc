// Movable LP ownership (PR 9): PartitionMap semantics, the results-neutrality
// of window-boundary migration (forced move sets at every boundary leave
// fingerprints and digests bit-identical, for every kernel), rebalance under
// auto tuning, and ownership surviving snapshot/fork.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "src/net/session.h"
#include "src/partition/partition_map.h"
#include "src/stats/digest.h"
#include "tests/test_util.h"

namespace unison {
namespace {

// --- PartitionMap unit tests ---

TEST(PartitionMap, ResetStridedAssignsRoundRobinAtEpochZero) {
  PartitionMap map;
  map.ResetStrided(6, 2);
  EXPECT_EQ(map.num_lps(), 6u);
  EXPECT_EQ(map.num_executors(), 2u);
  EXPECT_EQ(map.epoch(), 0u);  // Reset never consumes an epoch.
  EXPECT_EQ(map.owners(), (std::vector<uint32_t>{0, 1, 0, 1, 0, 1}));
  EXPECT_EQ(map.owned(0), (std::vector<uint32_t>{0, 2, 4}));
  EXPECT_EQ(map.owned(1), (std::vector<uint32_t>{1, 3, 5}));
}

TEST(PartitionMap, ApplyStagedFoldsTargetsAndBumpsEpochOnce) {
  PartitionMap map;
  map.ResetStrided(4, 2);  // Owners {0, 1, 0, 1}.
  map.Stage({{0, 1}, {1, 1}, {2, 5}, {0, 0}});
  // lp 0: staged twice, later move wins (stays on 0 — a no-op).
  // lp 1: target equals the current owner — a no-op.
  // lp 2: 5 folds modulo 2 to executor 1 — the only real change.
  EXPECT_TRUE(map.has_staged());
  EXPECT_EQ(map.ApplyStaged(), 1u);
  EXPECT_EQ(map.epoch(), 1u);  // One batch, one epoch — not one per move.
  EXPECT_EQ(map.owners(), (std::vector<uint32_t>{0, 1, 1, 1}));
  EXPECT_EQ(map.owned(0), (std::vector<uint32_t>{0}));
  EXPECT_EQ(map.owned(1), (std::vector<uint32_t>{1, 2, 3}));
  // Nothing staged: apply is a no-op and the epoch holds.
  EXPECT_FALSE(map.has_staged());
  EXPECT_EQ(map.ApplyStaged(), 0u);
  EXPECT_EQ(map.epoch(), 1u);
}

TEST(PartitionMap, StagedMovesBeyondTheLpRangeAreIgnored) {
  PartitionMap map;
  map.ResetStrided(2, 2);
  map.Stage({{9, 0}});
  EXPECT_EQ(map.ApplyStaged(), 0u);
  EXPECT_EQ(map.epoch(), 0u);
}

TEST(PartitionMap, MigrateLpIsTheImmediateSingleMovePath) {
  PartitionMap map;
  map.ResetStrided(3, 3);  // Owners {0, 1, 2}.
  EXPECT_TRUE(map.MigrateLp(0, 2));
  EXPECT_EQ(map.owner(0), 2u);
  EXPECT_EQ(map.epoch(), 1u);
  EXPECT_FALSE(map.MigrateLp(0, 2));  // Already there: no epoch burned.
  EXPECT_EQ(map.epoch(), 1u);
  EXPECT_EQ(map.owned(0), (std::vector<uint32_t>{}));
  EXPECT_EQ(map.owned(2), (std::vector<uint32_t>{0, 2}));
}

TEST(PartitionMap, RestoreReinstallsOwnersAndEpoch) {
  PartitionMap map;
  map.ResetStrided(4, 2);
  map.Restore({1, 1, 0, 3}, 7);  // 3 folds modulo 2 to executor 1.
  EXPECT_EQ(map.epoch(), 7u);
  EXPECT_EQ(map.owners(), (std::vector<uint32_t>{1, 1, 0, 1}));
  EXPECT_EQ(map.owned(0), (std::vector<uint32_t>{2}));
  EXPECT_EQ(map.owned(1), (std::vector<uint32_t>{0, 1, 3}));
}

// --- Forced-migration determinism matrix ---

struct KernelCase {
  const char* name;
  KernelConfig config;
  PartitionMode partition;
};

std::vector<KernelCase> AllKernels() {
  std::vector<KernelCase> cases;
  {
    KernelConfig k;
    k.type = KernelType::kSequential;
    cases.push_back({"sequential", k, PartitionMode::kSingle});
  }
  {
    KernelConfig k;
    k.type = KernelType::kBarrier;
    k.deterministic = true;
    cases.push_back({"barrier", k, PartitionMode::kManual});
  }
  {
    KernelConfig k;
    k.type = KernelType::kNullMessage;
    k.deterministic = true;
    cases.push_back({"nullmsg", k, PartitionMode::kManual});
  }
  {
    KernelConfig k;
    k.type = KernelType::kUnison;
    k.threads = 2;
    cases.push_back({"unison", k, PartitionMode::kAuto});
  }
  {
    KernelConfig k;
    k.type = KernelType::kHybrid;
    k.ranks = 2;
    k.threads = 2;
    cases.push_back({"hybrid", k, PartitionMode::kAuto});
  }
  return cases;
}

class MigrationTransparency
    : public ::testing::TestWithParam<std::tuple<int, uint32_t>> {};

// The tentpole invariant: staging a random LP move set at *every* window
// boundary changes nothing — same fingerprint, same digest, same event and
// flow counts as the never-migrated monolithic run. Which executor runs an
// LP is unobservable in the results.
TEST_P(MigrationTransparency, ForcedMovesAreResultsNeutral) {
  const int kernel_index = std::get<0>(GetParam());
  const uint32_t windows = std::get<1>(GetParam());
  const KernelCase kc = AllKernels()[kernel_index];
  SCOPED_TRACE(std::string(kc.name) + " x " + std::to_string(windows));

  FatTreeScenario base = BuildFatTreeScenarioStreaming(kc.config, kc.partition);
  base.net->Run(Time::Milliseconds(5));
  const RunOutcome want = OutcomeOf(*base.net);
  const RunDigest want_digest = DigestOf(*base.net);
  EXPECT_EQ(base.net->kernel().partition_map().epoch(), 0u);

  FatTreeScenario mig = BuildFatTreeScenarioStreaming(kc.config, kc.partition);
  // Seeded per case: deterministic move sets, including out-of-domain
  // targets that must fold modulo the kernel's executor domain.
  std::mt19937_64 rng(0x9e3779b9ULL * (kernel_index + 1) + windows);
  const int64_t total_ps = Time::Milliseconds(5).ps();
  for (uint32_t w = 1; w <= windows; ++w) {
    Kernel& kernel = mig.net->kernel();
    const uint32_t domain = kernel.partition_map().num_executors();
    std::vector<LpMove> moves;
    for (uint32_t lp = 0; lp < kernel.num_lps(); ++lp) {
      if (rng() % 2 == 0) {
        moves.push_back({lp, static_cast<uint32_t>(rng() % (domain + 2))});
      }
    }
    kernel.StageMigrations(moves);
    const Time stop = w == windows
                          ? Time::Milliseconds(5)
                          : Time::Picoseconds(total_ps * w / windows);
    mig.net->Run(stop);
  }
  const RunOutcome got = OutcomeOf(*mig.net);
  const RunDigest got_digest = DigestOf(*mig.net);

  EXPECT_EQ(got.fingerprint, want.fingerprint);
  EXPECT_EQ(got.events, want.events);
  if (kc.config.type != KernelType::kNullMessage) {
    // Rounds are ownership-independent for the windowed kernels. The
    // null-message kernel's sweep count legitimately varies with executor
    // grouping — a performance effect, not a result.
    EXPECT_EQ(got.rounds, want.rounds);
  }
  EXPECT_EQ(got.summary.completed, want.summary.completed);
  EXPECT_TRUE(got_digest == want_digest);
  if (kc.config.type != KernelType::kSequential) {
    // The schedule above must have actually moved LPs, not vacuously passed.
    EXPECT_GT(mig.net->kernel().partition_map().epoch(), 0u);
  } else {
    // Sequential folds every target into its single executor: no-ops only.
    EXPECT_EQ(mig.net->kernel().partition_map().epoch(), 0u);
  }
}

std::string MigrationCaseName(
    const ::testing::TestParamInfo<std::tuple<int, uint32_t>>& info) {
  static const char* const names[5] = {"sequential", "barrier", "nullmsg",
                                       "unison", "hybrid"};
  return std::string(names[std::get<0>(info.param)]) + "_w" +
         std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    AllKernelsAllSplits, MigrationTransparency,
    ::testing::Combine(::testing::Range(0, 5), ::testing::Values(1u, 2u, 5u)),
    MigrationCaseName);

// --- Rebalance under auto tuning ---

// An aggressive rebalance configuration (patience 1, near-zero imbalance
// threshold, small first windows) over a parallel kernel: whether or not the
// rule fires on this machine's timings, the outcome must match the static
// run bit-for-bit — the controller can only move work, never change results.
TEST(RebalanceTuning, AutoRebalanceIsResultsNeutral) {
  KernelConfig k;
  k.type = KernelType::kHybrid;
  k.ranks = 2;
  k.threads = 2;
  const RunOutcome want = RunFatTreeScenario(k, PartitionMode::kAuto);

  SimConfig cfg;
  cfg.kernel = k;
  cfg.partition = PartitionMode::kAuto;
  cfg.seed = 1;
  cfg.tuning = TuningMode::kAuto;
  cfg.tuning_config.min_rounds = 1;
  cfg.tuning_config.rebalance_patience = 1;
  cfg.tuning_config.rebalance_imbalance_high = 0.01;
  cfg.tuning_config.rebalance_cooldown = 1;
  cfg.tuning_config.initial_window_ps = 500'000'000;  // 0.5 ms slices.
  const RunOutcome got = RunFatTreeScenarioConfigured(cfg, 1);

  EXPECT_EQ(got.fingerprint, want.fingerprint);
  EXPECT_EQ(got.events, want.events);
  EXPECT_EQ(got.summary.completed, want.summary.completed);
}

// --- Snapshot / fork ownership roundtrip ---

// The realized ownership map is session state (USNP v3): a fork resumes with
// the parent's learned placement and the same map epoch, and both timelines
// still land on the never-migrated monolithic outcome.
TEST(RebalanceSnapshot, OwnershipSurvivesForkAndStaysNeutral) {
  KernelConfig k;
  k.type = KernelType::kBarrier;
  k.deterministic = true;
  const RunOutcome mono =
      RunFatTreeScenarioStreaming(k, PartitionMode::kManual, 1);

  FatTreeScenario parent =
      BuildFatTreeScenarioStreaming(k, PartitionMode::kManual);
  parent.net->Run(Time::Milliseconds(1));
  parent.net->kernel().StageMigrations({{0, 3}, {1, 2}});
  parent.net->Run(Time::Milliseconds(2));
  const PartitionMap& pmap = parent.net->kernel().partition_map();
  EXPECT_EQ(pmap.epoch(), 1u);
  EXPECT_EQ(pmap.owner(0), 3u);
  EXPECT_EQ(pmap.owner(1), 2u);
  const std::vector<uint32_t> parent_owners = pmap.owners();

  Session session(parent.net.get());
  const SessionSnapshot snap = session.Snapshot();
  std::unique_ptr<Network> fork = session.Fork(snap);
  EXPECT_EQ(fork->kernel().partition_map().owners(), parent_owners);
  EXPECT_EQ(fork->kernel().partition_map().epoch(), 1u);

  fork->Run(Time::Milliseconds(5));
  EXPECT_EQ(fork->flow_monitor().Fingerprint(), mono.fingerprint);
  EXPECT_EQ(fork->kernel().session_events(), mono.events);

  parent.net->Run(Time::Milliseconds(5));
  EXPECT_EQ(parent.net->flow_monitor().Fingerprint(), mono.fingerprint);
  EXPECT_EQ(parent.net->kernel().session_events(), mono.events);
}

}  // namespace
}  // namespace unison
