// Randomized cross-axis differential test. The fixed matrices each sweep one
// transparency axis; here every seed draws a point across all of them at
// once — kernel preset (the three round-kernel presets and null-message),
// thread count, window split, speculation, and a snapshot/fork at one of the
// window stops before the last — and the sequential kernel is the oracle:
// the fingerprint and the digest must match it exactly (deterministic total
// ordering makes any other outcome a bug). Draws with speculation also check the
// incremental checkpoint store against the full reference encoder after
// every window that captured. A failure prints a one-line reproducer holding
// the seed and every drawn axis value.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "src/net/session.h"
#include "src/stats/digest.h"
#include "tests/test_util.h"

namespace unison {
namespace {

constexpr int kSimMs = 5;

struct Axes {
  uint64_t seed = 0;
  KernelConfig kernel;
  PartitionMode partition = PartitionMode::kAuto;
  std::vector<int64_t> stops_ps;  // Window stop times, ascending.
  int64_t spec_horizon_ps = 0;    // 0 = speculation off.
  int64_t fork_at_ps = 0;         // A window stop to fork at; 0 = no fork.
};

Axes Draw(uint64_t seed) {
  std::mt19937_64 rng(seed);
  Axes a;
  a.seed = seed;
  const uint32_t threads[] = {1, 2, 4};
  a.kernel.threads = threads[rng() % 3];
  switch (rng() % 4) {
    case 0:
      a.kernel.type = KernelType::kBarrier;
      a.partition = PartitionMode::kManual;  // One rank per pod.
      break;
    case 1:
      a.kernel.type = KernelType::kUnison;
      break;
    case 2:
      a.kernel.type = KernelType::kHybrid;
      a.kernel.ranks = 1 + static_cast<uint32_t>(rng() % 3);
      break;
    default:
      a.kernel.type = KernelType::kNullMessage;
      a.partition = PartitionMode::kManual;  // One LP per pod.
      break;
  }
  const int64_t total_ps = Time::Milliseconds(kSimMs).ps();
  const uint32_t cuts = static_cast<uint32_t>(rng() % 5);
  for (uint32_t i = 0; i < cuts; ++i) {
    a.stops_ps.push_back(1 + static_cast<int64_t>(rng() % (total_ps - 1)));
  }
  a.stops_ps.push_back(total_ps);
  std::sort(a.stops_ps.begin(), a.stops_ps.end());
  a.stops_ps.erase(std::unique(a.stops_ps.begin(), a.stops_ps.end()),
                   a.stops_ps.end());
  if (rng() % 2 == 1) {
    // Log-uniform from 100 ns to 10 ms: from far below the 3 us lookahead
    // (hits) to far past it (forced misses and rollbacks).
    const double exponent = 5.0 + 5.0 * static_cast<double>(rng() % 1001) / 1000.0;
    a.spec_horizon_ps = static_cast<int64_t>(std::pow(10.0, exponent));
  }
  // The fork is drawn from the stops before the last one, or none: a fork at
  // the last stop would run no window.
  const size_t fork_pick = rng() % a.stops_ps.size();
  if (fork_pick + 1 < a.stops_ps.size()) {
    a.fork_at_ps = a.stops_ps[fork_pick];
  }
  return a;
}

std::string Reproducer(const Axes& a) {
  const char* preset = a.kernel.type == KernelType::kBarrier       ? "barrier"
                       : a.kernel.type == KernelType::kHybrid      ? "hybrid"
                       : a.kernel.type == KernelType::kNullMessage ? "nullmsg"
                                                                   : "unison";
  std::string s = "reproduce: seed=" + std::to_string(a.seed) +
                  " preset=" + preset +
                  " threads=" + std::to_string(a.kernel.threads);
  if (a.kernel.type == KernelType::kHybrid) {
    s += " ranks=" + std::to_string(a.kernel.ranks);
  }
  s += " stops_ps=";
  for (size_t i = 0; i < a.stops_ps.size(); ++i) {
    s += (i == 0 ? "" : ",") + std::to_string(a.stops_ps[i]);
  }
  s += a.spec_horizon_ps > 0
           ? " speculation=auto horizon_ps=" + std::to_string(a.spec_horizon_ps)
           : std::string(" speculation=off");
  s += a.fork_at_ps > 0 ? " fork_at=" + std::to_string(a.fork_at_ps)
                        : std::string(" fork_at=none");
  return s;
}

// The k=4 fat-tree scenario with permutation flows plus streaming Poisson
// load, traffic drawn from the case seed. Runs one Run() per stop time and,
// when `a` is non-null, forks at `a->fork_at_ps`: the windows after it run on
// the fork, which borrows the parent's executors.
RunDigest RunScenario(const KernelConfig& kernel, PartitionMode partition,
                      uint64_t seed, const Axes* a) {
  SimConfig cfg;
  cfg.kernel = kernel;
  cfg.partition = partition;
  cfg.seed = seed;
  if (a != nullptr && a->spec_horizon_ps > 0) {
    cfg.speculation = SpeculationMode::kAuto;
    cfg.tuning_config.spec_horizon_initial_ps = a->spec_horizon_ps;
  }
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
  traffic.duration = Time::Milliseconds(kSimMs);
  InstallFlowSources(net, traffic);

  if (a == nullptr) {
    net.Run(Time::Milliseconds(kSimMs));
    return DigestOf(net);
  }
  // The speculation checkpoint store must hold, after every window whose
  // capture succeeded, exactly what the reference encoder returned at that
  // window's boundary. The reference is taken inside the kernel's capture
  // hook, so draws that never capture run exactly as without the check.
  std::vector<uint8_t> reference;
  auto check_store = [&reference](Network* n) {
    if (n->checkpoint_store() == nullptr) {
      return;
    }
    n->kernel().set_checkpoint_hooks(
        [n, &reference] {
          CaptureWindowCheckpoint(*n, &reference);
          return CaptureCheckpointStore(*n);
        },
        [n] { RollBackCheckpointStore(*n); });
  };
  std::unique_ptr<Network> fork;
  Network* live = &net;
  check_store(live);
  for (int64_t stop_ps : a->stops_ps) {
    Kernel& k = live->kernel();
    const uint64_t captures = k.spec_checkpoint().captures();
    live->Run(Time::Picoseconds(stop_ps));
    if (k.spec_checkpoint().captures() > captures) {
      EXPECT_TRUE(AssembleCheckpointStore(*live) == reference)
          << "store differs at the window ending " << stop_ps << " ps; "
          << Reproducer(*a);
    }
    if (stop_ps == a->fork_at_ps) {
      Session session(&net);
      fork = session.Fork(session.Snapshot());
      live = fork.get();
      check_store(live);
    }
  }
  return DigestOf(*live);
}

class CrossAxisDifferential : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CrossAxisDifferential, MatchesSequentialOracle) {
  const Axes a = Draw(GetParam());
  const std::string repro = Reproducer(a);
  KernelConfig seq;
  seq.type = KernelType::kSequential;
  const RunDigest want =
      RunScenario(seq, PartitionMode::kSingle, a.seed, nullptr);
  const RunDigest got = RunScenario(a.kernel, a.partition, a.seed, &a);
  EXPECT_EQ(got.flow_fingerprint, want.flow_fingerprint) << repro;
  EXPECT_EQ(got.event_count, want.event_count) << repro;
  EXPECT_TRUE(got == want) << repro;
}

std::string SeedName(const ::testing::TestParamInfo<uint64_t>& info) {
  return "seed" + std::to_string(info.param);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrossAxisDifferential,
                         ::testing::Range<uint64_t>(1, 9), SeedName);

// The wide sweep: 256 more draws, disabled so that ctest lists but skips
// them. Run them with --gtest_also_run_disabled_tests
// --gtest_filter='DISABLED_Wide/*'.
INSTANTIATE_TEST_SUITE_P(DISABLED_Wide, CrossAxisDifferential,
                         ::testing::Range<uint64_t>(9, 265), SeedName);

}  // namespace
}  // namespace unison
