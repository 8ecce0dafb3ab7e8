// Load-adaptive scheduling machinery: LPT bounds and the barrier primitives.
// The executor pool that replaced the worker team lives in engine_test.cc.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <numeric>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/barrier_sync.h"
#include "src/core/rng.h"
#include "src/sched/claim_range.h"
#include "src/sched/combining_barrier.h"
#include "src/sched/lpt.h"

namespace unison {
namespace {

TEST(Lpt, SortIsDescendingAndStable) {
  const std::vector<uint64_t> cost = {5, 9, 5, 1, 9};
  const auto order = SortByCostDescending(cost);
  EXPECT_EQ(order, (std::vector<uint32_t>{1, 4, 0, 2, 3}));
}

TEST(Lpt, TiedCostsBreakByAscendingId) {
  // The order must be a pure function of the cost vector: ties resolve to
  // ascending id regardless of how the input happens to be arranged, so
  // repeated runs with identical costs claim LPs in the same order.
  const std::vector<uint64_t> cost = {5, 7, 5, 7};
  EXPECT_EQ(SortByCostDescending(cost), (std::vector<uint32_t>{1, 3, 0, 2}));

  const std::vector<uint64_t> uniform = {3, 3, 3, 3, 3};
  EXPECT_EQ(SortByCostDescending(uniform), (std::vector<uint32_t>{0, 1, 2, 3, 4}));
}

TEST(Lpt, MakespanSmallCases) {
  // Jobs {5,4,3,3,3} on 2 machines: LPT gives {5,3,3}=11 vs {4,3}=7 -> wait,
  // greedy: 5->A, 4->B, 3->B(7), 3->A(8), 3->B(10) => makespan 10.
  const std::vector<uint64_t> cost = {5, 4, 3, 3, 3};
  EXPECT_EQ(ListScheduleMakespan(cost, SortByCostDescending(cost), 2), 10u);
  EXPECT_EQ(OptimalMakespan(cost, 2), 9u);  // {5,4} vs {3,3,3}.
}

TEST(Lpt, SingleWorkerIsSum) {
  const std::vector<uint64_t> cost = {3, 1, 4, 1, 5};
  EXPECT_EQ(ListScheduleMakespan(cost, SortByCostDescending(cost), 1), 14u);
}

TEST(Lpt, AssignmentCoversEveryJob) {
  const std::vector<uint64_t> cost = {8, 7, 6, 5, 4, 3, 2, 1};
  std::vector<uint32_t> assignment;
  const uint64_t makespan =
      ListScheduleMakespan(cost, SortByCostDescending(cost), 3, &assignment);
  ASSERT_EQ(assignment.size(), cost.size());
  std::vector<uint64_t> load(3, 0);
  for (size_t i = 0; i < cost.size(); ++i) {
    ASSERT_LT(assignment[i], 3u);
    load[assignment[i]] += cost[i];
  }
  EXPECT_EQ(*std::max_element(load.begin(), load.end()), makespan);
}

// Graham's bound: LPT makespan <= (4/3 - 1/(3m)) * OPT.
class LptBoundTest : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(LptBoundTest, WithinGrahamBound) {
  const auto [workers, instance] = GetParam();
  Rng rng(1000 + instance, workers);
  std::vector<uint64_t> cost(6 + rng.NextU64Below(5));
  for (auto& c : cost) {
    c = 1 + rng.NextU64Below(50);
  }
  const uint64_t lpt = ListScheduleMakespan(cost, SortByCostDescending(cost), workers);
  const uint64_t opt = OptimalMakespan(cost, workers);
  EXPECT_GE(lpt, opt);
  const double bound = (4.0 / 3.0 - 1.0 / (3.0 * workers));
  EXPECT_LE(static_cast<double>(lpt), bound * static_cast<double>(opt) + 1e-9)
      << "jobs=" << cost.size() << " workers=" << workers;
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, LptBoundTest,
                         ::testing::Combine(::testing::Values(2, 3, 4),
                                            ::testing::Range(0, 25)));

TEST(SpinBarrier, SinglePartyNeverBlocks) {
  SpinBarrier b(1);
  for (int i = 0; i < 1000; ++i) {
    b.Arrive();
  }
}

TEST(SpinBarrier, RoundTripsStayAligned) {
  constexpr int kThreads = 4;
  constexpr int kRounds = 2000;
  SpinBarrier barrier(kThreads);
  std::atomic<int> counter{0};
  std::vector<std::thread> threads;
  std::atomic<bool> failed{false};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int r = 0; r < kRounds; ++r) {
        counter.fetch_add(1);
        barrier.Arrive();
        // Between barriers, the counter must be an exact multiple.
        if (counter.load() < (r + 1) * kThreads) {
          failed = true;
        }
        barrier.Arrive();
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_FALSE(failed.load());
  EXPECT_EQ(counter.load(), kThreads * kRounds);
}

TEST(AtomicTimeMin, ReducesConcurrently) {
  AtomicTimeMin m;
  m.Reset();
  EXPECT_EQ(m.Get(), INT64_MAX);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&m, t] {
      for (int i = 1000; i >= 0; --i) {
        m.Update(static_cast<int64_t>(t) * 10000 + i);
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(m.Get(), 0);
}

// --- ClaimRange: the round kernel's phase-1 claim protocol ---

TEST(ClaimRange, OwnerTakesTheHeadThievesTheTailAndNeverTheLast) {
  ClaimRange range;
  range.Reset(4);
  uint32_t i = 0;
  ASSERT_TRUE(range.StealBack(&i));
  EXPECT_EQ(i, 3u);
  ASSERT_TRUE(range.TakeFront(&i));
  EXPECT_EQ(i, 0u);
  ASSERT_TRUE(range.StealBack(&i));
  EXPECT_EQ(i, 2u);
  // One index left: a thief leaves it to the owner.
  EXPECT_FALSE(range.StealBack(&i));
  ASSERT_TRUE(range.TakeFront(&i));
  EXPECT_EQ(i, 1u);
  EXPECT_FALSE(range.TakeFront(&i));
  EXPECT_FALSE(range.StealBack(&i));
  range.Reset(0);
  EXPECT_FALSE(range.TakeFront(&i));
  EXPECT_FALSE(range.StealBack(&i));
}

// Four workers each own one range and run the kernel's claim loop round
// after round: their own range from the head, then the other ranges in lane
// order from the tail. The barrier's completion step checks each round and
// resets the ranges for the next, as the kernel's prologue does. Every
// index must be taken exactly once; the owner's claims must be a head prefix
// in order, each thief's a descending run above it, and a non-empty range
// must leave at least its last index to its owner — also in the rounds where
// the owner starts late and the thieves reach its range first.
TEST(ClaimRange, FourWorkersClaimEveryIndexExactlyOnce) {
  constexpr uint32_t kWorkers = 4;
  constexpr uint32_t kRounds = 1000;
  const auto size_of = [](uint32_t round, uint32_t range) {
    return (round * 7 + range * 5) % 11;
  };
  std::array<ClaimRange, kWorkers> ranges;
  // Per worker: this round's claims as (range, index), in claim order.
  std::array<std::vector<std::pair<uint32_t, uint32_t>>, kWorkers> claims;
  uint32_t round = 0;
  uint64_t steals = 0;
  std::string failure;  // The first failed check; written by completions.
  for (uint32_t r = 0; r < kWorkers; ++r) {
    ranges[r].Reset(size_of(0, r));
  }

  const auto check_and_reset = [&] {
    for (uint32_t r = 0; r < kWorkers && failure.empty(); ++r) {
      const uint32_t size = size_of(round, r);
      std::vector<int> taken(size, 0);
      uint32_t owner_taken = 0;
      for (uint32_t w = 0; w < kWorkers; ++w) {
        uint32_t last = 0;
        bool first = true;
        for (const auto& [range, index] : claims[w]) {
          if (range != r) {
            continue;
          }
          if (index >= size || ++taken[index] > 1) {
            failure = "index claimed twice or out of range";
          }
          const bool ordered = w == r ? index == owner_taken
                                      : first || index < last;
          if (!ordered) {
            failure = w == r ? "owner skipped the head" : "thief skipped the tail";
          }
          owner_taken += w == r ? 1 : 0;
          steals += w == r ? 0 : 1;
          last = index;
          first = false;
        }
      }
      for (uint32_t i = 0; i < size; ++i) {
        if (taken[i] != 1) {
          failure = "index left unclaimed";
        }
      }
      if (size > 0 && owner_taken == 0) {
        failure = "a thief took the owner's last index";
      }
    }
    ++round;
    for (uint32_t r = 0; r < kWorkers; ++r) {
      ranges[r].Reset(size_of(round, r));
      claims[r].clear();
    }
  };

  CombiningBarrier barrier(kWorkers);
  std::vector<std::thread> threads;
  for (uint32_t w = 0; w < kWorkers; ++w) {
    threads.emplace_back([&, w] {
      for (uint32_t r = 0; r < kRounds; ++r) {
        if (r % kWorkers == w) {
          // Start late so the thieves reach this range first.
          for (int y = 0; y < 3; ++y) {
            std::this_thread::yield();
          }
        }
        uint32_t i = 0;
        while (ranges[w].TakeFront(&i)) {
          claims[w].emplace_back(w, i);
        }
        for (uint32_t hop = 1; hop < kWorkers; ++hop) {
          const uint32_t victim = (w + hop) % kWorkers;
          while (ranges[victim].StealBack(&i)) {
            claims[w].emplace_back(victim, i);
          }
        }
        barrier.Arrive(w, INT64_MAX, 0, 0, check_and_reset);
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(failure, "");
  EXPECT_EQ(round, kRounds);
  EXPECT_GT(steals, 0u);  // The thieves actually raced the owners.
}

}  // namespace
}  // namespace unison
