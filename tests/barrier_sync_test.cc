// CombiningBarrier: the fused tree barrier the round kernels synchronize on.
//
// The load-bearing claims: the tree reduction is bit-identical to the flat
// AtomicTimeMin CAS fold regardless of arrival order; a generation's reduced
// values are stable for every party until it arrives for the next generation,
// even under heavy phase skew; stop votes OR through; and waiters follow the
// wait policy of spin_wait.h — the spin is bounded, oversubscribed parties
// never spin, and a spinning waiter yields to a straggler on its own CPU. The
// skew-stress test runs under TSan in CI, which is where barrier bugs
// actually die.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench/barrier_sync.h"
#include "src/kernel/engine/cpu_topology.h"
#include "src/sched/combining_barrier.h"
#include "src/sched/spin_wait.h"

namespace unison {
namespace {

// Deterministic per-(generation, party) contribution so every party can
// recompute the expected reduction without shared state.
int64_t ContribMin(uint32_t gen, uint32_t party) {
  uint64_t x = (static_cast<uint64_t>(gen) << 20) ^ (party * 2654435761u);
  x ^= x >> 15;
  x *= 0x9E3779B97F4A7C15ull;
  x ^= x >> 32;
  return static_cast<int64_t>(x % 1000003);
}

uint64_t ContribCount(uint32_t gen, uint32_t party) {
  return (gen + party) % 17;
}

TEST(CombiningBarrier, SinglePartyCompletesImmediately) {
  CombiningBarrier b(1);
  for (uint32_t gen = 0; gen < 100; ++gen) {
    b.Arrive(0, 42 + gen, gen, gen % 2 ? CombiningBarrier::kStopFlag : 0);
    EXPECT_EQ(b.reduced_min(), 42 + gen);
    EXPECT_EQ(b.reduced_count(), gen);
    EXPECT_EQ(b.reduced_flags(), gen % 2 ? CombiningBarrier::kStopFlag : 0u);
  }
}

// The tree combine must equal the flat CAS fold on the same inputs — this is
// what lets the kernels swap AtomicTimeMin out without a determinism caveat.
TEST(CombiningBarrier, MinMatchesAtomicTimeMinOnRandomInputs) {
  std::mt19937_64 rng(20260807);
  for (uint32_t parties : {1u, 2u, 3u, 4u, 5u, 8u, 13u, 16u, 64u}) {
    CombiningBarrier tree(parties);
    std::vector<int64_t> inputs(parties);
    for (int round = 0; round < 20; ++round) {
      AtomicTimeMin flat;
      flat.Reset();
      for (auto& v : inputs) {
        v = static_cast<int64_t>(rng() % (1ull << 62));
      }
      std::vector<std::thread> threads;
      for (uint32_t p = 1; p < parties; ++p) {
        threads.emplace_back([&, p] {
          flat.Update(inputs[p]);
          tree.Arrive(p, inputs[p], 1, 0);
        });
      }
      flat.Update(inputs[0]);
      tree.Arrive(0, inputs[0], 1, 0);
      const int64_t tree_min = tree.reduced_min();
      const uint64_t tree_count = tree.reduced_count();
      for (auto& t : threads) {
        t.join();
      }
      EXPECT_EQ(tree_min, flat.Get());
      EXPECT_EQ(tree_count, parties);
    }
  }
}

TEST(CombiningBarrier, StopVotesOrAcrossParties) {
  constexpr uint32_t kParties = 6;
  CombiningBarrier b(kParties);
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  // Generation g: party (g % kParties) votes stop; everyone must see it.
  auto body = [&](uint32_t p) {
    for (uint32_t gen = 0; gen < 200; ++gen) {
      const uint32_t flags =
          gen % kParties == p ? CombiningBarrier::kStopFlag : 0;
      b.Arrive(p, INT64_MAX, 0, flags);
      if ((b.reduced_flags() & CombiningBarrier::kStopFlag) == 0) {
        wrong.fetch_add(1, std::memory_order_relaxed);
      }
    }
  };
  for (uint32_t p = 1; p < kParties; ++p) {
    threads.emplace_back(body, p);
  }
  body(0);
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(wrong.load(), 0);
}

// Randomized phase skew: parties sleep random microseconds between arrivals
// for thousands of generations, so arrivals interleave in every order and
// waiters both spin and park. Each party validates the full reduced triple
// after every crossing — reads happen in the window where the result must be
// stable (before that party's next arrival). EXPECT from worker threads is
// not TSan-clean, so mismatches count into an atomic checked at the end.
TEST(CombiningBarrier, RandomizedPhaseSkewStress) {
  constexpr uint32_t kParties = 8;
  constexpr uint32_t kGenerations = 1500;
  CombiningBarrier b(kParties);
  std::atomic<uint64_t> mismatches{0};

  auto expected_min = [](uint32_t gen) {
    int64_t m = INT64_MAX;
    for (uint32_t p = 0; p < kParties; ++p) {
      m = std::min(m, ContribMin(gen, p));
    }
    return m;
  };
  auto expected_count = [](uint32_t gen) {
    uint64_t c = 0;
    for (uint32_t p = 0; p < kParties; ++p) {
      c += ContribCount(gen, p);
    }
    return c;
  };

  auto body = [&](uint32_t p) {
    std::mt19937 rng(p * 7919 + 13);
    for (uint32_t gen = 0; gen < kGenerations; ++gen) {
      if (rng() % 8 == 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(rng() % 200));
      }
      b.Arrive(p, ContribMin(gen, p), ContribCount(gen, p),
               gen % 97 == 0 ? CombiningBarrier::kStopFlag : 0);
      const bool ok = b.reduced_min() == expected_min(gen) &&
                      b.reduced_count() == expected_count(gen) &&
                      b.reduced_flags() ==
                          (gen % 97 == 0 ? CombiningBarrier::kStopFlag : 0u);
      if (!ok) {
        mismatches.fetch_add(1, std::memory_order_relaxed);
      }
    }
  };
  std::vector<std::thread> threads;
  for (uint32_t p = 1; p < kParties; ++p) {
    threads.emplace_back(body, p);
  }
  body(0);
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(mismatches.load(), 0u);
}

// A straggler that arrives long after the spin bound still finds its waiter
// parked: the spin ends on its own.
TEST(CombiningBarrier, StragglerPastTheSpinBoundParks) {
  constexpr uint32_t kGenerations = 20;
  CombiningBarrier b(2);
  std::thread waiter([&] {
    for (uint32_t gen = 0; gen < kGenerations; ++gen) {
      b.Arrive(1);
    }
  });
  for (uint32_t gen = 0; gen < kGenerations; ++gen) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    b.Arrive(0);
  }
  waiter.join();
  // Every generation outlives the bound by ~20x; only a waiter delayed past
  // its straggler's 1 ms sleep could have missed the park.
  EXPECT_GE(b.parks(), kGenerations / 2);
}

// More parties than allowed CPUs: waiters park at once instead of spinning.
// Up to one party per CPU they spin first. The straggler stays busy for 10 us
// before each arrival, far inside the spin bound, so a waiter that spun would
// catch almost every release without parking; one that parks at once parks
// at every wait, i.e. parties - 1 times per generation whatever the arrival
// order.
TEST(CombiningBarrier, OversubscribedPartiesNeverSpin) {
  const uint32_t parties = ProcessCpuCount() + 1;
  EXPECT_FALSE(WaitSpins(parties));
  EXPECT_TRUE(WaitSpins(ProcessCpuCount()));
  EXPECT_TRUE(WaitSpins(ProcessCpuCount() - 1));
  constexpr uint32_t kGenerations = 50;
  CombiningBarrier b(parties);
  std::vector<std::thread> waiters;
  for (uint32_t p = 1; p < parties; ++p) {
    waiters.emplace_back([&, p] {
      for (uint32_t gen = 0; gen < kGenerations; ++gen) {
        b.Arrive(p);
      }
    });
  }
  for (uint32_t gen = 0; gen < kGenerations; ++gen) {
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::microseconds(10);
    while (std::chrono::steady_clock::now() < until) {
    }
    b.Arrive(0);
  }
  for (auto& t : waiters) {
    t.join();
  }
  // A waiter misses the park only when the last arrival lands between its
  // own arrival and its first look at the generation.
  EXPECT_GE(b.parks(), uint64_t{parties - 1} * kGenerations * 3 / 4);
}

// Two parties pinned to one CPU — what wake-up placement does to unpinned
// executors — with a straggler that stays busy for a few microseconds before
// each arrival. A generation's wait is the longer of the two parties' waits
// (the party that arrives last barely waits). The waiter's spin must yield
// the CPU to the straggler: a spin that did not would hold off the arrival
// until the bound ran out, and the median wait would exceed kSpinBoundNs.
TEST(CombiningBarrier, CoLocatedStragglerIsNotStarvedBySpin) {
  if (!WaitSpins(2)) {
    GTEST_SKIP() << "needs 2 allowed CPUs for 2 parties to spin";
  }
  const uint32_t cpu = CpuTopology::Detect().cpus.front().id;
  constexpr uint32_t kGenerations = 400;
  constexpr auto kStraggle = std::chrono::microseconds(2);
  CombiningBarrier b(2);
  std::vector<int64_t> waits[2];
  auto body = [&](uint32_t p) {
    PinCurrentThreadToCpu(cpu);
    waits[p].reserve(kGenerations);
    for (uint32_t gen = 0; gen < kGenerations; ++gen) {
      if (p == 1) {
        const auto until = std::chrono::steady_clock::now() + kStraggle;
        while (std::chrono::steady_clock::now() < until) {
        }
      }
      const auto t0 = std::chrono::steady_clock::now();
      b.Arrive(p);
      waits[p].push_back(std::chrono::duration_cast<std::chrono::nanoseconds>(
                             std::chrono::steady_clock::now() - t0)
                             .count());
    }
  };
  std::thread waiter(body, 0);
  std::thread straggler(body, 1);
  waiter.join();
  straggler.join();
  std::vector<int64_t> longer(kGenerations);
  for (uint32_t gen = 0; gen < kGenerations; ++gen) {
    longer[gen] = std::max(waits[0][gen], waits[1][gen]);
  }
  std::nth_element(longer.begin(), longer.begin() + kGenerations / 2,
                   longer.end());
  EXPECT_LT(longer[kGenerations / 2], kSpinBoundNs / 2);
}

// The completion step (std::barrier's CompletionFunction idiom) runs exactly
// once per generation, on the party that completes the root: it sees the
// published reduction and every party's writes from before its arrival, and
// every party returns only after it ran. The round kernel's end-of-round
// crossing runs the next round's prologue there.
TEST(CombiningBarrier, CompletionRunsOnceBeforeAnyPartyReturns) {
  constexpr uint32_t kGens = 500;
  for (uint32_t parties : {1u, 2u, 5u, 17u}) {
    SCOPED_TRACE("parties=" + std::to_string(parties));
    CombiningBarrier barrier(parties);
    std::vector<uint32_t> arrived_gen(parties, 0);  // Party-private writes.
    uint32_t completions = 0;  // Written only by completions.
    uint32_t bad_completions = 0;
    std::atomic<uint32_t> bad_returns{0};
    std::vector<std::thread> threads;
    for (uint32_t p = 0; p < parties; ++p) {
      threads.emplace_back([&, p] {
        for (uint32_t gen = 0; gen < kGens; ++gen) {
          arrived_gen[p] = gen;
          barrier.Arrive(p, ContribMin(gen, p), ContribCount(gen, p), 0, [&] {
            int64_t want = INT64_MAX;
            for (uint32_t q = 0; q < parties; ++q) {
              want = std::min(want, ContribMin(gen, q));
              bad_completions += arrived_gen[q] == gen ? 0 : 1;
            }
            bad_completions += barrier.reduced_min() == want ? 0 : 1;
            ++completions;
          });
          if (completions != gen + 1) {
            bad_returns.fetch_add(1);
          }
        }
      });
    }
    for (std::thread& t : threads) {
      t.join();
    }
    EXPECT_EQ(completions, kGens);
    EXPECT_EQ(bad_completions, 0u);
    EXPECT_EQ(bad_returns.load(), 0u);
    EXPECT_EQ(barrier.generation(), kGens);
  }
}

}  // namespace
}  // namespace unison
