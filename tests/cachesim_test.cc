// Cache simulator: LRU mechanics and the fine-grained-partition effect.
#include <gtest/gtest.h>

#include "bench/cache_sim.h"
#include "tests/test_util.h"

namespace unison {
namespace {

CacheConfig SmallCache() {
  CacheConfig cfg;
  cfg.size_bytes = 8192;  // 128 lines.
  cfg.line_bytes = 64;
  cfg.ways = 4;
  cfg.node_state_bytes = 512;
  return cfg;
}

TEST(CacheSim, RepeatedAccessHits) {
  CacheSim c(SmallCache());
  c.Access(0x1000);
  EXPECT_EQ(c.misses(), 1u);
  for (int i = 0; i < 100; ++i) {
    c.Access(0x1000);
  }
  EXPECT_EQ(c.misses(), 1u);
  EXPECT_EQ(c.accesses(), 101u);
}

TEST(CacheSim, WorkingSetLargerThanCacheThrashes) {
  CacheSim c(SmallCache());
  // 1024 distinct lines cycled twice through a 128-line cache: ~every access
  // misses.
  for (int pass = 0; pass < 2; ++pass) {
    for (uint64_t line = 0; line < 1024; ++line) {
      c.Access(line * 64);
    }
  }
  EXPECT_GT(c.MissRatio(), 0.95);
}

TEST(CacheSim, LruEvictsOldestWithinSet) {
  CacheConfig cfg = SmallCache();
  cfg.ways = 2;
  CacheSim c(cfg);
  const uint32_t sets = static_cast<uint32_t>(cfg.size_bytes / 64 / 2);
  // Three tags mapping to set 0.
  const uint64_t a = 0;
  const uint64_t b = static_cast<uint64_t>(sets) * 64;
  const uint64_t d = 2ull * sets * 64;
  c.Access(a);
  c.Access(b);
  c.Access(a);  // a is now MRU.
  c.Access(d);  // Evicts b.
  EXPECT_EQ(c.misses(), 3u);
  c.Access(a);  // Still resident.
  EXPECT_EQ(c.misses(), 3u);
  c.Access(b);  // Was evicted: miss.
  EXPECT_EQ(c.misses(), 4u);
}

TEST(CacheSim, GroupedNodeOrderBeatsInterleaved) {
  // The §4.1 cache-affinity argument in miniature: the same multiset of
  // events, grouped per node vs. interleaved across 64 nodes.
  CacheConfig cfg = SmallCache();
  cfg.node_state_bytes = 1024;  // 16 lines per node; 64 nodes >> cache.
  CacheSim grouped(cfg);
  for (uint32_t node = 0; node < 64; ++node) {
    for (int e = 0; e < 50; ++e) {
      grouped.OnEvent(node);
    }
  }
  CacheSim interleaved(cfg);
  for (int e = 0; e < 50; ++e) {
    for (uint32_t node = 0; node < 64; ++node) {
      interleaved.OnEvent(node);
    }
  }
  EXPECT_LT(grouped.misses() * 5, interleaved.misses());
}

TEST(CacheSim, TraceHookCountsSimulationEvents) {
  CacheConfig cfg;
  CacheSim sim(cfg);
  sim.Install();
  KernelConfig k;
  k.type = KernelType::kSequential;
  const RunOutcome o = RunFatTreeScenario(k, PartitionMode::kSingle);
  CacheSim::Uninstall();
  EXPECT_GT(o.events, 0u);
  EXPECT_GT(sim.accesses(), o.events);  // Several lines per event.
}

TEST(CacheSim, FinerPartitionReducesMisses) {
  // Run the same scenario with one LP vs. fine-grained LPs (both single
  // threaded); the fine-grained execution order must miss less.
  auto run = [](PartitionMode mode) {
    CacheConfig cfg;
    cfg.size_bytes = 64 * 1024;  // Small enough that 36 nodes don't all fit.
    cfg.node_state_bytes = 4096;
    CacheSim sim(cfg);
    sim.Install();
    KernelConfig k;
    k.type = mode == PartitionMode::kSingle ? KernelType::kSequential
                                            : KernelType::kUnison;
    k.threads = 1;
    RunFatTreeScenario(k, mode);
    CacheSim::Uninstall();
    return sim;
  };
  const CacheSim coarse = run(PartitionMode::kSingle);
  const CacheSim fine = run(PartitionMode::kAuto);
  EXPECT_EQ(coarse.accesses(), fine.accesses());  // Same events either way.
  EXPECT_LT(fine.misses(), coarse.misses());
}

}  // namespace
}  // namespace unison
