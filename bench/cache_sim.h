// Set-associative LRU cache simulator.
//
// Hardware cache counters are unavailable in this environment, so the cache
// claims of fine-grained partition (Fig. 12a/12b, §4.1's cache-affinity
// argument) are reproduced by replaying each executed event's node-state
// footprint through this model: an event touches its node's state block, so
// an execution order that groups events of few nodes together (many small
// LPs) reuses lines, while a global time-ordered interleaving (one big LP)
// thrashes.
#ifndef UNISON_BENCH_CACHE_SIM_H_
#define UNISON_BENCH_CACHE_SIM_H_

#include <cstdint>
#include <vector>

#include "src/core/event.h"

namespace unison {

struct CacheConfig {
  uint64_t size_bytes = 1 << 20;  // L2-sized by default.
  uint32_t line_bytes = 64;
  uint32_t ways = 8;
  // Modeled per-event footprint: bytes of node state touched per event.
  uint32_t node_state_bytes = 2048;
};

class CacheSim {
 public:
  explicit CacheSim(const CacheConfig& config);

  // One cache access to `addr`.
  void Access(uint64_t addr);

  // Touches the byte range [base, base + bytes).
  void Touch(uint64_t base, uint32_t bytes);

  // Models one simulation event on `node`: touches that node's state block.
  void OnEvent(NodeId node) {
    Touch(static_cast<uint64_t>(node) * kNodeStride, cfg_.node_state_bytes);
  }

  uint64_t accesses() const { return accesses_; }
  uint64_t misses() const { return misses_; }
  double MissRatio() const {
    return accesses_ == 0 ? 0.0
                          : static_cast<double>(misses_) / static_cast<double>(accesses_);
  }

  // Installs this simulator as the global per-event trace hook. Only valid
  // for single-threaded runs (the hook is process-global); remove with
  // Uninstall before the simulator dies.
  void Install();
  static void Uninstall();

 private:
  static constexpr uint64_t kNodeStride = 1 << 16;  // Node address spacing.

  const CacheConfig cfg_;
  uint32_t num_sets_ = 0;
  // lines_[set * ways + way] = tag (0 = empty); lru_ holds per-line ages.
  std::vector<uint64_t> lines_;
  std::vector<uint32_t> lru_;
  uint32_t tick_ = 0;
  uint64_t accesses_ = 0;
  uint64_t misses_ = 0;
};

}  // namespace unison

#endif  // UNISON_BENCH_CACHE_SIM_H_
