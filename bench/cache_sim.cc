#include "bench/cache_sim.h"

#include "src/kernel/lp.h"

namespace unison {

CacheSim::CacheSim(const CacheConfig& config) : cfg_(config) {
  num_sets_ = static_cast<uint32_t>(cfg_.size_bytes / cfg_.line_bytes / cfg_.ways);
  lines_.assign(static_cast<size_t>(num_sets_) * cfg_.ways, 0);
  lru_.assign(lines_.size(), 0);
}

void CacheSim::Access(uint64_t addr) {
  ++accesses_;
  ++tick_;
  const uint64_t line = addr / cfg_.line_bytes;
  const uint32_t set = static_cast<uint32_t>(line % num_sets_);
  const uint64_t tag = line / num_sets_ + 1;  // +1 keeps 0 as "empty".
  const size_t base = static_cast<size_t>(set) * cfg_.ways;

  uint32_t victim = 0;
  uint32_t oldest = UINT32_MAX;
  for (uint32_t w = 0; w < cfg_.ways; ++w) {
    if (lines_[base + w] == tag) {
      lru_[base + w] = tick_;
      return;  // Hit.
    }
    // Track the LRU (or first empty) way as the victim.
    const uint32_t age = lines_[base + w] == 0 ? 0 : lru_[base + w];
    if (age < oldest) {
      oldest = age;
      victim = w;
    }
  }
  ++misses_;
  lines_[base + victim] = tag;
  lru_[base + victim] = tick_;
}

void CacheSim::Touch(uint64_t base, uint32_t bytes) {
  for (uint64_t a = base; a < base + bytes; a += cfg_.line_bytes) {
    Access(a);
  }
}

namespace {

void TraceHook(void* ctx, LpId /*lp*/, NodeId node) {
  if (node != kNoNode) {
    static_cast<CacheSim*>(ctx)->OnEvent(node);
  }
}

}  // namespace

void CacheSim::Install() { Lp::SetTraceHook(&TraceHook, this); }
void CacheSim::Uninstall() { Lp::SetTraceHook(nullptr, nullptr); }

}  // namespace unison
