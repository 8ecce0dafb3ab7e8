// One list's claim range for a round of the round kernel (DESIGN.md §3d).
//
// Each worker owns a list of LPs — the ones it ran last round — and the
// lanes of its group claim from it each round. The unclaimed indices
// [head, tail) are packed into one 64-bit word, so a claim from either end is
// a single CAS and every index is taken exactly once per Reset. The owner
// takes from the head, in the list's LPT priority order; a thief takes from
// the tail, the cheapest end, and only while at least two indices remain:
// the last unclaimed LP is always left to its owner, so a steal can only
// shorten the round, never move the owner's last LP off the core that holds
// its state. The rule has no constant and no cost estimate, so it behaves
// the same under every SchedulingMetric.
//
// The word orders nothing but claims: the list the indices refer to, and the
// LP state behind it, are published by the rounds' barrier crossings.
#ifndef UNISON_SRC_SCHED_CLAIM_RANGE_H_
#define UNISON_SRC_SCHED_CLAIM_RANGE_H_

#include <atomic>
#include <cstdint>

namespace unison {

class ClaimRange {
 public:
  // Opens a round over indices [0, size). Call between rounds, when no
  // worker claims.
  void Reset(uint32_t size) {
    word_.store(Pack(0, size), std::memory_order_relaxed);
  }

  // Owner side: takes the head index. False once the range is empty.
  bool TakeFront(uint32_t* index) {
    uint64_t word = word_.load(std::memory_order_relaxed);
    for (;;) {
      const uint32_t head = Head(word);
      const uint32_t tail = Tail(word);
      if (head >= tail) {
        return false;
      }
      if (word_.compare_exchange_weak(word, Pack(head + 1, tail),
                                      std::memory_order_relaxed)) {
        *index = head;
        return true;
      }
    }
  }

  // Thief side: takes the tail index while at least two indices remain
  // unclaimed. False once fewer remain.
  bool StealBack(uint32_t* index) {
    uint64_t word = word_.load(std::memory_order_relaxed);
    for (;;) {
      const uint32_t head = Head(word);
      const uint32_t tail = Tail(word);
      if (tail - head < 2) {
        return false;
      }
      if (word_.compare_exchange_weak(word, Pack(head, tail - 1),
                                      std::memory_order_relaxed)) {
        *index = tail - 1;
        return true;
      }
    }
  }

 private:
  static uint64_t Pack(uint32_t head, uint32_t tail) {
    return static_cast<uint64_t>(tail) << 32 | head;
  }
  static uint32_t Head(uint64_t word) { return static_cast<uint32_t>(word); }
  static uint32_t Tail(uint64_t word) {
    return static_cast<uint32_t>(word >> 32);
  }

  // Invariant: head <= tail. TakeFront advances head only below tail, and
  // StealBack retreats tail only while tail - head >= 2.
  std::atomic<uint64_t> word_{0};
};

}  // namespace unison

#endif  // UNISON_SRC_SCHED_CLAIM_RANGE_H_
