// The one wait policy behind every executor wait: the combining barrier's
// crossings and the executor pool's run-epoch and completion waits.
//
// When the waiting parties leave at least one of the process's allowed CPUs
// free, a waiter polls with a CPU pause hint for up to kSpinBoundNs before it
// parks in the futex. A round of a sync-bound run lasts a few microseconds,
// so a park and a wake-up per crossing, each several microseconds, would cost
// more than the round itself. The bound is wall time rather than a count of
// polls, so it does not drift with the latency of the pause instruction (10
// to 140 cycles across x86 generations), and a straggler that is really late
// costs its waiters at most kSpinBoundNs of CPU before they park.
//
// The spin yields the CPU every kSpinChunkNs. That is not optional: wake-up
// placement co-locates unpinned executors (two of them often end up on one
// CPU), and a waiter that spins without yielding on its straggler's CPU holds
// off the very arrival it waits for until its bound runs out. With two
// parties pinned to one vCPU and a 2 us busy straggler, the median wait per
// generation was ~108 us for a pure 50 us spin, ~7 us for parking at once and
// ~10 us for the yielding spin.
//
// Otherwise a waiter parks at once. With more parties than CPUs some party is
// always descheduled. With exactly as many, any other runnable thread — the
// OS, another process on a shared host — preempts a party, and its peers
// then spin against a descheduled straggler: on a 4-vCPU VM shared with other
// tenants, a 4-party hybrid run (bench_rebalance, static) took ~39 ms with
// spinning waiters and ~28 ms with parking ones.
#ifndef UNISON_SRC_SCHED_SPIN_WAIT_H_
#define UNISON_SRC_SCHED_SPIN_WAIT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>

#include "src/kernel/engine/cpu_topology.h"

namespace unison {

// Longest a waiter spins before it parks.
inline constexpr int64_t kSpinBoundNs = 50'000;
// Spin between two yields.
inline constexpr int64_t kSpinChunkNs = 2'000;

// Whether waiters among `parties` threads spin before they park: true when
// the parties leave one of the process's allowed CPUs free (counted in its
// pre-first-pin set, so a pinned caller never shrinks the answer).
inline bool WaitSpins(uint32_t parties) { return parties < ProcessCpuCount(); }

inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

// Blocks until ready(word) holds, spinning first when `spin` is set (see the
// file comment) and parking in the futex after. A wait that parks counts
// itself into `parks` (when given) before it sleeps.
template <typename T, typename Ready>
void SpinThenPark(const std::atomic<T>& word, bool spin, const Ready& ready,
                  std::atomic<uint64_t>* parks = nullptr) {
  T value = word.load(std::memory_order_acquire);
  if (ready(value)) {
    return;
  }
  if (spin) {
    using Clock = std::chrono::steady_clock;
    // Polls per clock read: a vDSO clock read costs about as much as a few
    // pauses, and the bound need not be exact.
    constexpr int kPolls = 16;
    const Clock::time_point start = Clock::now();
    const Clock::time_point deadline =
        start + std::chrono::nanoseconds(kSpinBoundNs);
    Clock::time_point next_yield =
        start + std::chrono::nanoseconds(kSpinChunkNs);
    for (;;) {
      for (int i = 0; i < kPolls; ++i) {
        CpuRelax();
        value = word.load(std::memory_order_acquire);
        if (ready(value)) {
          return;
        }
      }
      const Clock::time_point now = Clock::now();
      if (now >= deadline) {
        break;
      }
      if (now >= next_yield) {
        std::this_thread::yield();
        next_yield = now + std::chrono::nanoseconds(kSpinChunkNs);
      }
    }
  }
  if (parks != nullptr) {
    parks->fetch_add(1, std::memory_order_relaxed);
  }
  do {
    word.wait(value, std::memory_order_acquire);
    value = word.load(std::memory_order_acquire);
  } while (!ready(value));
}

}  // namespace unison

#endif  // UNISON_SRC_SCHED_SPIN_WAIT_H_
