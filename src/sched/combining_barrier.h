// Combining-tree barrier with a fused reduction riding the arrival pass.
//
// The flat SpinBarrier funnels every arrival through one generation word and
// the window update through a second global CAS line (AtomicTimeMin), so each
// phase costs P round-trips on two contended cache lines. Here arrivals climb
// a fan-in-4 tree of cache-line-aligned nodes instead: each party writes its
// partial reduction — {min next-event timestamp, event count, stop flags} —
// into its own padded leaf slot, the last arriver at each node combines its
// children and carries the partial result upward, and the party that completes
// the root publishes the fully reduced values and releases everyone with a
// single generation broadcast. One tree traversal per phase replaces the
// three separate global atomics (barrier word, AtomicTimeMin, stop check) the
// round kernels used to hit, and contention per cache line is bounded by the
// fan-in instead of growing with P.
//
// All three reduction operators (min over int64, sum over uint64, bitwise or)
// are associative and commutative, so the tree combine is bit-identical to
// the flat CAS fold regardless of arrival order — the determinism tests hold
// with no caveats.
//
// An arrival may carry a completion step, the idiom of std::barrier's
// CompletionFunction: the party that completes the root publishes the
// reduction, runs the completion, and only then releases the generation. The
// round kernel runs its next round's prologue there, which folds the
// start-of-round crossing into the end-of-round one.
//
// Waiters follow the one executor wait policy (spin_wait.h): a bounded,
// yielding spin when the parties leave one of the allowed CPUs free, a prompt
// futex park when they do not. Cumulative parks are exposed so the trace
// layer can report per-round park deltas.
#ifndef UNISON_SRC_SCHED_COMBINING_BARRIER_H_
#define UNISON_SRC_SCHED_COMBINING_BARRIER_H_

#include <atomic>
#include <cstdint>
#include <memory>

namespace unison {

class CombiningBarrier {
 public:
  static constexpr uint32_t kFanIn = 4;
  // Reduced-flags bits. kStopFlag ORs the parties' stop votes so the
  // coordinator's stop check needs no extra shared load.
  static constexpr uint32_t kStopFlag = 1u << 0;

  explicit CombiningBarrier(uint32_t parties);

  CombiningBarrier(const CombiningBarrier&) = delete;
  CombiningBarrier& operator=(const CombiningBarrier&) = delete;

  // Plain barrier crossing: contributes the identity of every reduction.
  void Arrive(uint32_t party) { Arrive(party, INT64_MAX, 0, 0); }

  // Barrier crossing that contributes {min_ps, count, flags} to this
  // generation's reduction. Blocks until all parties have arrived; on return
  // the reduced_*() accessors hold the generation's combined values, which
  // stay valid until this party arrives for the next generation (nobody can
  // complete a newer generation without this party's arrival).
  void Arrive(uint32_t party, int64_t min_ps, uint64_t count, uint32_t flags) {
    Arrive(party, min_ps, count, flags, [] {});
  }

  // The same crossing with a completion step: exactly one party per
  // generation — the one that completes the root, whichever it is — runs
  // `completion` after the reduction is published (it may read reduced_*())
  // and before any party returns. Every party's writes before its arrival
  // happen before the completion, and the completion's writes happen before
  // every party's return.
  template <typename Completion>
  void Arrive(uint32_t party, int64_t min_ps, uint64_t count, uint32_t flags,
              const Completion& completion) {
    uint32_t gen = 0;
    if (Combine(party, min_ps, count, flags, &gen)) {
      completion();
      Release();
    } else {
      Wait(gen);
    }
  }

  // Reduction results of the last completed generation.
  int64_t reduced_min() const { return result_min_; }
  uint64_t reduced_count() const { return result_count_; }
  uint32_t reduced_flags() const { return result_flags_; }

  uint32_t parties() const { return parties_; }
  // Cumulative futex parks across all generations (trace/bench counter).
  uint64_t parks() const { return parks_.load(std::memory_order_relaxed); }
  // Completed generations, i.e. crossings (test hook: a round's crossing
  // count is the difference across it).
  uint32_t generation() const {
    return generation_.load(std::memory_order_relaxed);
  }

 private:
  // One tree node: the arrival counter and child-slot lines are padded so the
  // only line shared between sibling subtrees is the node's own control line,
  // and a party's partial-reduction store never false-shares with another
  // leaf's. Layout: one control line + kFanIn slot lines per node.
  struct alignas(64) Slot {
    int64_t min_ps;
    uint64_t count;
    uint32_t flags;
  };
  struct alignas(64) Node {
    std::atomic<uint32_t> remaining{0};
    uint32_t arity = 0;        // Children actually attached (<= kFanIn).
    int32_t parent = -1;       // Node index, -1 at the root.
    uint32_t parent_slot = 0;  // This node's slot index in the parent.
    Slot slots[kFanIn];
  };

  // Climbs the tree with this party's contribution. Returns true for the
  // party that completed the root, with the reduction published and the
  // generation not yet released; otherwise false, with *gen set to the
  // generation to wait out.
  bool Combine(uint32_t party, int64_t min_ps, uint64_t count, uint32_t flags,
               uint32_t* gen);
  // Root completer only: ends the generation and wakes every waiter.
  void Release();
  void Wait(uint32_t gen);

  const uint32_t parties_;
  const bool spin_;  // WaitSpins(parties_), fixed at construction.
  uint32_t num_nodes_ = 0;
  std::unique_ptr<Node[]> nodes_;

  // Reduced results of the last completed generation. Written only by the
  // root completer before it bumps generation_ (release); read by the other
  // parties after they observe the bump (acquire) — and by the completer
  // itself in program order — so plain fields suffice.
  int64_t result_min_ = INT64_MAX;
  uint64_t result_count_ = 0;
  uint32_t result_flags_ = 0;

  // The broadcast word lives on its own line: every waiter polls it, and the
  // tree exists precisely so that polling traffic never lands on the lines
  // arrivals are writing.
  alignas(64) std::atomic<uint32_t> generation_{0};
  std::atomic<uint64_t> parks_{0};
};

}  // namespace unison

#endif  // UNISON_SRC_SCHED_COMBINING_BARRIER_H_
