// A persistent team of workers that execute one body function in lockstep.
//
// The calling thread participates as worker 0, so a pool of N parties uses
// N-1 OS threads. Unlike the per-run WorkerTeam it replaces, the pool is
// created once (at Kernel::Setup) and its threads wait between Run()
// invocations, so back-to-back runs on one kernel instance — and multi-run
// benches like bench_fig08b_speedup, which execute dozens of short
// simulations per process — never pay thread spawn/join more than once.
//
// Both of the pool's waits — a worker's wait for the next run epoch and the
// caller's wait for the workers to finish — follow the same policy as the
// barrier crossings inside a run (spin_wait.h): when the parties leave one of
// the allowed CPUs free, a bounded spin that yields every few microseconds,
// then a futex park; otherwise a park at once.
//
// The thread set is a high-water mark: Ensure() grows it by spawning only the
// missing workers and shrinks it in place by parking the excess (they skip
// run epochs until a later Ensure re-enlists them), so alternating kernel
// configurations in one process never churn OS threads.
//
// With a placement policy set (SetPlacement, before the first Ensure), the
// caller and every spawned worker are pinned to cores per the policy's CPU
// order (see cpu_topology.h); worker w gets order[w % order.size()]. The
// caller gets its pre-pin mask back when the pool shuts down.
//
// Kernels hand the pool their whole round loop once per run; phase
// synchronization inside the loop is the kernel's job (CombiningBarrier).
#ifndef UNISON_SRC_KERNEL_ENGINE_EXECUTOR_POOL_H_
#define UNISON_SRC_KERNEL_ENGINE_EXECUTOR_POOL_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "src/kernel/engine/cpu_topology.h"

namespace unison {

class ExecutorPool {
 public:
  ExecutorPool() = default;
  ~ExecutorPool();

  ExecutorPool(const ExecutorPool&) = delete;
  ExecutorPool& operator=(const ExecutorPool&) = delete;

  // Selects the worker placement policy. Takes effect at the next Ensure()
  // that spawns or (for the caller pin) first activates placement; call it
  // before the first Ensure — kernels do so in Setup.
  void SetPlacement(AffinityPolicy policy) { placement_ = policy; }

  // Live placement change between runs: re-pins the caller now and each
  // worker lazily at its next run epoch (no thread is retired or spawned).
  // Dropping back to kNone widens every thread to the pre-pin CPU set. Call
  // only with no Run() in flight — kernels do so when sampling tunables.
  void ApplyPlacement(AffinityPolicy policy);

  // Ensures the pool runs `parties` workers, the caller counting as worker 0.
  // Growth beyond the high-water mark spawns only the missing threads;
  // shrinking parks the excess in place (no retire/respawn).
  void Ensure(uint32_t parties);

  uint32_t parties() const { return parties_; }

  // Runs body(worker_id) on all workers, the caller included as id 0.
  // Returns when every worker has finished. Not reentrant.
  void Run(std::function<void(uint32_t)> body);

  // Cumulative OS threads spawned by this pool. Test hook: a second Run() on
  // the same pool — or an Ensure() at or below the high-water mark — must not
  // move it.
  uint64_t threads_spawned() const { return threads_spawned_; }

  // Process-wide spawn counter across all pools, for tests that only hold a
  // Kernel and cannot reach its pool.
  static uint64_t TotalThreadsSpawned();

 private:
  void Shutdown();
  void Loop(uint32_t id, uint64_t seen, uint64_t pin_gen);
  // Caches the machine topology (and the full allowed-CPU set, for un-pin).
  void EnsureTopology();
  // Pins the caller to cpu_order_[0] and remembers which thread that was.
  void PinCaller();
  // Widens the caller back to all_cpus_: on a drop to kNone, and at shutdown
  // so a later pool on the same thread sees every CPU again.
  void RestoreCaller();

  // Starts the next run epoch for `parties` workers (0 at shutdown).
  void PublishEpoch(uint32_t parties);

  // Active party count for the next Run; caller-side only.
  uint32_t parties_ = 0;
  std::function<void(uint32_t)> body_;
  // (epoch sequence << 32) | the epoch's party count. Workers decide whether
  // to take part from the count of the very epoch they woke for: a parked
  // worker that read a separate field late could see a later Ensure's count,
  // count itself in, and run the next epoch's body twice.
  std::atomic<uint64_t> epoch_{0};
  std::atomic<uint32_t> done_{0};
  std::atomic<bool> shutdown_{false};
  std::vector<std::thread> threads_;  // High-water set; ids 1..size().
  uint64_t threads_spawned_ = 0;
  AffinityPolicy placement_ = AffinityPolicy::kNone;
  std::vector<uint32_t> cpu_order_;  // Pin targets; empty = no pinning.
  // Bumped on every placement change; workers re-pin when their last-seen
  // generation lags. Plain field: active workers read it only after
  // acquiring an epoch published strictly after any placement write.
  uint64_t placement_gen_ = 0;
  bool caller_pinned_ = false;
  std::thread::id caller_thread_;  // The thread PinCaller last pinned.
  bool topology_cached_ = false;
  CpuTopology topology_;
  std::vector<uint32_t> all_cpus_;  // Allowed set before any pin; for un-pin.
};

}  // namespace unison

#endif  // UNISON_SRC_KERNEL_ENGINE_EXECUTOR_POOL_H_
