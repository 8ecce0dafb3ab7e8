#include "src/kernel/engine/executor_pool.h"

#include <utility>

#include "src/core/executor_id.h"
#include "src/sched/spin_wait.h"

namespace unison {

namespace {
std::atomic<uint64_t> g_total_threads_spawned{0};
}  // namespace

uint64_t ExecutorPool::TotalThreadsSpawned() {
  return g_total_threads_spawned.load(std::memory_order_relaxed);
}

ExecutorPool::~ExecutorPool() { Shutdown(); }

void ExecutorPool::Shutdown() {
  if (caller_pinned_) {
    RestoreCaller();  // The next pool on this thread must see its full mask.
  }
  if (!threads_.empty()) {
    shutdown_.store(true, std::memory_order_release);
    PublishEpoch(0);
    for (auto& t : threads_) {
      t.join();
    }
    threads_.clear();
    shutdown_.store(false, std::memory_order_relaxed);
  }
  parties_ = 0;
}

void ExecutorPool::EnsureTopology() {
  if (topology_cached_) {
    return;
  }
  // Detect once per pool. The cached full set is what un-pinning restores
  // the workers to.
  topology_ = CpuTopology::Detect();
  all_cpus_.clear();
  all_cpus_.reserve(topology_.cpus.size());
  for (const CpuTopology::Cpu& c : topology_.cpus) {
    all_cpus_.push_back(c.id);
  }
  topology_cached_ = true;
}

void ExecutorPool::ApplyPlacement(AffinityPolicy policy) {
  if (policy == placement_) {
    return;
  }
  if (policy == AffinityPolicy::kNone) {
    placement_ = policy;
    if (!caller_pinned_) {
      return;  // Nothing was ever pinned; nothing to undo.
    }
    cpu_order_.clear();
    ++placement_gen_;
    RestoreCaller();
    return;
  }
  placement_ = policy;
  EnsureTopology();
  cpu_order_ = topology_.PlacementOrder(policy);
  if (cpu_order_.empty()) {
    return;  // Portable fallback: pinning unsupported here.
  }
  ++placement_gen_;
  PinCaller();
}

void ExecutorPool::PinCaller() {
  caller_thread_ = std::this_thread::get_id();
  PinCurrentThreadToCpu(cpu_order_[0]);  // The caller is worker 0.
  caller_pinned_ = true;
}

void ExecutorPool::RestoreCaller() {
  // The caller un-pins to the same pre-pin set as the workers, so the result
  // does not depend on which other pools pinned it or in what order they go.
  // Affinity calls reach only the calling thread, so a pool torn down on
  // another thread leaves the pinned one as it is.
  if (std::this_thread::get_id() == caller_thread_) {
    PinCurrentThreadToCpus(all_cpus_);
  }
}

void ExecutorPool::Ensure(uint32_t parties) {
  if (parties == parties_) {
    return;
  }
  parties_ = parties;
  if (!caller_pinned_ && placement_ != AffinityPolicy::kNone) {
    EnsureTopology();
    cpu_order_ = topology_.PlacementOrder(placement_);
    if (!cpu_order_.empty()) {
      PinCaller();
    }
    caller_pinned_ = true;
  }
  const uint32_t want_threads = parties == 0 ? 0 : parties - 1;
  if (want_threads <= threads_.size()) {
    // Shrink (or re-grow within the high-water set): the excess threads stay
    // parked — Loop gates on each epoch's party count — and nothing is
    // retired or spawned.
    return;
  }
  threads_.reserve(want_threads);
  // New threads must baseline on the epoch as of spawn time: a thread that
  // read the counter only after a later Run() bumped it would mistake that
  // run's epoch for "already seen" and sleep through it. Their first pin is
  // fixed here too, since placement may change before a thread starts.
  const uint64_t seen = epoch_.load(std::memory_order_relaxed);
  const uint64_t pin_gen = placement_gen_;
  for (uint32_t id = static_cast<uint32_t>(threads_.size()) + 1;
       id <= want_threads; ++id) {
    const int64_t cpu = cpu_order_.empty()
                            ? int64_t{-1}
                            : int64_t{cpu_order_[id % cpu_order_.size()]};
    threads_.emplace_back([this, id, seen, pin_gen, cpu] {
      if (cpu >= 0) {
        PinCurrentThreadToCpu(static_cast<uint32_t>(cpu));
      }
      Loop(id, seen, pin_gen);
    });
    ++threads_spawned_;
    g_total_threads_spawned.fetch_add(1, std::memory_order_relaxed);
  }
}

void ExecutorPool::PublishEpoch(uint32_t parties) {
  const uint64_t sequence = (epoch_.load(std::memory_order_relaxed) >> 32) + 1;
  epoch_.store(sequence << 32 | parties, std::memory_order_release);
  epoch_.notify_all();
}

void ExecutorPool::Run(std::function<void(uint32_t)> body) {
  body_ = std::move(body);
  done_.store(0, std::memory_order_release);
  PublishEpoch(parties_);
  // The caller is worker 0 for the duration of the window body; everything
  // it runs between windows (injection, summaries) is back to kNoExecutor.
  SetCurrentExecutorId(0);
  body_(0);
  SetCurrentExecutorId(kNoExecutor);
  // Wait for the other active workers (parked excess threads don't report).
  const uint32_t expected = parties_ - 1;
  SpinThenPark(done_, WaitSpins(parties_),
               [expected](uint32_t done) { return done == expected; });
}

void ExecutorPool::Loop(uint32_t id, uint64_t seen, uint64_t pin_gen) {
  for (;;) {
    // A worker that ran the last epoch spins for the next one like any
    // executor wait; an excess worker, likely to sit the next one out too,
    // parks at once.
    const uint32_t last_parties = static_cast<uint32_t>(seen);
    SpinThenPark(epoch_, id < last_parties && WaitSpins(last_parties),
                 [seen](uint64_t e) { return e != seen; });
    const uint64_t e = epoch_.load(std::memory_order_acquire);
    seen = e;
    if (shutdown_.load(std::memory_order_acquire)) {
      return;
    }
    // Excess (parked) workers sit this epoch out.
    if (id < static_cast<uint32_t>(e)) {
      if (pin_gen != placement_gen_) {
        // Placement changed since this worker last ran: chase it lazily.
        // Safe to read here — ApplyPlacement writes strictly before the
        // epoch bump this iteration just acquired.
        pin_gen = placement_gen_;
        if (!cpu_order_.empty()) {
          PinCurrentThreadToCpu(cpu_order_[id % cpu_order_.size()]);
        } else {
          PinCurrentThreadToCpus(all_cpus_);
        }
      }
      SetCurrentExecutorId(static_cast<int>(id));
      body_(id);
      SetCurrentExecutorId(kNoExecutor);
      done_.fetch_add(1, std::memory_order_acq_rel);
      done_.notify_all();
    }
  }
}

}  // namespace unison
