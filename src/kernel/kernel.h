// Kernel interface shared by the sequential DES kernel, the two PDES
// baselines (barrier synchronization, null message), Unison, and the hybrid
// distributed kernel.
//
// A kernel owns the logical processes produced by a partition, the public LP
// for global events (§4.2), and the run loop. Network models never talk to a
// kernel directly; they go through the Simulator facade, which is what makes
// kernel choice transparent to model code.
#ifndef UNISON_SRC_KERNEL_KERNEL_H_
#define UNISON_SRC_KERNEL_KERNEL_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/control/tunables.h"
#include "src/core/event.h"
#include "src/core/time.h"
#include "src/kernel/engine/cpu_topology.h"
#include "src/kernel/lp.h"
#include "src/partition/graph.h"
#include "src/stats/profiler.h"
#include "src/stats/trace.h"

namespace unison {

enum class KernelType {
  kSequential,
  kBarrier,
  kNullMessage,
  kUnison,
  kHybrid,
};

enum class SchedulingMetric {
  kNone,                 // No scheduling: LPs claimed in id order.
  kByPendingEventCount,  // Estimate = events already scheduled in the window.
  kByLastRoundTime,      // Estimate = measured processing time of last round.
};

// Why a Run() window ended. The distinction matters for sessions: a window
// boundary is a pause (events remain, the next Run continues the same
// simulation), exhaustion and stop requests are terminal for the workload
// installed so far — though more work may still be injected and run.
enum class RunReason {
  kWindowReached,  // The stop time was hit with events still pending.
  kExhausted,      // Every FEL drained: nothing left to execute anywhere.
  kStopRequested,  // Early stop via RequestStop/Simulator::Stop.
};

// Returns a stable identifier ("window", "exhausted", "stop") for traces.
const char* RunReasonName(RunReason reason);

// Outcome of one Run() window on a session.
struct RunResult {
  RunReason reason = RunReason::kExhausted;
  Time end;            // Session time after this window.
  uint64_t events = 0; // Events executed in this window alone.
  uint64_t rounds = 0; // Synchronization rounds in this window alone.
};

struct KernelConfig {
  KernelType type = KernelType::kSequential;
  uint32_t threads = 1;
  SchedulingMetric metric = SchedulingMetric::kByLastRoundTime;
  // When false, event tie-breaking degrades to insertion order, replicating
  // the indeterminism of stock ns-3 PDES kernels (used by Fig. 11).
  bool deterministic = true;
  // Hybrid kernel only: number of simulated hosts ("ranks").
  uint32_t ranks = 2;
  // Executor placement: pin pool workers to cores per this policy (compact =
  // fill a socket before the next, hybrid ranks socket-major; scatter =
  // round-robin across sockets). kNone leaves placement to the OS. When the
  // party count exceeds the machine, placement wraps around the core list.
  AffinityPolicy affinity = AffinityPolicy::kNone;

  // Returns an empty string when the config is usable, otherwise a
  // human-readable description of the first problem found. MakeKernel calls
  // this and treats a non-empty result as fatal.
  std::string Validate() const;
};

// Prints "unison: <message>" to stderr and aborts. The single error path for
// unusable configurations and API misuse (bad KernelConfig, AddLink after
// Finalize, ...), so every such failure looks the same to the user.
[[noreturn]] void FatalConfigError(const std::string& message);

class ExecutorPool;

class Kernel {
 public:
  explicit Kernel(const KernelConfig& config) : config_(config) {}
  virtual ~Kernel() = default;

  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  // Builds LPs and mailbox wiring. `graph` must outlive the kernel; it is
  // re-read when a global event reports a topology change. Starts a fresh
  // session: session counters reset and session time rewinds to zero.
  virtual void Setup(const TopoGraph& graph, const Partition& partition);

  // Runs one window of the session: executes events with ts < `stop_time`,
  // then parks. May be called repeatedly with increasing stop times; model
  // and event state (LP clocks, FELs, tie-break sequence counters, pending
  // cross-LP messages) carries across windows, and the executor-pool threads
  // stay parked in between — no respawn per window. K windowed runs are
  // bit-identical to one monolithic run to the same stop time.
  virtual RunResult Run(Time stop_time) = 0;

  // --- Scheduling API used by the Simulator facade ---

  // Simulated time of the executing context: the current LP's clock, or zero
  // during setup.
  Time Now() const {
    const Lp* cur = Lp::Current();
    return cur != nullptr ? cur->now() : Time::Zero();
  }

  // Schedules `fn` at absolute time `abs` on the LP owning `node`. The
  // functor is built once, in place: in the target's FEL slot when the
  // target is the calling LP (or the caller runs alone: setup, the global
  // phase), or at the tail of the wired outbox for a cross-LP event. Only a
  // send with no outbox — the overflow box, null-message channels — goes
  // through the type-erased ScheduleRemote.
  template <typename F>
  void ScheduleOnNode(NodeId node, Time abs, F&& fn) {
    const LpId target_id = partition_.lp_of_node[node];
    Lp* const target = lps_[target_id].get();
    Lp* const cur = Lp::Current();
    if (cur == nullptr || cur == target) {
      // Setup time (single-threaded) or intra-LP: direct FEL insert.
      target->ScheduleLocal(abs, node, std::forward<F>(fn));
    } else if (cur == public_lp_.get()) {
      // Global-event phase: the main thread runs alone, so direct insertion
      // into any LP is safe ("global events have to be handled just once").
      target->Emplace(cur->MakeKey(abs), node, std::forward<F>(fn));
    } else if (Outbox* const box = cur->FindOutbox(target_id)) {
      cur->Send(box, cur->MakeKey(abs), node, std::forward<F>(fn));
    } else {
      ScheduleRemote(cur, target_id,
                     Event{cur->MakeKey(abs), node, std::forward<F>(fn)});
    }
  }

  // Schedules a global event on the public LP (topology change, stop, ...).
  void ScheduleGlobal(Time abs, EventFn fn);

  // Called from a global event after the topology changed: recomputes
  // lookahead values and adds mailbox wiring for new cut edges.
  void NotifyTopologyChanged();

  // Requests an early stop; takes effect at the next safe point of the
  // current window. A stop request ends one Run() — it does not poison the
  // session; the next Run() clears it and continues.
  void RequestStop() { flags_.stop_requested = true; }
  bool stop_requested() const {
    return flags_.stop_requested.load(std::memory_order_relaxed);
  }

  // --- Introspection ---

  // Number of pool executors this kernel's Run() stamps with dense ids
  // (worker 0 = the calling thread). Valid after Setup. Network::Finalize
  // uses it to size per-executor state such as the FlowMonitor's shards; the
  // sequential kernel runs on the caller outside any pool, so its events see
  // no executor id at all — 1 is a safe upper bound.
  virtual uint32_t MaxExecutors() const { return 1; }

  // Invoked at the end of every Run() window, after the final barrier
  // reduction has quiesced all executors — the single point where
  // per-executor state can be merged without synchronization. Installed by
  // Network::Finalize to fold the FlowMonitor's shard deltas.
  void set_window_end_hook(std::function<void()> hook) {
    window_end_hook_ = std::move(hook);
  }

  uint32_t num_lps() const { return static_cast<uint32_t>(lps_.size()); }
  Lp* lp(LpId id) { return lps_[id].get(); }
  Lp* public_lp() { return public_lp_.get(); }
  LpId LpOfNode(NodeId node) const { return partition_.lp_of_node[node]; }
  const Partition& partition() const { return partition_; }
  const KernelConfig& config() const { return config_; }

  // Per-window counters: what the most recent Run() executed.
  uint64_t processed_events() const { return processed_events_; }
  uint64_t rounds() const { return rounds_; }

  // --- Snapshot/fork support ---

  // Cumulative session accumulators as one value, for snapshot capture and
  // fork restore. Restoring makes the next Run() continue exactly where the
  // captured session's next window would have started.
  struct SessionState {
    Time session_now;
    Time resume_floor;
    uint64_t session_events = 0;
    uint64_t session_rounds = 0;
    uint32_t session_windows = 0;
  };
  SessionState session_state() const {
    return SessionState{session_now_, resume_floor_, session_events_,
                        session_rounds_, session_windows_};
  }
  void RestoreSessionState(const SessionState& s) {
    session_now_ = s.session_now;
    resume_floor_ = s.resume_floor;
    session_events_ = s.session_events;
    session_rounds_ = s.session_rounds;
    session_windows_ = s.session_windows;
  }

  // The executor pool this kernel's Run() drives, or nullptr for kernels
  // that run on the caller alone (sequential). A fork hands this pool to the
  // child kernel so branch runs reuse the parent's warm, already-spawned
  // workers instead of spawning their own.
  virtual ExecutorPool* executor_pool() { return nullptr; }

  // Borrow another kernel's pool. Must be called before Setup(); the pooled
  // kernels resolve it there. The lender must outlive this kernel, and the
  // two must not Run() concurrently (ExecutorPool::Run is not reentrant) —
  // Session::Fork documents both constraints.
  void set_external_pool(ExecutorPool* pool) { external_pool_ = pool; }

  // Lineage tag stamped into every subsequent RunSummary.forked_from;
  // Session::Fork sets it to "snap-<digest>@w<windows>" so traces record
  // which snapshot a branch grew from.
  void set_lineage(std::string lineage) { lineage_ = std::move(lineage); }
  const std::string& lineage() const { return lineage_; }

  // Moves any events parked in kernel-private transport into the owning
  // LPs' FELs so a snapshot sees the complete event set. At a window
  // boundary only the null-message kernel has such residue (channel events
  // belonging to the next window); the move is execution-neutral — the next
  // window's receive phase would have performed the identical inserts.
  virtual void DrainTransportForSnapshot() {}

  // --- Session introspection (cumulative across Run() windows) ---

  // Simulated time up to which the session has been run: the stop time of
  // the last completed window (unchanged by an early stop, whose precise
  // progress point is kernel-internal).
  Time session_now() const { return session_now_; }
  uint64_t session_events() const { return session_events_; }
  uint64_t session_rounds() const { return session_rounds_; }
  uint32_t session_windows() const { return session_windows_; }

  // Events executed so far; safe to call from a global event mid-run (the
  // worker counters are quiescent during the global-event phase).
  virtual uint64_t LiveEvents() const { return processed_events_; }

  // --- Live tuning (two-tier config split) ---

  // Attaches the session's tunable store. The kernel samples it once per
  // Run() window, before any worker is released; absent a store, every
  // window runs on the KernelConfig values — the two paths are equivalent
  // when the store only ever holds its config-derived seed.
  void set_tunables(const TunableStore* store) { tunables_ = store; }

  // The tunable values one Run() window actually executed with, resolved
  // from store + config defaults. Refreshed at the start of each window;
  // FinishRun stamps it into the RunSummary.
  struct WindowTuning {
    uint64_t epoch = 0;
    uint32_t sched_period = 0;
    uint32_t parties = 0;  // Kernel-native knob units (see Tunables).
    AffinityPolicy affinity = AffinityPolicy::kNone;
  };
  const WindowTuning& window_tuning() const { return tuning_; }

  // Attaches the session's run recorder (src/stats/trace.h), the only one a
  // kernel writes into. While its gate is on, every window is recorded into
  // it once: round records, per-round P/S/M rows and totals, per-LP costs.
  void set_trace(RunTrace* trace) { trace_ = trace; }

  // End-of-run aggregate, refreshed by every kernel at the end of Run()
  // whether or not recording is on; with recording on it also carries the
  // window's P/S/M totals and imbalance, the value its segment archives.
  const RunSummary& run_summary() const { return run_summary_; }

 protected:
  // Routes an event from `from` to a different LP that `from` has no outbox
  // to. The base implementation pushes it into the target's locked overflow
  // box, with a chunk from `from`'s attached cache, and notes its timestamp
  // in `from`'s sent minimum. Overridden by kernels with their own transport
  // (null-message channels).
  virtual void ScheduleRemote(Lp* from, LpId target, Event ev);

  // Creates outboxes/inboxes for every cut edge of the partition. The
  // barrier preset and the null-message kernel wire nothing, so all their
  // sends take ScheduleRemote.
  virtual void WireMailboxes();

  // Executes public-LP events with ts <= `upto` (but < `stop`). Returns the
  // number of global events run.
  uint64_t RunGlobalEvents(Time upto, Time stop);

  // Start-of-window bookkeeping shared by every kernel: clears a stale stop
  // request (a stop ends one window, not the session) and — when recording —
  // opens the recorder's live window under `kernel_name` with `executors` row
  // slots. The one place a window's recording opens; RoundSync::BeginRun
  // calls it for the round kernel's rounds, the other kernels call it
  // directly.
  void BeginWindow(const char* kernel_name, uint32_t executors);

  // The recorder while its gate is on, else nullptr: the one recording
  // switch every kernel checks.
  RunTrace* recorder() const {
    return trace_ != nullptr && trace_->enabled ? trace_ : nullptr;
  }
  // The live window's executor-private rows (PhaseAccountant's target), or
  // nullptr when recording is off.
  Profiler* window_rows() const {
    RunTrace* const rec = recorder();
    return rec != nullptr ? &rec->rows() : nullptr;
  }

  // Fills run_summary_ from processed_events_/rounds_ — and, when recording,
  // from the window's rows via RunTrace::EndRun, which archives the window
  // with that summary — and rolls the window into the session aggregates.
  // Every kernel calls this at the end of Run(); the return value is Run()'s.
  RunResult FinishRun(const char* kernel_name, uint32_t executors,
                      uint64_t wall_ns, Time stop, RunReason reason);

  // Conservative lower bound for resuming conservative-synchronization state
  // (null-message channel clocks): no event pending anywhere in the session
  // lies below it. Zero for a fresh session or after an early stop.
  Time resume_floor() const { return resume_floor_; }

  // Resolves this window's tunables: live store values where published,
  // config defaults otherwise, ceil(log2 n) when no period is set (§4.3).
  // `default_parties` is the config-derived knob value and also the
  // ceiling — per-executor state sized at Finalize is never exceeded;
  // kernels whose party count is structural pass parties_tunable=false.
  // Every kernel calls this at the start of Run(), before workers release.
  WindowTuning SampleTuning(uint32_t default_parties,
                            bool parties_tunable = true) const;

  friend class Simulator;
  friend class RoundSync;

  KernelConfig config_;
  const TopoGraph* graph_ = nullptr;
  Partition partition_;
  std::vector<std::unique_ptr<Lp>> lps_;
  std::unique_ptr<Lp> public_lp_;
  RunTrace* trace_ = nullptr;
  RunSummary run_summary_;
  uint64_t processed_events_ = 0;
  uint64_t rounds_ = 0;
  // Session aggregates across Run() windows; reset by Setup.
  Time session_now_;
  Time resume_floor_;
  uint64_t session_events_ = 0;
  uint64_t session_rounds_ = 0;
  uint32_t session_windows_ = 0;
  // The flag an LP event may set mid-round and every round-kernel worker
  // reads each round, on a cache line of its own: no member written per
  // round or per window may share it, and adding or removing a neighbour
  // cannot move it onto one that is (DESIGN.md §3d).
  struct alignas(64) MidRoundFlags {
    std::atomic<bool> stop_requested{false};
  };
  static_assert(sizeof(MidRoundFlags) == 64);
  MidRoundFlags flags_;
  std::mutex public_mu_;
  std::function<void()> window_end_hook_;
  ExecutorPool* external_pool_ = nullptr;  // Borrowed; see set_external_pool.
  std::string lineage_;                    // Empty unless forked.
  const TunableStore* tunables_ = nullptr;  // Borrowed; see set_tunables.
  WindowTuning tuning_;  // What the current/last window ran with.
  // LPs claimed from another lane's list, and events received through
  // mailboxes and overflow boxes, this window, summed over the round
  // kernel's workers while recording; FinishRun stamps them. 0 elsewhere.
  uint64_t window_steals_ = 0;
  uint64_t window_messages_ = 0;
};

// Constructs the kernel named by `config.type`.
std::unique_ptr<Kernel> MakeKernel(const KernelConfig& config);

}  // namespace unison

#endif  // UNISON_SRC_KERNEL_KERNEL_H_
