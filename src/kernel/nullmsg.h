// Null-message PDES baseline (Chandy–Misra–Bryant, §2.3).
//
// LPs synchronize pairwise instead of via global barriers: each directed
// cut-edge pair (i → j) is a channel carrying real events and null messages.
// A channel clock is a promise that no future message on it will carry a
// smaller timestamp; an LP may safely process events below the minimum of
// its input channel clocks. After every processing attempt an LP refreshes
// its output promises to min(N_i, safe_in) + channel lookahead — the eager
// null-message rule that guarantees deadlock freedom for positive lookahead.
//
// One executor per LP, as with the MPI-based implementations the paper
// profiles: executor i serves LP i for the whole session. Runtime global
// events are not supported (the paper's §4.2 makes the same observation
// about existing PDES). There are no shared rounds, so only the engine's
// ExecutorPool and PhaseAccountant apply.
#ifndef UNISON_SRC_KERNEL_NULLMSG_H_
#define UNISON_SRC_KERNEL_NULLMSG_H_

#include <condition_variable>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "src/kernel/engine/executor_pool.h"
#include "src/kernel/kernel.h"

namespace unison {

class NullMessageKernel : public Kernel {
 public:
  using Kernel::Kernel;

  void Setup(const TopoGraph& graph, const Partition& partition) override;
  RunResult Run(Time stop_time) override;

  // One executor per LP, as in the barrier baseline.
  uint32_t MaxExecutors() const override { return num_lps(); }

  ExecutorPool* executor_pool() override { return active_pool_; }

  // Moves every undelivered channel event into its target LP's FEL — the
  // receive path an LpLoop iteration would take — leaving the transport
  // empty. Channel clocks are untouched: Run() recomputes them from the
  // resume floor anyway. The only kernel with cross-window transport
  // residue; see Session::Snapshot.
  void DrainTransportForSnapshot() override;

  // Total null messages exchanged during the last run; exposed for the
  // overhead benches.
  uint64_t null_messages() const { return null_messages_; }

 protected:
  void ScheduleRemote(Lp* from, LpId target, Event ev) override;
  // Cross-LP events travel on channels, never on outboxes: wiring none sends
  // every one through ScheduleRemote.
  void WireMailboxes() override {}

 private:
  struct Channel {
    LpId from = 0;
    LpId to = 0;
    Time lookahead;  // Minimum link delay between the pair in this direction.
    std::mutex mu;
    std::vector<Event> events;
    int64_t clock_ps = 0;  // Promise: no future message with ts below this.
    uint64_t nulls = 0;
  };

  // Per-LP channel endpoints: fixed wiring.
  struct LpChans {
    std::vector<Channel*> in;
    std::vector<Channel*> out;
  };

  // Per-LP wake-up control: signalled whenever one of the LP's in-channels
  // changes.
  struct ExecCtl {
    std::mutex mu;
    std::condition_variable cv;
    uint64_t signal = 0;  // Bumped under mu on every channel change.
  };

  static uint64_t PairKey(LpId from, LpId to) {
    return (static_cast<uint64_t>(from) << 32) | to;
  }

  void Signal(LpId target);
  // Executor `ex` serves LP `ex` up to `stop`; `rows` is the recorder's live
  // window, or nullptr when recording is off.
  void ExecLoop(uint32_t ex, Time stop, Profiler* rows);

  ExecutorPool pool_;    // Threads spawned once at Setup, reused across runs.
  // The pool Run() actually uses: the borrowed external pool when one was
  // lent (Session::Fork), else pool_. Set at Setup.
  ExecutorPool* active_pool_ = nullptr;
  std::vector<std::unique_ptr<Channel>> channels_;
  // Directed pair → channel; built at Setup, reused by ScheduleRemote so the
  // send path is one hash probe instead of a scan over the sender's fan-out.
  std::unordered_map<uint64_t, Channel*> channel_of_pair_;
  std::vector<LpChans> chans_;              // Indexed by LpId.
  std::vector<std::unique_ptr<ExecCtl>> ctl_;  // Indexed by LpId.
  std::vector<uint64_t> exec_events_;
  uint64_t null_messages_ = 0;
};

}  // namespace unison

#endif  // UNISON_SRC_KERNEL_NULLMSG_H_
