// The scheduling facade network models see. It hides which kernel runs the
// simulation — the heart of Unison's user transparency: the same model code
// runs sequentially, under the PDES baselines, under Unison, or distributed,
// by switching only the SimConfig.
#ifndef UNISON_SRC_KERNEL_SIMULATOR_H_
#define UNISON_SRC_KERNEL_SIMULATOR_H_

#include <utility>

#include "src/kernel/kernel.h"

namespace unison {

class Simulator {
 public:
  Simulator() = default;
  explicit Simulator(Kernel* kernel) : kernel_(kernel) {}

  void set_kernel(Kernel* kernel) { kernel_ = kernel; }
  Kernel* kernel() { return kernel_; }

  // Current simulated time (zero during topology/application setup).
  Time Now() const { return kernel_->Now(); }

  // Schedules `fn` after `delay` on the calling LP. Only valid from inside
  // an event; setup code must name a node via ScheduleOnNode. `fn` is any
  // callable (or an EventFn, which is moved); it is constructed once,
  // directly in the FEL slot it will be dispatched from.
  template <typename F>
  void Schedule(Time delay, F&& fn) {
    Lp* const cur = Lp::Current();
    cur->ScheduleLocal(cur->now() + delay, Lp::CurrentNode(),
                       std::forward<F>(fn));
  }

  // Schedules `fn` after `delay` on the LP owning `node`. Routes through a
  // mailbox when the target lives in another LP, constructing `fn` at the
  // outbox's tail (Kernel::ScheduleOnNode).
  template <typename F>
  void ScheduleOnNode(NodeId node, Time delay, F&& fn) {
    kernel_->ScheduleOnNode(node, Now() + delay, std::forward<F>(fn));
  }

  // Schedules a global event at absolute time `abs` on the public LP.
  void ScheduleGlobal(Time abs, EventFn fn) {
    kernel_->ScheduleGlobal(abs, std::move(fn));
  }

  // Tells the kernel the topology changed (link delays, links added or
  // removed); must be called from a global event.
  void NotifyTopologyChanged() { kernel_->NotifyTopologyChanged(); }

  // Requests an early stop at the next safe point.
  void Stop() { kernel_->RequestStop(); }

 private:
  Kernel* kernel_ = nullptr;
};

}  // namespace unison

#endif  // UNISON_SRC_KERNEL_SIMULATOR_H_
