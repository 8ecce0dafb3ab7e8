// The classic sequential DES kernel (§2.1): one logical process, one future
// event list, events popped in deterministic key order. This is both the
// usability baseline ("ns-3 default") and the correctness oracle every
// parallel kernel is tested against.
#ifndef UNISON_SRC_KERNEL_SEQUENTIAL_H_
#define UNISON_SRC_KERNEL_SEQUENTIAL_H_

#include "src/kernel/kernel.h"

namespace unison {

class SequentialKernel : public Kernel {
 public:
  using Kernel::Kernel;

  // `partition` must have one LP (SingleLpPartition): Run executes only
  // that LP's FEL, and cross-LP sends would have no worker to carry them.
  void Setup(const TopoGraph& graph, const Partition& partition) override;
  RunResult Run(Time stop_time) override;
};

}  // namespace unison

#endif  // UNISON_SRC_KERNEL_SEQUENTIAL_H_
