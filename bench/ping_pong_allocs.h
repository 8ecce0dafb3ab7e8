// Heap allocations per event of a cross-LP ping-pong at steady state: two
// nodes, one LP each, joined by one 1 us link, with `chains` independent
// chains hopping between them one link delay apart, so every event crosses
// the cut. After a 1 ms warm-up window grows every buffer (FELs, mailboxes,
// null-message channels) to its high-water mark, one 20 ms window runs
// 20,000 events per chain; the allocations counted around it, divided by the
// window's events, should be ~0 for a kernel whose message path reuses its
// storage. A kernel's fixed per-window setup is a few allocations, which
// vanish over the window's events.
//
// The caller supplies the process-wide allocation counter
// (bench/counting_new.h), so the bench gate and the unit test measure the
// same scenario.
#ifndef UNISON_BENCH_PING_PONG_ALLOCS_H_
#define UNISON_BENCH_PING_PONG_ALLOCS_H_

#include <cstdint>
#include <memory>

#include "src/kernel/kernel.h"
#include "src/partition/manual.h"

namespace unison {

struct PingPongAllocs {
  uint64_t allocs = 0;
  uint64_t events = 0;
  double per_event() const {
    return events == 0 ? 0.0
                       : static_cast<double>(allocs) / static_cast<double>(events);
  }
};

// One hop: runs on `node` and schedules the next hop on the other node.
struct PingPongHop {
  Kernel* kernel;
  NodeId node;
  void operator()() const {
    const NodeId next = 1 - node;
    kernel->ScheduleOnNode(next, kernel->Now() + Time::Microseconds(1),
                           PingPongHop{kernel, next});
  }
};

inline PingPongAllocs MeasurePingPongAllocs(KernelType type, uint32_t chains,
                                            uint64_t (*heap_allocs)()) {
  TopoGraph graph;
  graph.num_nodes = 2;
  graph.edges.push_back(TopoEdge{0, 1, Time::Microseconds(1), true});
  KernelConfig kc;
  kc.type = type;
  kc.threads = 2;
  std::unique_ptr<Kernel> kernel = MakeKernel(kc);
  kernel->Setup(graph, RangePartition(graph, 2));
  for (uint32_t c = 0; c < chains; ++c) {
    const NodeId node = c % 2;
    kernel->ScheduleOnNode(node, Time::Nanoseconds(100 * (c + 1)),
                           PingPongHop{kernel.get(), node});
  }
  kernel->Run(Time::Milliseconds(1));
  const uint64_t allocs0 = heap_allocs();
  kernel->Run(Time::Milliseconds(21));
  PingPongAllocs out;
  out.allocs = heap_allocs() - allocs0;
  out.events = kernel->processed_events();
  return out;
}

}  // namespace unison

#endif  // UNISON_BENCH_PING_PONG_ALLOCS_H_
