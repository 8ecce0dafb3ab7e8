// Flow-level network simulation: the "mathematical modeling" alternative the
// paper's related-work section contrasts with DES (§8). Flows are fluids on
// fixed paths; at every arrival or completion the simulator recomputes
// max-min fair rates by progressive filling and advances to the next event.
//
// This is orders of magnitude faster than packet-level DES but blind to
// everything the paper cares about — queues, retransmissions, slow start,
// ECN — which is exactly the comparison bench_ablation_flowsim quantifies.
#ifndef UNISON_BENCH_FLOW_LEVEL_H_
#define UNISON_BENCH_FLOW_LEVEL_H_

#include <cstdint>
#include <vector>

#include "src/core/time.h"
#include "src/net/packet.h"

namespace unison {

class Network;

struct FluidFlow {
  NodeId src = 0;
  NodeId dst = 0;
  uint64_t bytes = 0;
  Time start;
};

struct FluidResult {
  bool completed = false;
  Time fct;
  double mean_rate_bps = 0;
};

class FlowLevelSimulator {
 public:
  // Captures link capacities and resolves each flow's path with the
  // network's ECMP routing. The network must be finalized; the packet-level
  // simulation itself need not have run.
  explicit FlowLevelSimulator(Network& net);

  // Runs the fluid simulation until `horizon`; flows still active then are
  // reported incomplete.
  std::vector<FluidResult> Run(const std::vector<FluidFlow>& flows, Time horizon);

  // Max-min fair rates (bps) for a static set of active flows, exposed for
  // property tests. rates[i] corresponds to paths[i].
  static std::vector<double> MaxMinRates(
      const std::vector<std::vector<uint32_t>>& paths,
      const std::vector<double>& capacity_bps);

 private:
  // Directed link id for (node, port); capacity per directed link.
  std::vector<double> capacity_bps_;
  std::vector<std::vector<uint32_t>> PathsOf(const std::vector<FluidFlow>& flows);

  Network* net_;
};

}  // namespace unison

#endif  // UNISON_BENCH_FLOW_LEVEL_H_
