// Setup placement: which executor group owns which LP.
//
// The fine-grained partition (graph.h) decides *what* the LPs are; this map
// decides *who runs them* at the start of a session. The round kernel
// (round_kernel.h) installs its preset's placement in Setup — barrier: rank r
// owns LP r; hybrid: each LP on the rank holding its first node's slice of
// the node-id range; unison: LP l on lane l mod W — and builds its workers'
// own lists from it whenever the live worker count changes. The placement
// never changes after Setup: the load balancing happens inside a group, by
// LPT claim order and work stealing, not by moving LPs between groups.
//
// Which executor runs an LP is unobservable in the results: event keys
// (EventKey{ts, sender_ts, sender_node, seq}) are partition- and
// thread-independent, so fingerprints and digests are bit-identical for any
// placement.
#ifndef UNISON_SRC_PARTITION_PARTITION_MAP_H_
#define UNISON_SRC_PARTITION_PARTITION_MAP_H_

#include <cstdint>
#include <vector>

namespace unison {

class PartitionMap {
 public:
  // Installs an assignment. Owners are folded modulo `num_executors`.
  void Reset(std::vector<uint32_t> owner_of_lp, uint32_t num_executors);

  // Convenience: the identity-ish default owner(lp) = lp % num_executors.
  void ResetStrided(uint32_t num_lps, uint32_t num_executors);

  uint32_t owner(uint32_t lp) const { return owner_of_lp_[lp]; }
  const std::vector<uint32_t>& owners() const { return owner_of_lp_; }
  // An executor's owned LPs, ascending by LpId (deterministic iteration
  // order for the kernels' process/drain/min loops).
  const std::vector<uint32_t>& owned(uint32_t executor) const {
    return owned_[executor];
  }
  uint32_t num_lps() const { return static_cast<uint32_t>(owner_of_lp_.size()); }
  uint32_t num_executors() const { return num_executors_; }

 private:
  void RebuildOwned();

  std::vector<uint32_t> owner_of_lp_;
  std::vector<std::vector<uint32_t>> owned_;
  uint32_t num_executors_ = 1;
};

}  // namespace unison

#endif  // UNISON_SRC_PARTITION_PARTITION_MAP_H_
