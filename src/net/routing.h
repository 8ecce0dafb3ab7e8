// Routing.
//
// GlobalRouting is the static path oracle: equal-cost shortest paths computed
// once at finalize time (and recomputed by topology-change global events),
// with per-flow ECMP hashing so a flow never reorders. It plays the role of
// ns-3's NIx-vector routing — a shared, read-mostly cache of next hops that
// every LP consults (§5.1 made that cache thread-safe; here it is immutable
// during a round by construction).
//
// DistanceVectorRouting is a dynamic RIP-like protocol running as simulated
// control traffic: periodic advertisements, split horizon with poisoned
// reverse, and triggered updates. It exists so the WAN experiments exercise
// real protocol dynamics (Fig. 10c) and dynamic topologies reconverge.
#ifndef UNISON_SRC_NET_ROUTING_H_
#define UNISON_SRC_NET_ROUTING_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/core/time.h"
#include "src/net/packet.h"

namespace unison {

class Network;
class Node;

class GlobalRouting {
 public:
  static constexpr uint32_t kMaxEcmp = 7;

  // Recomputes all-pairs equal-cost shortest paths over the up links.
  void Compute(Network& net);

  // Egress port on `node` toward `dst` for a flow with the given hash;
  // -1 when unreachable.
  int Port(NodeId node, NodeId dst, uint32_t flow_hash) const;

  // Number of equal-cost choices (tests).
  uint32_t EcmpWidth(NodeId node, NodeId dst) const;

 private:
  struct Entry {
    uint8_t count = 0;
    uint8_t ports[kMaxEcmp] = {};
  };
  std::vector<Entry> table_;
  uint32_t n_ = 0;
};

// Per-node distance-vector table.
class DvState {
 public:
  static constexpr uint32_t kInfinity = 1 << 20;

  std::vector<uint32_t> dist;
  std::vector<int32_t> port;  // -1 = unreachable.
  bool triggered_pending = false;
  uint64_t updates_sent = 0;
};

class DistanceVectorRouting {
 public:
  DistanceVectorRouting(Network* net, Time period) : net_(net), period_(period) {}

  // Creates DvState on every node and schedules the periodic advertisements.
  // Must be called after topology construction, before Run.
  void Install();

  // Handler for arriving DV control packets, invoked by Node::Deliver.
  void OnControl(Node* node, const Packet& pkt);

  // Link-state change notification (link down/up detection): poisons routes
  // through the port and triggers re-advertisement. Runs on the endpoint
  // nodes' behalf from a global event.
  void OnLinkChange(NodeId a, NodeId b);

  uint64_t total_updates() const;

 private:
  // One update as sent on one port: written once by the sender, then read
  // once, by the receiver's OnControl, which sets `consumed` when done.
  struct Advertisement {
    NodeId origin;
    std::vector<uint32_t> dist;
    std::atomic<bool> consumed{false};
  };

  void SendUpdates(Node* node);
  void Merge(Node* node, const Advertisement& adv);
  void Periodic(NodeId id);
  void TriggerUpdate(Node* node);

  Network* const net_;
  const Time period_;
  // The advertisements each node has sent and no receiver has consumed yet,
  // indexed by sender. A control packet names its advertisement by address
  // (Packet::seq), so the packet stays a trivially copyable value and the
  // payload never moves. Only the sender's LP touches its list: it frees the
  // consumed entries when it next sends. Those never consumed (the packet
  // was dropped, or was still in flight when the run ended) are freed with
  // the Network.
  std::vector<std::vector<std::unique_ptr<Advertisement>>> sent_;
};

}  // namespace unison

#endif  // UNISON_SRC_NET_ROUTING_H_
