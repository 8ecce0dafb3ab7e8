// Simulated nodes. A node is a host, a switch, or both (torus nodes forward
// and run applications): it owns its devices, its TCP endpoints, and — when
// distance-vector routing is enabled — its routing table. All node state is
// confined to the node's LP.
#ifndef UNISON_SRC_NET_NODE_H_
#define UNISON_SRC_NET_NODE_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/core/time.h"
#include "src/net/link.h"
#include "src/net/packet.h"

namespace unison {

class Network;
class TcpSender;
class TcpReceiver;
class DvState;

struct NodeStats {
  uint64_t forwarded = 0;
  uint64_t delivered = 0;
  uint64_t no_route = 0;
  uint64_t ttl_expired = 0;
};

class Node {
 public:
  Node(Network* net, NodeId id);
  ~Node();

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  NodeId id() const { return id_; }

  Device* AddDevice(NodeId peer, uint64_t bps, Time delay, std::unique_ptr<Queue> queue);
  Device* device(uint32_t port) { return devices_[port].get(); }
  uint32_t num_ports() const { return static_cast<uint32_t>(devices_.size()); }

  // Port of the (first, up) device whose peer is `peer`, or -1.
  int FindPortTo(NodeId peer) const;

  // Entry point for packets arriving from a link.
  void Receive(Packet pkt);

  // Routes and transmits a locally originated packet.
  void SendFromLocal(Packet pkt);

  // --- TCP endpoints ---
  TcpSender* AddSender(uint32_t flow_id, std::unique_ptr<TcpSender> sender);
  TcpSender* FindSender(uint32_t flow_id);
  // Receivers normally instantiate lazily on the first data segment; a fork
  // pre-installs captured ones so their cumulative-ack state carries over.
  TcpReceiver* AddReceiver(uint32_t flow_id, std::unique_ptr<TcpReceiver> receiver);
  // Drops every TCP endpoint. Used by a window-state restore, which
  // re-creates the captured endpoint set (endpoints hold no events — their
  // RTOs live in the FELs, which the restore rebuilds separately).
  void ClearTcpEndpoints();

  // Endpoint maps for snapshot capture. Iteration order is unspecified
  // (unordered_map) — serialization sorts by flow id.
  const std::unordered_map<uint32_t, std::unique_ptr<TcpSender>>& senders() const {
    return senders_;
  }
  const std::unordered_map<uint32_t, std::unique_ptr<TcpReceiver>>& receivers() const {
    return receivers_;
  }

  // --- Distance-vector routing state (installed by DistanceVectorRouting) ---
  DvState* dv() { return dv_.get(); }
  void set_dv(std::unique_ptr<DvState> dv);

  const NodeStats& stats() const { return stats_; }
  void set_stats(const NodeStats& stats) { stats_ = stats; }

 private:
  // Chooses the egress port for `pkt`, or -1 when unroutable.
  int Route(const Packet& pkt) const;
  void Deliver(Packet pkt);

  Network* const net_;
  const NodeId id_;
  std::vector<std::unique_ptr<Device>> devices_;
  std::unordered_map<uint32_t, std::unique_ptr<TcpSender>> senders_;
  std::unordered_map<uint32_t, std::unique_ptr<TcpReceiver>> receivers_;
  std::unique_ptr<DvState> dv_;
  NodeStats stats_;
};

}  // namespace unison

#endif  // UNISON_SRC_NET_NODE_H_
