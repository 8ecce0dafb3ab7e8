#include "src/net/node.h"

#include <utility>

#include "src/net/network.h"
#include "src/net/routing.h"
#include "src/net/tcp.h"

namespace unison {
namespace {

// Per-flow ECMP hash: stable for a flow across a node, differing between
// nodes so parallel paths spread. Keyed by the packet's path tag (stable
// flow identity), never the monitor-assigned flow id — see packet.h.
uint32_t FlowHash(uint32_t path_tag, NodeId node) {
  uint64_t x = (static_cast<uint64_t>(path_tag) << 32) | (node * 0x9e3779b9u + 1);
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  return static_cast<uint32_t>(x);
}

}  // namespace

Node::Node(Network* net, NodeId id) : net_(net), id_(id) {}
Node::~Node() = default;

Device* Node::AddDevice(NodeId peer, uint64_t bps, Time delay, std::unique_ptr<Queue> queue) {
  const uint32_t port = static_cast<uint32_t>(devices_.size());
  devices_.push_back(
      std::make_unique<Device>(net_, id_, port, peer, bps, delay, std::move(queue)));
  return devices_.back().get();
}

int Node::FindPortTo(NodeId peer) const {
  for (uint32_t p = 0; p < devices_.size(); ++p) {
    if (devices_[p]->peer() == peer && devices_[p]->up()) {
      return static_cast<int>(p);
    }
  }
  return -1;
}

int Node::Route(const Packet& pkt) const {
  if (dv_ != nullptr) {
    const int32_t port = dv_->port[pkt.dst];
    return port >= 0 && devices_[port]->up() ? port : -1;
  }
  return net_->routing().Port(id_, pkt.dst, FlowHash(pkt.path_tag, id_));
}

void Node::Receive(Packet pkt) {
  if (pkt.dst == id_) {
    Deliver(std::move(pkt));
    return;
  }
  if (pkt.ttl == 0) {
    ++stats_.ttl_expired;
    return;
  }
  --pkt.ttl;
  const int port = Route(pkt);
  if (port < 0) {
    ++stats_.no_route;
    return;
  }
  ++stats_.forwarded;
  devices_[port]->Send(std::move(pkt));
}

void Node::SendFromLocal(Packet pkt) {
  if (pkt.dst == id_) {
    Deliver(std::move(pkt));  // Loopback.
    return;
  }
  const int port = Route(pkt);
  if (port < 0) {
    ++stats_.no_route;
    return;
  }
  devices_[port]->Send(std::move(pkt));
}

void Node::Deliver(Packet pkt) {
  ++stats_.delivered;
  switch (pkt.kind) {
    case PacketKind::kControl:
      if (net_->dv_routing() != nullptr) {
        net_->dv_routing()->OnControl(this, pkt);
      }
      return;
    case PacketKind::kUdp:
      // Datagrams need no endpoint object: account and done.
      net_->flow_monitor().AddRxBytes(pkt.flow_id, pkt.payload, net_->sim().Now());
      return;
    case PacketKind::kTcpAck: {
      auto it = senders_.find(pkt.flow_id);
      if (it != senders_.end()) {
        it->second->OnAck(pkt);
      }
      return;
    }
    case PacketKind::kTcpData: {
      auto it = receivers_.find(pkt.flow_id);
      if (it == receivers_.end()) {
        // Receivers are instantiated on the first data segment; no handshake
        // is modeled (connections are pre-established, as in the paper's
        // workloads).
        it = receivers_
                 .emplace(pkt.flow_id,
                          std::make_unique<TcpReceiver>(net_, this, pkt.flow_id, pkt.src))
                 .first;
      }
      it->second->OnData(pkt);
      return;
    }
  }
}

TcpSender* Node::AddSender(uint32_t flow_id, std::unique_ptr<TcpSender> sender) {
  TcpSender* const raw = sender.get();
  senders_.emplace(flow_id, std::move(sender));
  return raw;
}

TcpSender* Node::FindSender(uint32_t flow_id) {
  auto it = senders_.find(flow_id);
  return it == senders_.end() ? nullptr : it->second.get();
}

TcpReceiver* Node::AddReceiver(uint32_t flow_id, std::unique_ptr<TcpReceiver> receiver) {
  TcpReceiver* const raw = receiver.get();
  receivers_.emplace(flow_id, std::move(receiver));
  return raw;
}

void Node::ClearTcpEndpoints() {
  senders_.clear();
  receivers_.clear();
}

void Node::set_dv(std::unique_ptr<DvState> dv) { dv_ = std::move(dv); }

}  // namespace unison
