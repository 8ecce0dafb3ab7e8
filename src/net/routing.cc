#include "src/net/routing.h"

#include <algorithm>
#include <queue>

#include "src/net/network.h"
#include "src/net/node.h"

namespace unison {

void GlobalRouting::Compute(Network& net) {
  n_ = net.num_nodes();
  table_.assign(static_cast<size_t>(n_) * n_, Entry{});

  // Adjacency from the up devices: (neighbor, local port).
  std::vector<std::vector<std::pair<NodeId, uint8_t>>> adj(n_);
  for (NodeId u = 0; u < n_; ++u) {
    Node& node = net.node(u);
    for (uint32_t p = 0; p < node.num_ports(); ++p) {
      const Device* dev = node.device(p);
      if (dev->up()) {
        adj[u].emplace_back(dev->peer(), static_cast<uint8_t>(p));
      }
    }
  }

  std::vector<uint32_t> dist(n_);
  constexpr uint32_t kUnreached = 0xffffffffu;
  for (NodeId dst = 0; dst < n_; ++dst) {
    // BFS from the destination; links are symmetric (full duplex).
    std::fill(dist.begin(), dist.end(), kUnreached);
    dist[dst] = 0;
    std::queue<NodeId> q;
    q.push(dst);
    while (!q.empty()) {
      const NodeId u = q.front();
      q.pop();
      for (const auto& [v, port] : adj[u]) {
        (void)port;
        if (dist[v] == kUnreached) {
          dist[v] = dist[u] + 1;
          q.push(v);
        }
      }
    }
    // Every up port leading one hop closer to dst is an ECMP candidate.
    for (NodeId u = 0; u < n_; ++u) {
      if (u == dst || dist[u] == kUnreached) {
        continue;
      }
      Entry& e = table_[static_cast<size_t>(u) * n_ + dst];
      for (const auto& [v, port] : adj[u]) {
        if (dist[v] + 1 == dist[u] && e.count < kMaxEcmp) {
          e.ports[e.count++] = port;
        }
      }
    }
  }
}

int GlobalRouting::Port(NodeId node, NodeId dst, uint32_t flow_hash) const {
  const Entry& e = table_[static_cast<size_t>(node) * n_ + dst];
  if (e.count == 0) {
    return -1;
  }
  return e.ports[flow_hash % e.count];
}

uint32_t GlobalRouting::EcmpWidth(NodeId node, NodeId dst) const {
  return table_[static_cast<size_t>(node) * n_ + dst].count;
}

// --- Distance vector ---

void DistanceVectorRouting::Install() {
  const uint32_t n = net_->num_nodes();
  sent_.clear();
  sent_.resize(n);
  for (NodeId id = 0; id < n; ++id) {
    auto dv = std::make_unique<DvState>();
    dv->dist.assign(n, DvState::kInfinity);
    dv->port.assign(n, -1);
    dv->dist[id] = 0;
    net_->node(id).set_dv(std::move(dv));
  }
  // Stagger the periodic advertisements so the control plane does not fire
  // in one synchronized burst.
  for (NodeId id = 0; id < n; ++id) {
    const Time jitter = Time::Picoseconds((period_.ps() / std::max(1u, n)) * id);
    net_->sim().ScheduleOnNode(id, jitter, [this, id] { Periodic(id); });
  }
}

void DistanceVectorRouting::Periodic(NodeId id) {
  Node& node = net_->node(id);
  SendUpdates(&node);
  net_->sim().Schedule(period_, [this, id] { Periodic(id); });
}

void DistanceVectorRouting::TriggerUpdate(Node* node) {
  if (node->dv()->triggered_pending) {
    return;
  }
  node->dv()->triggered_pending = true;
  // Small delay coalesces bursts of changes into one advertisement.
  // ScheduleOnNode rather than Schedule: link-change notifications arrive
  // from a global event, whose LP must not run node work.
  const NodeId id = node->id();
  net_->sim().ScheduleOnNode(id, Time::Microseconds(100), [this, id] {
    Node& n = net_->node(id);
    n.dv()->triggered_pending = false;
    SendUpdates(&n);
  });
}

void DistanceVectorRouting::SendUpdates(Node* node) {
  DvState* const dv = node->dv();
  const uint32_t n = net_->num_nodes();
  std::vector<std::unique_ptr<Advertisement>>& sent = sent_[node->id()];
  // The acquire pairs with OnControl's release: the receiver's reads of an
  // advertisement happen before the sender frees it.
  std::erase_if(sent, [](const std::unique_ptr<Advertisement>& adv) {
    return adv->consumed.load(std::memory_order_acquire);
  });
  for (uint32_t p = 0; p < node->num_ports(); ++p) {
    Device* const dev = node->device(p);
    if (!dev->up()) {
      continue;
    }
    // Split horizon with poisoned reverse: routes learned through this port
    // are advertised back as unreachable.
    auto adv = std::make_unique<Advertisement>();
    adv->origin = node->id();
    adv->dist = dv->dist;
    for (NodeId d = 0; d < n; ++d) {
      if (dv->port[d] == static_cast<int32_t>(p)) {
        adv->dist[d] = DvState::kInfinity;
      }
    }
    Packet pkt;
    pkt.kind = PacketKind::kControl;
    pkt.src = node->id();
    pkt.dst = dev->peer();
    pkt.size_bytes = 8 + 4 * n;  // Header + one 32-bit metric per node.
    // The payload handle: the advertisement's address, in a field control
    // traffic leaves unused.
    pkt.seq = reinterpret_cast<uintptr_t>(adv.get());
    sent.push_back(std::move(adv));
    dev->Send(std::move(pkt));
    ++dv->updates_sent;
  }
}

void DistanceVectorRouting::OnControl(Node* node, const Packet& pkt) {
  auto* const adv =
      reinterpret_cast<Advertisement*>(static_cast<uintptr_t>(pkt.seq));
  Merge(node, *adv);
  // Nothing reads the advertisement after this; its sender may free it.
  adv->consumed.store(true, std::memory_order_release);
}

void DistanceVectorRouting::Merge(Node* node, const Advertisement& adv) {
  DvState* const dv = node->dv();
  const int port = node->FindPortTo(adv.origin);
  if (port < 0) {
    return;  // Link went down while the update was in flight.
  }
  bool changed = false;
  const uint32_t n = static_cast<uint32_t>(adv.dist.size());
  for (NodeId d = 0; d < n; ++d) {
    if (d == node->id()) {
      continue;
    }
    const uint32_t cand =
        std::min<uint32_t>(adv.dist[d] + 1, DvState::kInfinity);
    if (dv->port[d] == port) {
      // Current route goes through the sender: accept its metric, better or
      // worse (this is what lets bad news propagate).
      if (dv->dist[d] != cand) {
        dv->dist[d] = cand;
        if (cand == DvState::kInfinity) {
          dv->port[d] = -1;
        }
        changed = true;
      }
    } else if (cand < dv->dist[d]) {
      dv->dist[d] = cand;
      dv->port[d] = port;
      changed = true;
    }
  }
  if (changed) {
    TriggerUpdate(node);
  }
}

void DistanceVectorRouting::OnLinkChange(NodeId a, NodeId b) {
  for (const auto& [self, peer] : {std::pair{a, b}, std::pair{b, a}}) {
    Node& node = net_->node(self);
    DvState* const dv = node.dv();
    if (dv == nullptr) {
      continue;
    }
    const int port_up = node.FindPortTo(peer);
    if (port_up >= 0) {
      // Link came (back) up: the periodic advertisement will re-learn routes;
      // nudge convergence with a triggered update.
      TriggerUpdate(&node);
      continue;
    }
    // Link down: poison every route through any port to the peer.
    bool changed = false;
    for (uint32_t p = 0; p < node.num_ports(); ++p) {
      if (node.device(p)->peer() != peer) {
        continue;
      }
      for (NodeId d = 0; d < dv->dist.size(); ++d) {
        if (dv->port[d] == static_cast<int32_t>(p)) {
          dv->dist[d] = DvState::kInfinity;
          dv->port[d] = -1;
          changed = true;
        }
      }
    }
    if (changed) {
      TriggerUpdate(&node);
    }
  }
}

uint64_t DistanceVectorRouting::total_updates() const {
  uint64_t sum = 0;
  for (NodeId id = 0; id < net_->num_nodes(); ++id) {
    const DvState* dv = net_->node(id).dv();
    if (dv != nullptr) {
      sum += dv->updates_sent;
    }
  }
  return sum;
}

}  // namespace unison
