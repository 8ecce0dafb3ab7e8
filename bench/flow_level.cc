#include "bench/flow_level.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/net/network.h"
#include "src/net/node.h"

namespace unison {
namespace {

// Matches Node::Route's per-flow ECMP spreading exactly: the same path-tag
// derivation over the flow's stable identity, fed through the same per-node
// mix, so the fluid model walks the identical path the packet-level flow
// takes.
uint32_t FlowHash(uint32_t path_tag, NodeId node) {
  uint64_t x = (static_cast<uint64_t>(path_tag) << 32) | (node * 0x9e3779b9u + 1);
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  return static_cast<uint32_t>(x);
}

}  // namespace

FlowLevelSimulator::FlowLevelSimulator(Network& net) : net_(&net) {
  net.Finalize();
  // Directed link id = global device index, assigned per (node, port).
  uint32_t next = 0;
  for (NodeId n = 0; n < net.num_nodes(); ++n) {
    next += net.node(n).num_ports();
  }
  capacity_bps_.assign(next, 0);
  uint32_t id = 0;
  for (NodeId n = 0; n < net.num_nodes(); ++n) {
    for (uint32_t p = 0; p < net.node(n).num_ports(); ++p) {
      capacity_bps_[id++] = static_cast<double>(net.node(n).device(p)->bps());
    }
  }
}

std::vector<std::vector<uint32_t>> FlowLevelSimulator::PathsOf(
    const std::vector<FluidFlow>& flows) {
  // Precompute the directed-link id base per node.
  std::vector<uint32_t> base(net_->num_nodes() + 1, 0);
  for (NodeId n = 0; n < net_->num_nodes(); ++n) {
    base[n + 1] = base[n] + net_->node(n).num_ports();
  }
  std::vector<std::vector<uint32_t>> paths(flows.size());
  for (size_t f = 0; f < flows.size(); ++f) {
    NodeId at = flows[f].src;
    uint32_t guard = 0;
    while (at != flows[f].dst && guard++ < net_->num_nodes()) {
      const int port = net_->routing().Port(
          at, flows[f].dst,
          FlowHash(EcmpPathTag(flows[f].src, flows[f].dst, flows[f].bytes,
                               flows[f].start.ps()),
                   at));
      if (port < 0) {
        paths[f].clear();  // Unroutable: flow never progresses.
        break;
      }
      paths[f].push_back(base[at] + static_cast<uint32_t>(port));
      at = net_->node(at).device(port)->peer();
    }
  }
  return paths;
}

std::vector<double> FlowLevelSimulator::MaxMinRates(
    const std::vector<std::vector<uint32_t>>& paths,
    const std::vector<double>& capacity_bps) {
  const size_t n = paths.size();
  std::vector<double> rate(n, 0);
  std::vector<bool> fixed(n, false);
  std::vector<double> remaining = capacity_bps;
  std::vector<uint32_t> unfixed_on(capacity_bps.size(), 0);
  for (const auto& path : paths) {
    for (uint32_t l : path) {
      ++unfixed_on[l];
    }
  }
  size_t left = 0;
  for (const auto& path : paths) {
    if (!path.empty()) {
      ++left;
    }
  }
  // Progressive filling: repeatedly saturate the tightest link.
  while (left > 0) {
    double share = std::numeric_limits<double>::infinity();
    for (size_t l = 0; l < capacity_bps.size(); ++l) {
      if (unfixed_on[l] > 0) {
        share = std::min(share, remaining[l] / unfixed_on[l]);
      }
    }
    if (!std::isfinite(share)) {
      break;
    }
    // Fix every unfixed flow crossing a link that saturates at this share.
    bool any = false;
    for (size_t f = 0; f < n; ++f) {
      if (fixed[f] || paths[f].empty()) {
        continue;
      }
      bool bottlenecked = false;
      for (uint32_t l : paths[f]) {
        if (remaining[l] / unfixed_on[l] <= share * (1 + 1e-12)) {
          bottlenecked = true;
          break;
        }
      }
      if (!bottlenecked) {
        continue;
      }
      fixed[f] = true;
      rate[f] = share;
      any = true;
      --left;
      for (uint32_t l : paths[f]) {
        remaining[l] -= share;
        --unfixed_on[l];
      }
    }
    if (!any) {
      break;  // Numerical corner: everything unfixed is unconstrained.
    }
  }
  return rate;
}

std::vector<FluidResult> FlowLevelSimulator::Run(const std::vector<FluidFlow>& flows,
                                                 Time horizon) {
  const auto paths = PathsOf(flows);
  std::vector<FluidResult> out(flows.size());
  std::vector<double> remaining_bits(flows.size());
  std::vector<bool> active(flows.size(), false);
  for (size_t f = 0; f < flows.size(); ++f) {
    remaining_bits[f] = static_cast<double>(flows[f].bytes) * 8;
  }

  // Event order: flow arrivals by start time; completions computed on the
  // fly from current rates.
  std::vector<size_t> by_start(flows.size());
  for (size_t i = 0; i < by_start.size(); ++i) {
    by_start[i] = i;
  }
  std::stable_sort(by_start.begin(), by_start.end(), [&flows](size_t a, size_t b) {
    return flows[a].start < flows[b].start;
  });

  size_t next_arrival = 0;
  double now_s = 0;
  const double horizon_s = horizon.ToSeconds();
  std::vector<std::vector<uint32_t>> active_paths;
  std::vector<size_t> active_ids;

  while (now_s < horizon_s) {
    // Assemble the active set and its rates.
    active_paths.clear();
    active_ids.clear();
    for (size_t f = 0; f < flows.size(); ++f) {
      if (active[f]) {
        active_ids.push_back(f);
        active_paths.push_back(paths[f]);
      }
    }
    const std::vector<double> rates = MaxMinRates(active_paths, capacity_bps_);

    // Next event: earliest completion or next arrival.
    double next_event_s = horizon_s;
    size_t completing = SIZE_MAX;
    for (size_t i = 0; i < active_ids.size(); ++i) {
      if (rates[i] > 0) {
        const double t = now_s + remaining_bits[active_ids[i]] / rates[i];
        if (t < next_event_s) {
          next_event_s = t;
          completing = active_ids[i];
        }
      }
    }
    bool arrival = false;
    if (next_arrival < by_start.size()) {
      const double t = flows[by_start[next_arrival]].start.ToSeconds();
      if (t <= next_event_s) {
        next_event_s = t;
        arrival = true;
      }
    }
    if (!arrival && completing == SIZE_MAX && active_ids.empty() &&
        next_arrival >= by_start.size()) {
      break;  // Nothing left to happen.
    }

    // Drain the interval at current rates.
    const double dt = next_event_s - now_s;
    for (size_t i = 0; i < active_ids.size(); ++i) {
      remaining_bits[active_ids[i]] -= rates[i] * dt;
    }
    now_s = next_event_s;

    if (arrival) {
      const size_t f = by_start[next_arrival++];
      active[f] = true;
    } else if (completing != SIZE_MAX) {
      active[completing] = false;
      out[completing].completed = true;
      out[completing].fct =
          Time::Seconds(now_s - flows[completing].start.ToSeconds());
      if (out[completing].fct.ps() > 0) {
        out[completing].mean_rate_bps = static_cast<double>(flows[completing].bytes) *
                                        8 / out[completing].fct.ToSeconds();
      }
      remaining_bits[completing] = 0;
    } else {
      break;  // Horizon reached with no event.
    }
  }
  return out;
}

}  // namespace unison
