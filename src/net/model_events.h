// Named event functors for every event type the network model schedules.
//
// The model layers used to schedule ad-hoc lambdas. A snapshot cannot look
// inside a type-erased closure, so each scheduling site now constructs one
// of the named functor types below instead. EventFn::TryAs<F>() identifies
// them inside a captured FEL by ops-table pointer identity — zero cost on
// the dispatch path — and session.cc serializes their fields and rebinds
// them to the forked Network on restore. Behaviour is unchanged: each
// operator() body is exactly the lambda body it replaced, and the functors
// carry the same captures, so event keys and processing order are identical
// to the pre-refactor code.
#ifndef UNISON_SRC_NET_MODEL_EVENTS_H_
#define UNISON_SRC_NET_MODEL_EVENTS_H_

#include <cstdint>

#include "src/core/event.h"
#include "src/net/packet.h"
#include "src/net/tcp.h"

namespace unison {

class Network;

// Serialization tags; stable identifiers in the USNP snapshot format (see
// session.cc). Tag 0 is reserved so a zeroed byte never aliases a real type.
enum class ModelEventTag : uint8_t {
  kPacketDeliver = 1,
  kTransmitComplete = 2,
  kTcpRto = 3,
  kFlowStart = 4,
  kFlowArrival = 5,
  kLinkUpDown = 6,
};

// Packet arrival at the receiving device's node (link.cc StartTransmit).
struct PacketDeliverEvent {
  Network* net;
  NodeId peer;
  Packet pkt;
  void operator()();
};

// Serialization finished on a device: start on the next queued packet.
struct TransmitCompleteEvent {
  Network* net;
  NodeId node;
  uint32_t port;
  void operator()();
};

// TCP retransmission-timeout firing; resolves the sender by flow id so a
// restored event finds the fork's own endpoint object.
struct TcpRtoEvent {
  Network* net;
  NodeId node;
  uint32_t flow_id;
  void operator()();
};

// Materialized flow start (app.cc InstallFlow): instantiates the TCP sender
// on the source node's LP. The flow id was assigned at registration time.
struct FlowStartEvent {
  Network* net;
  uint32_t flow_id;
  NodeId src;
  NodeId dst;
  uint64_t bytes;
  TcpConfig cfg;
  void operator()();
};

// Streaming arrival (flow_source.cc): installs the pending flow and draws
// the next. Indexed through the network's FlowSourceSet registry rather
// than a raw FlowSource pointer so the event survives a fork.
struct FlowArrivalEvent {
  Network* net;
  uint32_t set_index;
  uint32_t source_index;
  void operator()();
};

// Administrative link state change, scheduled by Network::FailLink as a
// global event (topology changes must run on the public LP).
struct LinkUpDownEvent {
  Network* net;
  uint32_t link;
  bool up;
  void operator()();
};

// Every model event is constructed straight into an event's inline buffer;
// none may take the heap fallback. Packet delivery, the per-hop event, is
// the one the 80-byte buffer is sized for: it fills it exactly.
static_assert(sizeof(PacketDeliverEvent) == kEventFnInlineBytes);
static_assert(EventFn::FitsInline<PacketDeliverEvent>());
static_assert(EventFn::FitsInline<TransmitCompleteEvent>());
static_assert(EventFn::FitsInline<TcpRtoEvent>());
static_assert(EventFn::FitsInline<FlowStartEvent>());
static_assert(EventFn::FitsInline<FlowArrivalEvent>());
static_assert(EventFn::FitsInline<LinkUpDownEvent>());

}  // namespace unison

#endif  // UNISON_SRC_NET_MODEL_EVENTS_H_
