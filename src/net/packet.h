// Packets. Modeled as small value types copied into event closures: at the
// simulation's packet rates, value semantics are cheaper than shared-pointer
// reference counting and are trivially thread-safe across LPs — the design
// the paper's lock-free workflow needs (ns-3 required atomic refcounts and
// disabled buffer recycling to get the same safety, §5.1).
#ifndef UNISON_SRC_NET_PACKET_H_
#define UNISON_SRC_NET_PACKET_H_

#include <cstdint>
#include <type_traits>

#include "src/core/event.h"
#include "src/core/time.h"

namespace unison {

// Wire framing constants. kMss is the TCP payload per full segment; a full
// data segment occupies kMss + kHeaderBytes on the wire.
inline constexpr uint32_t kMss = 1400;
inline constexpr uint32_t kHeaderBytes = 60;  // Eth + IPv4 + TCP + framing.
inline constexpr uint32_t kAckBytes = kHeaderBytes;

enum class PacketKind : uint8_t {
  kTcpData,
  kTcpAck,
  kUdp,      // Datagram traffic (On-Off application).
  kControl,  // Routing-protocol traffic (distance vector updates).
};

// One cache line, trivially copyable: the 8-byte fields first, then the
// 4-, 2- and 1-byte ones, so nothing is padding. A packet-delivery event
// ({Network*, NodeId, Packet}, 80 bytes) then fills the event's inline
// buffer exactly.
struct Packet {
  // TCP data: offset of the first payload byte. A kControl packet carries no
  // TCP state and names its routing payload here instead (the protocol owns
  // the payload; see DistanceVectorRouting).
  uint64_t seq = 0;
  uint64_t ack = 0;  // TCP ack: cumulative ack, the next byte expected.

  // Timestamp option: sender stamp, echoed by the receiver for RTT sampling.
  Time ts;
  Time ts_echo;

  uint32_t flow_id = 0;
  NodeId src = 0;
  NodeId dst = 0;
  uint32_t size_bytes = 0;  // Total on-wire size.
  uint32_t payload = 0;     // TCP data: payload bytes carried.

  // ECMP path selector. Derived from the flow's stable identity (src, dst,
  // bytes, start) rather than the monitor-assigned flow id: flow ids encode
  // the registering shard and registration order, which legitimately differ
  // between streaming and materialized installation and between thread
  // counts, while the path a flow takes must not.
  uint32_t path_tag = 0;

  // Control payload type (the protocol's own tag; kind tells the handler).
  uint16_t control_kind = 0;

  PacketKind kind = PacketKind::kTcpData;
  uint8_t ttl = 64;

  // ECN (RFC 3168 / DCTCP): capable transport, congestion-experienced mark.
  bool ecn_capable = false;
  bool ecn_ce = false;

  bool fin = false;  // TCP data: last segment of the flow.
  bool ece = false;  // TCP ack: echo of a CE mark (per-packet, DCTCP style).
};
static_assert(sizeof(Packet) == 64, "a Packet is one cache line");
static_assert(std::is_trivially_copyable_v<Packet>,
              "packets are copied byte-wise through event buffers");

// ECMP path tag from a flow's stable identity (FNV-1a). Shared between the
// packet-level TCP sender and the fluid flow-level model so both pick the
// same paths for the same flows.
inline uint32_t EcmpPathTag(NodeId src, NodeId dst, uint64_t bytes, int64_t start_ps) {
  uint64_t x = 0xcbf29ce484222325ULL;
  for (uint64_t v : {static_cast<uint64_t>(src), static_cast<uint64_t>(dst),
                     bytes, static_cast<uint64_t>(start_ps)}) {
    x ^= v;
    x *= 0x100000001b3ULL;
  }
  x ^= x >> 32;
  return static_cast<uint32_t>(x);
}

}  // namespace unison

#endif  // UNISON_SRC_NET_PACKET_H_
