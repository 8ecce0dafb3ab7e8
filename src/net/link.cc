#include "src/net/link.h"

#include <utility>

#include "src/net/model_events.h"
#include "src/net/network.h"
#include "src/net/node.h"

namespace unison {

void Device::Send(Packet pkt) {
  if (!up_) {
    ++stats_.dropped_down;
    return;
  }
  if (transmitting_) {
    queue_->Enqueue(std::move(pkt), net_->sim().Now());
    return;
  }
  StartTransmit(std::move(pkt));
}

void Device::StartTransmit(Packet pkt) {
  transmitting_ = true;
  ++stats_.tx_packets;
  stats_.tx_bytes += pkt.size_bytes;
  const Time serialization = SerializationDelay(pkt.size_bytes, bps_);

  // Arrival at the peer after serialization plus propagation. The peer may
  // live in another LP; the facade routes through a mailbox then. The total
  // delay is >= the link's propagation delay >= the partition lookahead, so
  // the event always lands beyond the receiver's current window.
  // The functor is built at the outbox's tail (or in the FEL slot, when the
  // peer shares this LP); model_events.h asserts it fits the inline buffer.
  net_->sim().ScheduleOnNode(peer_, serialization + delay_,
                             PacketDeliverEvent{net_, peer_, pkt});

  // Local completion: start on the next queued packet.
  net_->sim().Schedule(serialization, TransmitCompleteEvent{net_, self_, port_});
}

void Device::TransmitComplete() {
  transmitting_ = false;
  Packet next;
  if (queue_->Dequeue(&next, net_->sim().Now())) {
    StartTransmit(std::move(next));
  }
}

}  // namespace unison
