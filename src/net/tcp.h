// TCP endpoints: NewReno congestion control with optional ECN and DCTCP.
//
// The implementation is byte-sequence based and stateful — slow start,
// congestion avoidance, fast retransmit/recovery with NewReno partial acks,
// RTO with exponential backoff, RTT estimation from echoed timestamps, and
// the DCTCP fraction-of-marked-bytes window reduction. This is the stateful
// protocol behaviour the data-driven surrogates cannot model (§2.2), which
// is why Table 2 compares against it.
//
// Endpoints live inside their node and are touched only by that node's LP.
#ifndef UNISON_SRC_NET_TCP_H_
#define UNISON_SRC_NET_TCP_H_

#include <cstdint>
#include <map>

#include "src/core/time.h"
#include "src/net/packet.h"

namespace unison {

class Network;
class Node;

// Speculation-checkpoint bookkeeping for one endpoint (DESIGN.md §3k),
// confined to the endpoint's LP like the rest of its state. `clean` means the
// checkpoint store's slot holds the endpoint's live state; the endpoint's
// first change after a capture clears it and queues the endpoint on its
// node's touched list. Without a store it stays false, so marking costs one
// predictable branch.
template <typename Endpoint>
struct CheckpointMark {
  static constexpr uint32_t kNoSlot = UINT32_MAX;
  bool clean = false;
  uint32_t slot = kNoSlot;   // The endpoint's slot in the store, once captured.
  Endpoint* next = nullptr;  // Next endpoint on the node's touched list.
};

struct TcpConfig {
  uint32_t mss = kMss;
  uint32_t init_cwnd_segments = 10;
  Time min_rto = Time::Milliseconds(10);
  Time initial_rto = Time::Milliseconds(10);
  bool ecn = false;    // ECN-capable; classic halve-once-per-window reaction.
  bool dctcp = false;  // DCTCP alpha reaction (implies ecn behaviourally).
  double dctcp_g = 1.0 / 16.0;
};

class TcpSender {
 public:
  TcpSender(Network* net, Node* node, uint32_t flow_id, NodeId dst, uint64_t bytes,
            const TcpConfig& config);

  // Sends the initial window. Call once, from the source node's LP.
  void Start();

  // Handles a cumulative ACK (possibly with an ECN echo).
  void OnAck(const Packet& ack);

  bool completed() const { return completed_; }
  uint64_t cwnd() const { return cwnd_; }
  uint64_t retransmits() const { return retransmits_; }
  double dctcp_alpha() const { return alpha_; }

  // Construction parameters, re-read when a fork reconstructs the endpoint.
  NodeId dst() const { return dst_; }
  uint64_t size() const { return size_; }
  const TcpConfig& config() const { return cfg_; }

  // Every mutable field of the connection, for snapshot/restore. Restore
  // overwrites the constructor-derived path_tag_ too: the constructor keys
  // it off Now(), which is zero when a fork rebuilds endpoints at setup
  // time, not the flow's original start.
  struct Image {
    uint32_t path_tag = 0;
    uint8_t state = 0;
    uint64_t snd_una = 0;
    uint64_t snd_nxt = 0;
    uint64_t high_tx = 0;
    uint64_t cwnd = 0;
    uint64_t ssthresh = 0;
    uint64_t recover = 0;
    uint32_t dup_acks = 0;
    bool completed = false;
    uint64_t retransmits = 0;
    int64_t srtt_ps = 0;
    int64_t rttvar_ps = 0;
    int64_t rto_ps = 0;
    bool rtt_valid = false;
    bool rto_pending = false;
    int64_t rto_deadline_ps = 0;
    uint32_t rto_backoff = 0;
    uint64_t cwr_end = 0;
    double alpha = 0;
    uint64_t dctcp_bytes_acked = 0;
    uint64_t dctcp_bytes_marked = 0;
    uint64_t dctcp_window_end = 0;
  };
  Image Save() const;
  void Restore(const Image& image);
  static constexpr uint8_t kNumStates = 3;  // Valid Image::state values.

  uint32_t flow_id() const { return flow_id_; }
  CheckpointMark<TcpSender>& checkpoint_mark() { return mark_; }

 private:
  friend struct TcpRtoEvent;  // Invokes OnRto() when the timer fires.

  enum class State { kSlowStart, kCongestionAvoidance, kFastRecovery };

  uint64_t InFlight() const { return snd_nxt_ - snd_una_; }
  void TrySend();
  void SendSegment(uint64_t seq, uint32_t len, bool retransmission);
  void UpdateRtt(Time sample);
  void ArmRto();
  void OnRto(uint64_t generation);
  void OnEcnEcho(uint64_t newly_acked, bool ece);
  void Complete();
  // Called before the first mutation of each entry point (Start, OnAck,
  // OnRto): marks the endpoint for the checkpoint store.
  void Touch();

  Network* const net_;
  Node* const node_;
  // Beside net_ and node_, which every entry point reads: the mark check
  // adds no cache line.
  CheckpointMark<TcpSender> mark_;
  const uint32_t flow_id_;
  const NodeId dst_;
  const uint64_t size_;
  const TcpConfig cfg_;
  uint32_t path_tag_ = 0;  // ECMP selector from stable flow identity.

  State state_ = State::kSlowStart;
  uint64_t snd_una_ = 0;  // Lowest unacknowledged byte.
  uint64_t snd_nxt_ = 0;  // Next byte to send (rewound by RTO recovery).
  uint64_t high_tx_ = 0;  // Transmit high-water mark (end of highest send).
  uint64_t cwnd_ = 0;
  uint64_t ssthresh_ = UINT64_MAX;
  uint64_t recover_ = 0;  // NewReno recovery point.
  uint32_t dup_acks_ = 0;
  bool completed_ = false;
  uint64_t retransmits_ = 0;

  // RTT estimation (RFC 6298).
  Time srtt_;
  Time rttvar_;
  Time rto_;
  bool rtt_valid_ = false;
  bool rto_pending_ = false;
  Time rto_deadline_;
  uint32_t rto_backoff_ = 0;

  // Classic ECN: one reduction per window.
  uint64_t cwr_end_ = 0;

  // DCTCP state.
  double alpha_ = 0.0;
  uint64_t dctcp_bytes_acked_ = 0;
  uint64_t dctcp_bytes_marked_ = 0;
  uint64_t dctcp_window_end_ = 0;
};

class TcpReceiver {
 public:
  TcpReceiver(Network* net, Node* node, uint32_t flow_id, NodeId src);

  // Handles a data segment: advances the cumulative ack point, stores
  // out-of-order data, emits an immediate ACK echoing CE marks and the
  // sender timestamp.
  void OnData(const Packet& pkt);

  uint64_t rcv_nxt() const { return rcv_nxt_; }
  NodeId src() const { return src_; }
  uint32_t flow_id() const { return flow_id_; }
  CheckpointMark<TcpReceiver>& checkpoint_mark() { return mark_; }

  struct Image {
    uint64_t rcv_nxt = 0;
    std::map<uint64_t, uint64_t> out_of_order;
  };
  Image Save() const { return Image{rcv_nxt_, out_of_order_}; }
  void Restore(const Image& image) {
    rcv_nxt_ = image.rcv_nxt;
    out_of_order_ = image.out_of_order;
  }

 private:
  void Touch();  // As TcpSender::Touch, from OnData.

  Network* const net_;
  Node* const node_;
  CheckpointMark<TcpReceiver> mark_;  // Beside net_ and node_, as in TcpSender.
  const uint32_t flow_id_;
  const NodeId src_;
  uint64_t rcv_nxt_ = 0;
  std::map<uint64_t, uint64_t> out_of_order_;  // start -> end, disjoint.
};

}  // namespace unison

#endif  // UNISON_SRC_NET_TCP_H_
