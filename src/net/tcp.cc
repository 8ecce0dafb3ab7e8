#include "src/net/tcp.h"

#include <algorithm>

#include "src/net/model_events.h"
#include "src/net/network.h"
#include "src/net/node.h"

namespace unison {

TcpSender::TcpSender(Network* net, Node* node, uint32_t flow_id, NodeId dst, uint64_t bytes,
                     const TcpConfig& config)
    : net_(net),
      node_(node),
      flow_id_(flow_id),
      dst_(dst),
      size_(bytes),
      cfg_(config),
      rto_(config.initial_rto) {
  cwnd_ = static_cast<uint64_t>(cfg_.init_cwnd_segments) * cfg_.mss;
  // Constructed from inside the flow's start event in both installation
  // modes, so Now() is the flow's start time. The tag deliberately ignores
  // the monitor-assigned flow id, whose value encodes registration order and
  // shard — which differ between streaming and materialized installation —
  // while a flow's path must not.
  path_tag_ = EcmpPathTag(node->id(), dst, bytes, net->sim().Now().ps());
}

void TcpSender::Start() {
  if (size_ == 0) {
    Complete();  // Empty flow: nothing to transfer.
    return;
  }
  dctcp_window_end_ = 0;
  TrySend();
  ArmRto();
}

void TcpSender::TrySend() {
  // Send while the window has room; the final segment may be short. A
  // segment below the transmit high-water mark is a retransmission (the
  // go-back-N resend after an RTO reaches here with snd_nxt_ rewound).
  while (snd_nxt_ < size_ && InFlight() < cwnd_) {
    const uint32_t len = static_cast<uint32_t>(std::min<uint64_t>(cfg_.mss, size_ - snd_nxt_));
    SendSegment(snd_nxt_, len, /*retransmission=*/snd_nxt_ < high_tx_);
    snd_nxt_ += len;
  }
}

void TcpSender::SendSegment(uint64_t seq, uint32_t len, bool retransmission) {
  Packet pkt;
  pkt.kind = PacketKind::kTcpData;
  pkt.flow_id = flow_id_;
  pkt.src = node_->id();
  pkt.dst = dst_;
  pkt.seq = seq;
  pkt.payload = len;
  pkt.size_bytes = len + kHeaderBytes;
  pkt.fin = seq + len >= size_;
  pkt.ecn_capable = cfg_.ecn || cfg_.dctcp;
  pkt.path_tag = path_tag_;
  pkt.ts = net_->sim().Now();
  high_tx_ = std::max(high_tx_, seq + len);
  if (retransmission) {
    ++retransmits_;
    net_->flow_monitor().AddRetransmit(flow_id_);
  }
  node_->SendFromLocal(std::move(pkt));
}

void TcpSender::UpdateRtt(Time sample) {
  net_->flow_monitor().AddRtt(flow_id_, sample);
  if (!rtt_valid_) {
    srtt_ = sample;
    rttvar_ = Time::Picoseconds(sample.ps() / 2);
    rtt_valid_ = true;
  } else {
    // RFC 6298: rttvar = 3/4 rttvar + 1/4 |srtt - sample|;
    //           srtt = 7/8 srtt + 1/8 sample.
    const int64_t err = std::abs(srtt_.ps() - sample.ps());
    rttvar_ = Time::Picoseconds((3 * rttvar_.ps() + err) / 4);
    srtt_ = Time::Picoseconds((7 * srtt_.ps() + sample.ps()) / 8);
  }
  rto_ = std::max(cfg_.min_rto, srtt_ + Time::Picoseconds(4 * rttvar_.ps()));
}

void TcpSender::ArmRto() {
  // Lazy timer: remember the desired deadline; keep at most one event in the
  // FEL. A stale firing re-arms itself instead of timing out.
  const Time timeout = Time::Picoseconds(rto_.ps() << rto_backoff_);
  rto_deadline_ = net_->sim().Now() + timeout;
  if (!rto_pending_) {
    rto_pending_ = true;
    net_->sim().ScheduleOnNode(node_->id(), timeout,
                               TcpRtoEvent{net_, node_->id(), flow_id_});
  }
}

void TcpSender::OnRto(uint64_t /*generation*/) {
  rto_pending_ = false;
  if (completed_ || snd_una_ >= size_) {
    return;  // Flow finished; nothing outstanding.
  }
  const Time now = net_->sim().Now();
  if (now < rto_deadline_) {
    // The deadline moved forward since this timer was armed: re-arm.
    rto_pending_ = true;
    net_->sim().Schedule(rto_deadline_ - now,
                         TcpRtoEvent{net_, node_->id(), flow_id_});
    return;
  }
  // Timeout: collapse to one segment, go back to slow start, resend from the
  // ack point.
  ssthresh_ = std::max<uint64_t>(InFlight() / 2, 2 * cfg_.mss);
  cwnd_ = cfg_.mss;
  snd_nxt_ = snd_una_;
  dup_acks_ = 0;
  state_ = State::kSlowStart;
  rto_backoff_ = std::min(rto_backoff_ + 1, 8u);
  TrySend();
  ArmRto();
}

void TcpSender::OnEcnEcho(uint64_t newly_acked, bool ece) {
  if (cfg_.dctcp) {
    dctcp_bytes_acked_ += newly_acked;
    if (ece) {
      dctcp_bytes_marked_ += newly_acked;
    }
    if (snd_una_ >= dctcp_window_end_) {
      // One observation window (~RTT) elapsed: fold the marked fraction into
      // alpha and apply the DCTCP reduction if anything was marked.
      const double frac = dctcp_bytes_acked_ == 0
                              ? 0.0
                              : static_cast<double>(dctcp_bytes_marked_) /
                                    static_cast<double>(dctcp_bytes_acked_);
      alpha_ = (1.0 - cfg_.dctcp_g) * alpha_ + cfg_.dctcp_g * frac;
      if (dctcp_bytes_marked_ > 0) {
        cwnd_ = std::max<uint64_t>(
            static_cast<uint64_t>(static_cast<double>(cwnd_) * (1.0 - alpha_ / 2.0)),
            cfg_.mss);
        ssthresh_ = cwnd_;
        state_ = State::kCongestionAvoidance;
      }
      dctcp_bytes_acked_ = 0;
      dctcp_bytes_marked_ = 0;
      dctcp_window_end_ = snd_nxt_;
    }
  } else if (cfg_.ecn && ece && snd_una_ >= cwr_end_) {
    // Classic ECN: at most one halving per window of data.
    ssthresh_ = std::max<uint64_t>(cwnd_ / 2, 2 * cfg_.mss);
    cwnd_ = ssthresh_;
    state_ = State::kCongestionAvoidance;
    cwr_end_ = snd_nxt_;
  }
}

void TcpSender::OnAck(const Packet& ack) {
  if (completed_) {
    return;
  }
  if (ack.ts_echo.ps() > 0) {
    UpdateRtt(net_->sim().Now() - ack.ts_echo);
  }

  if (ack.ack > snd_una_) {
    const uint64_t newly = ack.ack - snd_una_;
    snd_una_ = ack.ack;
    rto_backoff_ = 0;
    OnEcnEcho(newly, ack.ece);

    if (state_ == State::kFastRecovery) {
      if (snd_una_ >= recover_) {
        // Full ack: leave recovery.
        cwnd_ = ssthresh_;
        state_ = State::kCongestionAvoidance;
        dup_acks_ = 0;
      } else {
        // NewReno partial ack: retransmit the next hole, deflate the window
        // by the acked amount and inflate by one segment.
        SendSegment(snd_una_,
                    static_cast<uint32_t>(
                        std::min<uint64_t>(cfg_.mss, size_ - snd_una_)),
                    true);
        cwnd_ = cwnd_ > newly ? cwnd_ - newly + cfg_.mss : cfg_.mss;
      }
    } else {
      dup_acks_ = 0;
      if (state_ == State::kSlowStart) {
        cwnd_ += std::min<uint64_t>(newly, cfg_.mss);
        if (cwnd_ >= ssthresh_) {
          state_ = State::kCongestionAvoidance;
        }
      } else {
        // Congestion avoidance: ~one MSS per RTT.
        cwnd_ += std::max<uint64_t>(1, static_cast<uint64_t>(cfg_.mss) * cfg_.mss / cwnd_);
      }
    }

    if (snd_una_ >= size_) {
      Complete();
      return;
    }
    ArmRto();
  } else if (snd_nxt_ > snd_una_) {
    // Duplicate ack while data is outstanding.
    ++dup_acks_;
    if (state_ == State::kFastRecovery) {
      cwnd_ += cfg_.mss;  // Inflation per additional dup ack.
    } else if (dup_acks_ == 3) {
      // Fast retransmit.
      ssthresh_ = std::max<uint64_t>(InFlight() / 2, 2 * cfg_.mss);
      recover_ = snd_nxt_;
      state_ = State::kFastRecovery;
      cwnd_ = ssthresh_ + 3 * cfg_.mss;
      SendSegment(snd_una_,
                  static_cast<uint32_t>(std::min<uint64_t>(cfg_.mss, size_ - snd_una_)),
                  true);
    }
    OnEcnEcho(0, ack.ece);
  }
  TrySend();
}

TcpSender::Image TcpSender::Save() const {
  Image im;
  im.path_tag = path_tag_;
  im.state = static_cast<uint8_t>(state_);
  im.snd_una = snd_una_;
  im.snd_nxt = snd_nxt_;
  im.high_tx = high_tx_;
  im.cwnd = cwnd_;
  im.ssthresh = ssthresh_;
  im.recover = recover_;
  im.dup_acks = dup_acks_;
  im.completed = completed_;
  im.retransmits = retransmits_;
  im.srtt_ps = srtt_.ps();
  im.rttvar_ps = rttvar_.ps();
  im.rto_ps = rto_.ps();
  im.rtt_valid = rtt_valid_;
  im.rto_pending = rto_pending_;
  im.rto_deadline_ps = rto_deadline_.ps();
  im.rto_backoff = rto_backoff_;
  im.cwr_end = cwr_end_;
  im.alpha = alpha_;
  im.dctcp_bytes_acked = dctcp_bytes_acked_;
  im.dctcp_bytes_marked = dctcp_bytes_marked_;
  im.dctcp_window_end = dctcp_window_end_;
  return im;
}

void TcpSender::Restore(const Image& im) {
  path_tag_ = im.path_tag;
  state_ = static_cast<State>(im.state);
  snd_una_ = im.snd_una;
  snd_nxt_ = im.snd_nxt;
  high_tx_ = im.high_tx;
  cwnd_ = im.cwnd;
  ssthresh_ = im.ssthresh;
  recover_ = im.recover;
  dup_acks_ = im.dup_acks;
  completed_ = im.completed;
  retransmits_ = im.retransmits;
  srtt_ = Time::Picoseconds(im.srtt_ps);
  rttvar_ = Time::Picoseconds(im.rttvar_ps);
  rto_ = Time::Picoseconds(im.rto_ps);
  rtt_valid_ = im.rtt_valid;
  rto_pending_ = im.rto_pending;
  rto_deadline_ = Time::Picoseconds(im.rto_deadline_ps);
  rto_backoff_ = im.rto_backoff;
  cwr_end_ = im.cwr_end;
  alpha_ = im.alpha;
  dctcp_bytes_acked_ = im.dctcp_bytes_acked;
  dctcp_bytes_marked_ = im.dctcp_bytes_marked;
  dctcp_window_end_ = im.dctcp_window_end;
}

void TcpSender::Complete() {
  completed_ = true;
  // Any pending RTO event sees completed_ and becomes a no-op.
  net_->flow_monitor().Complete(flow_id_, net_->sim().Now());
}

TcpReceiver::TcpReceiver(Network* net, Node* node, uint32_t flow_id, NodeId src)
    : net_(net), node_(node), flow_id_(flow_id), src_(src) {}

void TcpReceiver::OnData(const Packet& pkt) {
  const uint64_t seg_start = pkt.seq;
  const uint64_t seg_end = pkt.seq + pkt.payload;
  uint64_t advanced = 0;

  if (seg_end > rcv_nxt_) {
    if (seg_start <= rcv_nxt_) {
      const uint64_t before = rcv_nxt_;
      rcv_nxt_ = seg_end;
      // Pull any buffered out-of-order data that is now contiguous.
      auto it = out_of_order_.begin();
      while (it != out_of_order_.end() && it->first <= rcv_nxt_) {
        rcv_nxt_ = std::max(rcv_nxt_, it->second);
        it = out_of_order_.erase(it);
      }
      advanced = rcv_nxt_ - before;
    } else {
      // Hole: buffer the segment, merging overlaps.
      uint64_t s = seg_start;
      uint64_t e = seg_end;
      auto it = out_of_order_.lower_bound(s);
      if (it != out_of_order_.begin()) {
        auto prev = std::prev(it);
        if (prev->second >= s) {
          s = prev->first;
          e = std::max(e, prev->second);
          it = out_of_order_.erase(prev);
        }
      }
      while (it != out_of_order_.end() && it->first <= e) {
        e = std::max(e, it->second);
        it = out_of_order_.erase(it);
      }
      out_of_order_[s] = e;
    }
  }
  if (advanced > 0) {
    net_->flow_monitor().AddRxBytes(flow_id_, advanced, net_->sim().Now());
  }

  // Immediate ack, echoing the CE mark (per-packet, DCTCP-style) and the
  // sender timestamp for RTT sampling. Acks are not ECN-capable.
  Packet ack;
  ack.kind = PacketKind::kTcpAck;
  ack.flow_id = flow_id_;
  ack.src = node_->id();
  ack.dst = src_;
  ack.size_bytes = kAckBytes;
  ack.ack = rcv_nxt_;
  ack.ece = pkt.ecn_ce;
  ack.path_tag = pkt.path_tag;  // Acks follow the data packets' path choice.
  ack.ts_echo = pkt.ts;
  node_->SendFromLocal(std::move(ack));
}

}  // namespace unison
