#include "src/net/session.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <utility>

#include "src/kernel/kernel.h"
#include "src/net/link.h"
#include "src/net/model_events.h"
#include "src/net/node.h"
#include "src/net/queue.h"
#include "src/net/tcp.h"
#include "src/stats/flow_monitor.h"
#include "src/traffic/cdf.h"
#include "src/traffic/flow_source.h"

namespace unison {
namespace {

// USNP v5: little-endian, field-by-field, no alignment padding. The version
// gates the whole buffer — any layout change bumps it; there is no partial
// compatibility. A buffer has three parts:
//   header        what no window can change: magic, version, SimConfig,
//                 topology, the realized partition, the injection epoch, the
//                 live tunables, LP ownership, the kernel's session
//                 accumulators, and the flow-source specs with their CDFs;
//   window state  everything a window can mutate (PutWindowState) — byte for
//                 byte what the speculation checkpoint holds;
//   trailer       FNV-1a-64 over every preceding byte.
// v2 added the live-tuning plane, v3 the LP-ownership map, v4 the
// speculation plane; v5 split the buffer into header + window state +
// trailer, so the snapshot and the checkpoint share one state encoder.
constexpr uint8_t kMagic[4] = {'U', 'S', 'N', 'P'};
constexpr uint32_t kVersion = 5;
constexpr size_t kTrailerBytes = sizeof(uint64_t);

[[noreturn]] void SnapshotFatal(const std::string& message) {
  FatalConfigError("Session: " + message);
}

// FNV-1a-64. Each byte's step (xor, then multiply by an odd prime) is a
// bijection of the running hash, so any single-byte change alters the result.
uint64_t Fnv1a64(const uint8_t* p, size_t n) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

class Writer {
 public:
  // Adopts `reuse`'s allocation (cleared, capacity kept) so a per-window
  // capture into a recycled buffer never reallocates once the pool has
  // warmed up.
  explicit Writer(std::vector<uint8_t> reuse = {}) : buf_(std::move(reuse)) {
    buf_.clear();
  }

  void U8(uint8_t v) { buf_.push_back(v); }
  void Bool(bool v) { U8(v ? 1 : 0); }
  void U16(uint16_t v) { Raw(&v, sizeof v); }
  void U32(uint32_t v) { Raw(&v, sizeof v); }
  void U64(uint64_t v) { Raw(&v, sizeof v); }
  void I64(int64_t v) { Raw(&v, sizeof v); }
  void F64(double v) { Raw(&v, sizeof v); }
  void TimeVal(Time t) { I64(t.ps()); }
  void Str(const std::string& s) {
    U32(static_cast<uint32_t>(s.size()));
    Raw(s.data(), s.size());
  }
  void Trailer() { U64(Fnv1a64(buf_.data(), buf_.size())); }

  // Records why the state is not representable. Sticky: the first reason
  // wins, and later writes still append (the bytes are discarded), so the
  // encoders need no per-field check.
  void Fail(const char* why) {
    if (error_ == nullptr) error_ = why;
  }
  const char* error() const { return error_; }

  // Hands the buffer to `out` — emptied, capacity kept, when a Fail() was
  // recorded — and returns the failure reason or nullptr.
  const char* Finish(std::vector<uint8_t>* out) {
    if (error_ != nullptr) buf_.clear();
    *out = std::move(buf_);
    return error_;
  }

 private:
  void Raw(const void* p, size_t n) {
    const auto* bytes = static_cast<const uint8_t*>(p);
    buf_.insert(buf_.end(), bytes, bytes + n);
  }
  std::vector<uint8_t> buf_;
  const char* error_ = nullptr;
};

class Reader {
 public:
  Reader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  uint8_t U8() {
    Need(1);
    return data_[pos_++];
  }
  bool Bool() { return U8() != 0; }
  uint16_t U16() { return Get<uint16_t>(); }
  uint32_t U32() { return Get<uint32_t>(); }
  uint64_t U64() { return Get<uint64_t>(); }
  int64_t I64() { return Get<int64_t>(); }
  double F64() { return Get<double>(); }
  Time TimeVal() { return Time::Picoseconds(I64()); }
  std::string Str() {
    const uint32_t n = U32();
    Need(n);
    std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return s;
  }

  size_t remaining() const { return size_ - pos_; }

 private:
  template <typename T>
  T Get() {
    Need(sizeof(T));
    T v;
    std::memcpy(&v, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }
  void Need(size_t n) {
    if (size_ - pos_ < n) {
      SnapshotFatal("truncated snapshot buffer (corrupt file or version skew)");
    }
  }
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

// --- Config sections ---

void PutQueueConfig(Writer& w, const QueueConfig& q) {
  w.U8(static_cast<uint8_t>(q.kind));
  w.U32(q.capacity_bytes);
  w.F64(q.red_min_th);
  w.F64(q.red_max_th);
  w.F64(q.red_max_p);
  w.F64(q.red_weight);
}

QueueConfig GetQueueConfig(Reader& r) {
  QueueConfig q;
  q.kind = static_cast<QueueConfig::Kind>(r.U8());
  q.capacity_bytes = r.U32();
  q.red_min_th = r.F64();
  q.red_max_th = r.F64();
  q.red_max_p = r.F64();
  q.red_weight = r.F64();
  return q;
}

void PutTcpConfig(Writer& w, const TcpConfig& t) {
  w.U32(t.mss);
  w.U32(t.init_cwnd_segments);
  w.TimeVal(t.min_rto);
  w.TimeVal(t.initial_rto);
  w.Bool(t.ecn);
  w.Bool(t.dctcp);
  w.F64(t.dctcp_g);
}

TcpConfig GetTcpConfig(Reader& r) {
  TcpConfig t;
  t.mss = r.U32();
  t.init_cwnd_segments = r.U32();
  t.min_rto = r.TimeVal();
  t.initial_rto = r.TimeVal();
  t.ecn = r.Bool();
  t.dctcp = r.Bool();
  t.dctcp_g = r.F64();
  return t;
}

void PutSimConfig(Writer& w, const SimConfig& c) {
  w.U8(static_cast<uint8_t>(c.kernel.type));
  w.U32(c.kernel.threads);
  w.U8(static_cast<uint8_t>(c.kernel.metric));
  w.U32(c.kernel.sched_period);
  w.Bool(c.kernel.deterministic);
  w.U32(c.kernel.ranks);
  w.U8(static_cast<uint8_t>(c.kernel.affinity));
  w.U8(static_cast<uint8_t>(c.partition));
  w.U64(c.seed);
  w.Bool(c.profile);
  w.Bool(c.profile_per_round);
  w.Bool(c.profile_per_lp);
  w.Bool(c.trace);
  w.Bool(c.trace_claim_order);
  w.U8(static_cast<uint8_t>(c.tuning));
  w.F64(c.tuning_config.drift_shrink);
  w.F64(c.tuning_config.drift_grow);
  w.U32(c.tuning_config.min_period);
  w.U32(c.tuning_config.max_period);
  w.F64(c.tuning_config.ps_low);
  w.F64(c.tuning_config.ps_high);
  w.I64(c.tuning_config.min_window_ps);
  w.I64(c.tuning_config.max_window_ps);
  w.I64(c.tuning_config.initial_window_ps);
  w.F64(c.tuning_config.parks_per_round_high);
  w.U32(c.tuning_config.min_parties);
  w.U32(c.tuning_config.cpu_limit);
  w.U32(c.tuning_config.min_rounds);
  w.F64(c.tuning_config.cost_ewma_alpha);
  w.I64(c.tuning_config.spec_horizon_initial_ps);
  w.I64(c.tuning_config.spec_horizon_min_ps);
  w.I64(c.tuning_config.spec_horizon_max_ps);
  w.U8(static_cast<uint8_t>(c.speculation));
  w.U32(c.kernel.auto_checkpoint_every);
  w.Str(c.auto_checkpoint_path);
  PutTcpConfig(w, c.tcp);
  PutQueueConfig(w, c.queue);
}

SimConfig GetSimConfig(Reader& r) {
  SimConfig c;
  c.kernel.type = static_cast<KernelType>(r.U8());
  c.kernel.threads = r.U32();
  c.kernel.metric = static_cast<SchedulingMetric>(r.U8());
  c.kernel.sched_period = r.U32();
  c.kernel.deterministic = r.Bool();
  c.kernel.ranks = r.U32();
  c.kernel.affinity = static_cast<AffinityPolicy>(r.U8());
  c.partition = static_cast<PartitionMode>(r.U8());
  c.seed = r.U64();
  c.profile = r.Bool();
  c.profile_per_round = r.Bool();
  c.profile_per_lp = r.Bool();
  c.trace = r.Bool();
  c.trace_claim_order = r.Bool();
  c.tuning = static_cast<TuningMode>(r.U8());
  c.tuning_config.drift_shrink = r.F64();
  c.tuning_config.drift_grow = r.F64();
  c.tuning_config.min_period = r.U32();
  c.tuning_config.max_period = r.U32();
  c.tuning_config.ps_low = r.F64();
  c.tuning_config.ps_high = r.F64();
  c.tuning_config.min_window_ps = r.I64();
  c.tuning_config.max_window_ps = r.I64();
  c.tuning_config.initial_window_ps = r.I64();
  c.tuning_config.parks_per_round_high = r.F64();
  c.tuning_config.min_parties = r.U32();
  c.tuning_config.cpu_limit = r.U32();
  c.tuning_config.min_rounds = r.U32();
  c.tuning_config.cost_ewma_alpha = r.F64();
  c.tuning_config.spec_horizon_initial_ps = r.I64();
  c.tuning_config.spec_horizon_min_ps = r.I64();
  c.tuning_config.spec_horizon_max_ps = r.I64();
  c.speculation = static_cast<SpeculationMode>(r.U8());
  c.kernel.auto_checkpoint_every = r.U32();
  c.auto_checkpoint_path = r.Str();
  c.tcp = GetTcpConfig(r);
  c.queue = GetQueueConfig(r);
  return c;
}

// --- Model state pieces ---

void PutPacket(Writer& w, const Packet& p) {
  if (p.control_data != nullptr) {
    w.Fail(
        "a captured packet carries an opaque control payload (routing "
        "protocol traffic); control-plane state is not snapshot-serializable");
  }
  w.U8(static_cast<uint8_t>(p.kind));
  w.U32(p.flow_id);
  w.U32(p.src);
  w.U32(p.dst);
  w.U32(p.size_bytes);
  w.U8(p.ttl);
  w.Bool(p.ecn_capable);
  w.Bool(p.ecn_ce);
  w.U64(p.seq);
  w.U32(p.payload);
  w.Bool(p.fin);
  w.U64(p.ack);
  w.Bool(p.ece);
  w.U32(p.path_tag);
  w.TimeVal(p.ts);
  w.TimeVal(p.ts_echo);
  w.U16(p.control_kind);
}

Packet GetPacket(Reader& r) {
  Packet p;
  p.kind = static_cast<PacketKind>(r.U8());
  p.flow_id = r.U32();
  p.src = r.U32();
  p.dst = r.U32();
  p.size_bytes = r.U32();
  p.ttl = r.U8();
  p.ecn_capable = r.Bool();
  p.ecn_ce = r.Bool();
  p.seq = r.U64();
  p.payload = r.U32();
  p.fin = r.Bool();
  p.ack = r.U64();
  p.ece = r.Bool();
  p.path_tag = r.U32();
  p.ts = r.TimeVal();
  p.ts_echo = r.TimeVal();
  p.control_kind = r.U16();
  return p;
}

// The event payload dispatch: one arm per named functor in model_events.h,
// and the only code that decides which events the format can hold. TryAs
// identifies the stored type by ops-table identity, so an ad-hoc lambda
// (progress ticker, user callback) falls through every arm — a closure
// cannot be serialized.
void PutEvent(Writer& w, Event& ev) {
  w.TimeVal(ev.key.ts);
  w.TimeVal(ev.key.sender_ts);
  w.U32(ev.key.sender_node);
  w.U64(ev.key.seq);
  w.U32(ev.node);
  if (auto* e = ev.fn.TryAs<PacketDeliverEvent>()) {
    w.U8(static_cast<uint8_t>(ModelEventTag::kPacketDeliver));
    w.U32(e->peer);
    PutPacket(w, e->pkt);
  } else if (auto* e = ev.fn.TryAs<TransmitCompleteEvent>()) {
    w.U8(static_cast<uint8_t>(ModelEventTag::kTransmitComplete));
    w.U32(e->node);
    w.U32(e->port);
  } else if (auto* e = ev.fn.TryAs<TcpRtoEvent>()) {
    w.U8(static_cast<uint8_t>(ModelEventTag::kTcpRto));
    w.U32(e->node);
    w.U32(e->flow_id);
  } else if (auto* e = ev.fn.TryAs<FlowStartEvent>()) {
    w.U8(static_cast<uint8_t>(ModelEventTag::kFlowStart));
    w.U32(e->flow_id);
    w.U32(e->src);
    w.U32(e->dst);
    w.U64(e->bytes);
    PutTcpConfig(w, e->cfg);
  } else if (auto* e = ev.fn.TryAs<FlowArrivalEvent>()) {
    w.U8(static_cast<uint8_t>(ModelEventTag::kFlowArrival));
    w.U32(e->set_index);
    w.U32(e->source_index);
  } else if (auto* e = ev.fn.TryAs<LinkUpDownEvent>()) {
    w.U8(static_cast<uint8_t>(ModelEventTag::kLinkUpDown));
    w.U32(e->link);
    w.Bool(e->up);
  } else {
    w.Fail(
        "a pending event is not a named model event (see "
        "src/net/model_events.h); ad-hoc lambda events — progress tickers, "
        "user-scheduled callbacks — cannot be snapshot-serialized");
  }
}

Event GetEvent(Reader& r, Network* net) {
  Event ev;
  ev.key.ts = r.TimeVal();
  ev.key.sender_ts = r.TimeVal();
  ev.key.sender_node = r.U32();
  ev.key.seq = r.U64();
  ev.node = r.U32();
  const auto tag = static_cast<ModelEventTag>(r.U8());
  switch (tag) {
    case ModelEventTag::kPacketDeliver: {
      const NodeId peer = r.U32();
      ev.fn = PacketDeliverEvent{net, peer, GetPacket(r)};
      return ev;
    }
    case ModelEventTag::kTransmitComplete: {
      const NodeId node = r.U32();
      const uint32_t port = r.U32();
      ev.fn = TransmitCompleteEvent{net, node, port};
      return ev;
    }
    case ModelEventTag::kTcpRto: {
      const NodeId node = r.U32();
      const uint32_t flow = r.U32();
      ev.fn = TcpRtoEvent{net, node, flow};
      return ev;
    }
    case ModelEventTag::kFlowStart: {
      const uint32_t flow = r.U32();
      const NodeId src = r.U32();
      const NodeId dst = r.U32();
      const uint64_t bytes = r.U64();
      ev.fn = FlowStartEvent{net, flow, src, dst, bytes, GetTcpConfig(r)};
      return ev;
    }
    case ModelEventTag::kFlowArrival: {
      const uint32_t set = r.U32();
      const uint32_t source = r.U32();
      ev.fn = FlowArrivalEvent{net, set, source};
      return ev;
    }
    case ModelEventTag::kLinkUpDown: {
      const uint32_t link = r.U32();
      const bool up = r.Bool();
      ev.fn = LinkUpDownEvent{net, link, up};
      return ev;
    }
  }
  SnapshotFatal("unknown event tag in snapshot buffer");
}

void PutQueueStats(Writer& w, const QueueStats& s) {
  w.U64(s.enqueued);
  w.U64(s.dropped);
  w.U64(s.ecn_marked);
  w.U64(s.max_bytes);
  w.TimeVal(s.total_delay);
  w.U64(s.dequeued);
}

QueueStats GetQueueStats(Reader& r) {
  QueueStats s;
  s.enqueued = r.U64();
  s.dropped = r.U64();
  s.ecn_marked = r.U64();
  s.max_bytes = r.U64();
  s.total_delay = r.TimeVal();
  s.dequeued = r.U64();
  return s;
}

void PutFlowCounters(Writer& w, const FlowCounters& c) {
  w.U64(c.flows);
  w.U64(c.completed);
  w.U64(c.rx_bytes);
  w.U64(c.retransmits);
  w.I64(c.fct_ps_sum);
}

FlowCounters GetFlowCounters(Reader& r) {
  FlowCounters c;
  c.flows = r.U64();
  c.completed = r.U64();
  c.rx_bytes = r.U64();
  c.retransmits = r.U64();
  c.fct_ps_sum = r.I64();
  return c;
}

void PutFlowRecord(Writer& w, const FlowRecord& f) {
  w.U32(f.id);
  w.U32(f.src);
  w.U32(f.dst);
  w.U64(f.bytes);
  w.TimeVal(f.start);
  w.Bool(f.completed);
  w.TimeVal(f.fct);
  w.U64(f.retransmits);
  w.U64(f.rtt_samples);
  w.TimeVal(f.rtt_sum);
  w.U64(f.rx_bytes);
  w.TimeVal(f.last_rx);
}

FlowRecord GetFlowRecord(Reader& r) {
  FlowRecord f;
  f.id = r.U32();
  f.src = r.U32();
  f.dst = r.U32();
  f.bytes = r.U64();
  f.start = r.TimeVal();
  f.completed = r.Bool();
  f.fct = r.TimeVal();
  f.retransmits = r.U64();
  f.rtt_samples = r.U64();
  f.rtt_sum = r.TimeVal();
  f.rx_bytes = r.U64();
  f.last_rx = r.TimeVal();
  return f;
}

void PutSenderImage(Writer& w, const TcpSender::Image& im) {
  w.U32(im.path_tag);
  w.U8(im.state);
  w.U64(im.snd_una);
  w.U64(im.snd_nxt);
  w.U64(im.high_tx);
  w.U64(im.cwnd);
  w.U64(im.ssthresh);
  w.U64(im.recover);
  w.U32(im.dup_acks);
  w.Bool(im.completed);
  w.U64(im.retransmits);
  w.I64(im.srtt_ps);
  w.I64(im.rttvar_ps);
  w.I64(im.rto_ps);
  w.Bool(im.rtt_valid);
  w.Bool(im.rto_pending);
  w.I64(im.rto_deadline_ps);
  w.U32(im.rto_backoff);
  w.U64(im.cwr_end);
  w.F64(im.alpha);
  w.U64(im.dctcp_bytes_acked);
  w.U64(im.dctcp_bytes_marked);
  w.U64(im.dctcp_window_end);
}

TcpSender::Image GetSenderImage(Reader& r) {
  TcpSender::Image im;
  im.path_tag = r.U32();
  im.state = r.U8();
  im.snd_una = r.U64();
  im.snd_nxt = r.U64();
  im.high_tx = r.U64();
  im.cwnd = r.U64();
  im.ssthresh = r.U64();
  im.recover = r.U64();
  im.dup_acks = r.U32();
  im.completed = r.Bool();
  im.retransmits = r.U64();
  im.srtt_ps = r.I64();
  im.rttvar_ps = r.I64();
  im.rto_ps = r.I64();
  im.rtt_valid = r.Bool();
  im.rto_pending = r.Bool();
  im.rto_deadline_ps = r.I64();
  im.rto_backoff = r.U32();
  im.cwr_end = r.U64();
  im.alpha = r.F64();
  im.dctcp_bytes_acked = r.U64();
  im.dctcp_bytes_marked = r.U64();
  im.dctcp_window_end = r.U64();
  return im;
}

// --- The window-state section: one Put/Get per component ---

// Per-link administrative state. A LinkUpDown global executes even in a
// speculative attempt, and a snapshot may follow a FailLink; restore
// re-applies only actual changes, since each setter recomputes routing and
// the kernel lookahead.
void PutLinks(Writer& w, Network& net) {
  w.U32(static_cast<uint32_t>(net.links().size()));
  for (const Network::LinkInfo& link : net.links()) {
    w.Bool(link.up);
    w.TimeVal(link.delay);
  }
}

void GetLinks(Reader& r, Network& net) {
  if (r.U32() != net.links().size()) {
    SnapshotFatal("window-state link count diverged from the live topology");
  }
  for (uint32_t i = 0; i < net.links().size(); ++i) {
    const bool up = r.Bool();
    const Time delay = r.TimeVal();
    if (net.links()[i].up != up) {
      net.SetLinkUp(i, up);
    }
    if (net.links()[i].delay != delay) {
      net.SetLinkDelay(i, delay);
    }
  }
}

void PutLp(Writer& w, Lp* lp) {
  w.TimeVal(lp->now());
  w.U64(lp->seq());
  w.U64(lp->arrival_seq());
  w.U64(lp->fel().Size());
  lp->fel().ForEach([&w](Event& ev) { PutEvent(w, ev); });
}

void GetLp(Reader& r, Network* net, Lp* lp) {
  lp->set_now(r.TimeVal());
  const uint64_t seq = r.U64();
  const uint64_t arrival_seq = r.U64();
  lp->RestoreCounters(seq, arrival_seq);
  const uint64_t count = r.U64();
  std::vector<Event> events;
  events.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    events.push_back(GetEvent(r, net));
  }
  // Straight to the FEL, bypassing Lp::Insert: the captured keys (including
  // any non-deterministic arrival rewrite the parent already applied) must
  // survive verbatim. Deterministic keys are globally unique, so the rebuilt
  // heap dequeues identically whatever its internal layout.
  lp->fel().Clear();
  lp->fel().PushAll(events);
}

// LP clocks, tie-break counters and FEL contents; the public LP last.
void PutLps(Writer& w, Kernel& kernel) {
  w.U32(kernel.num_lps());
  for (uint32_t i = 0; i < kernel.num_lps(); ++i) {
    PutLp(w, kernel.lp(i));
  }
  PutLp(w, kernel.public_lp());
}

void GetLps(Reader& r, Network& net) {
  Kernel& kernel = net.kernel();
  if (r.U32() != kernel.num_lps()) {
    SnapshotFatal("window-state LP count diverged from the live kernel");
  }
  for (uint32_t i = 0; i < kernel.num_lps(); ++i) {
    GetLp(r, &net, kernel.lp(i));
  }
  GetLp(r, &net, kernel.public_lp());
}

// Per-node, per-port queue kinds derived from the recorded links: which
// devices carry RED marker state beyond the FIFO contents.
std::vector<std::vector<QueueConfig::Kind>> PortQueueKinds(const Network& net) {
  std::vector<std::vector<QueueConfig::Kind>> kinds(net.num_nodes());
  for (const Network::LinkInfo& link : net.links()) {
    auto place = [&kinds](NodeId n, uint32_t port, QueueConfig::Kind kind) {
      if (kinds[n].size() <= port) {
        kinds[n].resize(port + 1, QueueConfig::Kind::kDropTail);
      }
      kinds[n][port] = kind;
    };
    place(link.a, link.port_a, link.queue.kind);
    place(link.b, link.port_b, link.queue.kind);
  }
  return kinds;
}

// Node counters, then per port: device state, queue stats and contents, and
// RED marker state where the queue has one.
void PutDevices(Writer& w, Network& net) {
  const auto kinds = PortQueueKinds(net);
  for (NodeId n = 0; n < net.num_nodes(); ++n) {
    Node& node = net.node(n);
    const NodeStats& ns = node.stats();
    w.U64(ns.forwarded);
    w.U64(ns.delivered);
    w.U64(ns.no_route);
    w.U64(ns.ttl_expired);
    w.U32(node.num_ports());
    for (uint32_t p = 0; p < node.num_ports(); ++p) {
      Device* dev = node.device(p);
      w.Bool(dev->transmitting());
      const DeviceStats& ds = dev->stats();
      w.U64(ds.tx_packets);
      w.U64(ds.tx_bytes);
      w.U64(ds.dropped_down);
      PutQueueStats(w, dev->queue().stats());
      const std::vector<QueueEntry> entries = dev->queue().Entries();
      w.U32(static_cast<uint32_t>(entries.size()));
      for (const QueueEntry& e : entries) {
        PutPacket(w, e.pkt);
        w.TimeVal(e.enqueue_time);
      }
      const bool red = kinds[n][p] != QueueConfig::Kind::kDropTail;
      w.Bool(red);
      if (red) {
        const RedQueue::MarkerState m =
            static_cast<RedQueue&>(dev->queue()).marker_state();
        w.F64(m.avg);
        w.U64(m.count_since_mark);
        w.U64(m.rng_state);
      }
    }
  }
}

void GetDevices(Reader& r, Network& net) {
  const auto kinds = PortQueueKinds(net);
  for (NodeId n = 0; n < net.num_nodes(); ++n) {
    Node& node = net.node(n);
    NodeStats ns;
    ns.forwarded = r.U64();
    ns.delivered = r.U64();
    ns.no_route = r.U64();
    ns.ttl_expired = r.U64();
    node.set_stats(ns);
    if (r.U32() != node.num_ports()) {
      SnapshotFatal("window-state port count diverged from the node");
    }
    for (uint32_t p = 0; p < node.num_ports(); ++p) {
      Device* dev = node.device(p);
      dev->set_transmitting(r.Bool());
      DeviceStats ds;
      ds.tx_packets = r.U64();
      ds.tx_bytes = r.U64();
      ds.dropped_down = r.U64();
      dev->set_stats(ds);
      const QueueStats qs = GetQueueStats(r);
      const uint32_t entries = r.U32();
      std::vector<QueueEntry> q;
      q.reserve(entries);
      for (uint32_t e = 0; e < entries; ++e) {
        QueueEntry entry;
        entry.pkt = GetPacket(r);
        entry.enqueue_time = r.TimeVal();
        q.push_back(std::move(entry));
      }
      dev->queue().RestoreEntries(std::move(q));
      dev->queue().set_stats(qs);
      const bool red = kinds[n][p] != QueueConfig::Kind::kDropTail;
      if (r.Bool() != red) {
        SnapshotFatal(
            "RED marker state does not match the queue's kind; "
            "mutate_queue may not change a queue's kind");
      }
      if (red) {
        RedQueue::MarkerState m;
        m.avg = r.F64();
        m.count_since_mark = r.U64();
        m.rng_state = r.U64();
        static_cast<RedQueue&>(dev->queue()).set_marker_state(m);
      }
    }
  }
}

// TCP endpoints, sorted by flow id: the map iteration order is not
// reproducible, and the sort makes save→load→save byte-stable.
void PutTcp(Writer& w, Network& net) {
  for (NodeId n = 0; n < net.num_nodes(); ++n) {
    Node& node = net.node(n);
    std::vector<uint32_t> sender_ids;
    for (const auto& [id, sender] : node.senders()) {
      sender_ids.push_back(id);
    }
    std::sort(sender_ids.begin(), sender_ids.end());
    w.U32(static_cast<uint32_t>(sender_ids.size()));
    for (uint32_t id : sender_ids) {
      const TcpSender& s = *node.senders().at(id);
      w.U32(id);
      w.U32(s.dst());
      w.U64(s.size());
      PutTcpConfig(w, s.config());
      PutSenderImage(w, s.Save());
    }
    std::vector<uint32_t> receiver_ids;
    for (const auto& [id, receiver] : node.receivers()) {
      receiver_ids.push_back(id);
    }
    std::sort(receiver_ids.begin(), receiver_ids.end());
    w.U32(static_cast<uint32_t>(receiver_ids.size()));
    for (uint32_t id : receiver_ids) {
      const TcpReceiver& recv = *node.receivers().at(id);
      const TcpReceiver::Image im = recv.Save();
      w.U32(id);
      w.U32(recv.src());
      w.U64(im.rcv_nxt);
      w.U32(static_cast<uint32_t>(im.out_of_order.size()));
      for (const auto& [start, end] : im.out_of_order) {
        w.U64(start);
        w.U64(end);
      }
    }
  }
}

// Drops the live endpoint set wholesale and re-creates the captured one:
// speculative rounds may have created endpoints, completed flows or advanced
// connection state, and re-creation covers all three at once.
void GetTcp(Reader& r, Network& net) {
  for (NodeId n = 0; n < net.num_nodes(); ++n) {
    Node& node = net.node(n);
    node.ClearTcpEndpoints();
    const uint32_t senders = r.U32();
    for (uint32_t i = 0; i < senders; ++i) {
      const uint32_t flow_id = r.U32();
      const NodeId dst = r.U32();
      const uint64_t bytes = r.U64();
      const TcpConfig tcp = GetTcpConfig(r);
      TcpSender* sender = node.AddSender(
          flow_id,
          std::make_unique<TcpSender>(&net, &node, flow_id, dst, bytes, tcp));
      sender->Restore(GetSenderImage(r));
    }
    const uint32_t receivers = r.U32();
    for (uint32_t i = 0; i < receivers; ++i) {
      const uint32_t flow_id = r.U32();
      const NodeId src = r.U32();
      TcpReceiver::Image im;
      im.rcv_nxt = r.U64();
      const uint32_t ooo = r.U32();
      for (uint32_t o = 0; o < ooo; ++o) {
        const uint64_t start = r.U64();
        im.out_of_order[start] = r.U64();
      }
      TcpReceiver* receiver = node.AddReceiver(
          flow_id, std::make_unique<TcpReceiver>(&net, &node, flow_id, src));
      receiver->Restore(im);
    }
  }
}

void PutMonitor(Writer& w, Network& net) {
  const FlowMonitor::Image monitor = net.flow_monitor().SaveImage();
  w.U32(monitor.shards);
  for (uint32_t s = 0; s < monitor.shards; ++s) {
    w.U32(static_cast<uint32_t>(monitor.records[s].size()));
    for (const FlowRecord& rec : monitor.records[s]) {
      PutFlowRecord(w, rec);
    }
    PutFlowCounters(w, monitor.deltas[s]);
  }
  PutFlowCounters(w, monitor.merged);
  w.U32(monitor.windows_merged);
}

void GetMonitor(Reader& r, Network& net) {
  FlowMonitor::Image monitor;
  monitor.shards = r.U32();
  monitor.records.resize(monitor.shards);
  monitor.deltas.resize(monitor.shards);
  for (uint32_t s = 0; s < monitor.shards; ++s) {
    const uint32_t count = r.U32();
    monitor.records[s].reserve(count);
    for (uint32_t i = 0; i < count; ++i) {
      monitor.records[s].push_back(GetFlowRecord(r));
    }
    monitor.deltas[s] = GetFlowCounters(r);
  }
  monitor.merged = GetFlowCounters(r);
  monitor.windows_merged = r.U32();
  net.flow_monitor().RestoreImage(monitor);
}

// Streaming flow sources: per-source RNG cursor, pending arrival and
// counters. Registration order is serialization order, so the registry
// indices inside captured FlowArrivalEvents stay valid.
void PutFlowSources(Writer& w, Network& net) {
  w.U32(net.num_flow_source_sets());
  for (uint32_t i = 0; i < net.num_flow_source_sets(); ++i) {
    FlowSourceSet* set = net.flow_source_set(i);
    w.U32(set->num_sources());
    for (uint32_t src = 0; src < set->num_sources(); ++src) {
      const FlowSource::Image im = set->source(src).Save();
      for (uint64_t word : im.stream.rng) {
        w.U64(word);
      }
      w.F64(im.stream.t);
      w.U32(im.pending.src_index);
      w.U32(im.pending.dst_index);
      w.U64(im.pending.bytes);
      w.TimeVal(im.pending.start);
      w.Bool(im.pending.install);
      w.U64(im.installed_flows);
      w.U64(im.total_bytes);
    }
  }
}

void GetFlowSources(Reader& r, Network& net) {
  if (r.U32() != net.num_flow_source_sets()) {
    SnapshotFatal("window-state flow-source registry diverged from the session");
  }
  for (uint32_t i = 0; i < net.num_flow_source_sets(); ++i) {
    FlowSourceSet* set = net.flow_source_set(i);
    if (r.U32() != set->num_sources()) {
      SnapshotFatal("window-state flow-source set size diverged");
    }
    // No Bootstrap: each source's pending arrival already sits in a restored
    // FEL as a FlowArrivalEvent; only the stream/counter state is rebuilt.
    for (uint32_t src = 0; src < set->num_sources(); ++src) {
      FlowSource::Image im;
      for (uint64_t& word : im.stream.rng) {
        word = r.U64();
      }
      im.stream.t = r.F64();
      im.pending.src_index = r.U32();
      im.pending.dst_index = r.U32();
      im.pending.bytes = r.U64();
      im.pending.start = r.TimeVal();
      im.pending.install = r.Bool();
      im.installed_flows = r.U64();
      im.total_bytes = r.U64();
      set->source(src).Restore(im);
    }
  }
}

// Everything a Run() window can mutate. The FEL section comes first after
// the links, so a capture that meets an unrepresentable event stops there
// instead of encoding the rest of the model for nothing.
void PutWindowState(Writer& w, Network& net) {
  PutLinks(w, net);
  PutLps(w, net.kernel());
  if (w.error() != nullptr) return;
  PutDevices(w, net);
  PutTcp(w, net);
  PutMonitor(w, net);
  PutFlowSources(w, net);
}

// Rolls `net` to the captured window state, in place: valid on the network
// the state was captured from (speculation rollback) and on a fresh one
// rebuilt from the same header (fork, restore).
void GetWindowState(Reader& r, Network& net) {
  GetLinks(r, net);
  GetLps(r, net);
  GetDevices(r, net);
  GetTcp(r, net);
  GetMonitor(r, net);
  GetFlowSources(r, net);
}

void CheckQuiescent(Lp* lp, const char* what) {
  for (const auto& outbox : lp->outboxes()) {
    if (!outbox->events.empty()) {
      SnapshotFatal(std::string("Snapshot outside a window boundary: ") + what +
                    " has undelivered mailbox events; snapshot only between "
                    "Run() windows");
    }
  }
  if (!lp->overflow().EmptyUnlocked()) {
    SnapshotFatal(std::string("Snapshot outside a window boundary: ") + what +
                  " has undelivered overflow events; snapshot only between "
                  "Run() windows");
  }
}

// The capture precondition shared by the snapshot and the window checkpoint:
// a finalized session without distance-vector routing (both representability
// limits, recorded on `w`), transport residue drained into the owning FELs,
// and every mailbox empty — the format has no mailbox section, so a violation
// at a window boundary is a kernel bug.
bool BeginCapture(Network& net, Writer& w) {
  if (!net.finalized()) {
    w.Fail("Snapshot before Finalize(); open the session first");
    return false;
  }
  if (net.dv_routing() != nullptr) {
    w.Fail(
        "distance-vector routing state (per-node tables, in-flight control "
        "packets) is not snapshot-serializable; use global ECMP routing");
    return false;
  }
  Kernel& kernel = net.kernel();
  // Null-message channels may hold events for the next window; the drain is
  // identical to the next receive phase. No-op for the other kernels.
  kernel.DrainTransportForSnapshot();
  for (uint32_t i = 0; i < kernel.num_lps(); ++i) {
    CheckQuiescent(kernel.lp(i), "an LP");
  }
  CheckQuiescent(kernel.public_lp(), "the public LP");
  return true;
}

void PutHeader(Writer& w, Network& net) {
  for (uint8_t b : kMagic) {
    w.U8(b);
  }
  w.U32(kVersion);
  PutSimConfig(w, net.config());

  // Topology. A link is rebuilt with its current delay; its up/down state
  // lives in the window-state section.
  w.U32(net.num_nodes());
  w.U32(static_cast<uint32_t>(net.links().size()));
  for (const Network::LinkInfo& link : net.links()) {
    w.U32(link.a);
    w.U32(link.b);
    w.U64(link.bps);
    w.TimeVal(link.delay);
    w.Bool(link.stateless);
    PutQueueConfig(w, link.queue);
  }

  // The realized partition: the fork replays it as a manual partition so LP
  // numbering — and therefore the per-LP FEL sections — line up exactly,
  // independent of the original partition mode.
  const Partition& part = net.partition();
  w.U32(part.num_lps);
  for (NodeId n = 0; n < net.num_nodes(); ++n) {
    w.U32(part.lp_of_node[n]);
  }

  w.U64(net.injection_epoch());

  // Live-tuning state: the epoch is explicit so a fork resumes with the
  // parent's *learned* settings, not the knob values frozen at capture time.
  const Tunables& tun = net.tunable_store().Get();
  w.U64(net.tunable_store().epoch());
  w.U32(tun.sched_period);
  w.U32(tun.parties);
  w.U8(static_cast<uint8_t>(tun.affinity));
  w.I64(tun.max_window_ps);
  w.I64(tun.spec_horizon_ps);

  // The realized LP-ownership map, in the capturing kernel's executor
  // domain; restore folds the owners modulo the restored kernel's own
  // domain. The controller's pending move set is deliberately NOT
  // serialized: the realized map already reflects every applied move, and a
  // fork's kernel restarts its applied-generation counter at zero.
  Kernel& kernel = net.kernel();
  const PartitionMap& pmap = kernel.partition_map();
  w.U64(pmap.epoch());
  w.U32(pmap.num_executors());
  w.U32(pmap.num_lps());
  for (uint32_t lp = 0; lp < pmap.num_lps(); ++lp) {
    w.U32(pmap.owner(lp));
  }

  const Kernel::SessionState session = kernel.session_state();
  w.TimeVal(session.session_now);
  w.TimeVal(session.resume_floor);
  w.U64(session.session_events);
  w.U64(session.session_rounds);
  w.U32(session.session_windows);

  // Flow-source specs with the size CDF inlined; the registry only grows
  // between windows.
  w.U32(net.num_flow_source_sets());
  for (uint32_t i = 0; i < net.num_flow_source_sets(); ++i) {
    const TrafficSpec& spec = net.flow_source_set(i)->spec();
    w.U32(static_cast<uint32_t>(spec.hosts.size()));
    for (NodeId h : spec.hosts) {
      w.U32(h);
    }
    const auto& points = spec.sizes->points();
    w.U32(static_cast<uint32_t>(points.size()));
    for (const EmpiricalCdf::Point& pt : points) {
      w.F64(pt.bytes);
      w.F64(pt.cum_prob);
    }
    w.F64(spec.load);
    w.U64(spec.bisection_bps);
    w.TimeVal(spec.start);
    w.TimeVal(spec.duration);
    w.F64(spec.incast_ratio);
    w.U32(spec.victim_index);
    w.U64(spec.rng_stream);
    w.F64(spec.redirect_prob);
    w.U32(spec.redirect_begin);
  }
}

// The whole USNP buffer into `out`; returns why the session is not
// representable, or nullptr.
const char* WriteSnapshot(Network& net, std::vector<uint8_t>* out) {
  Writer w;
  if (BeginCapture(net, w)) {
    PutHeader(w, net);
    PutWindowState(w, net);
    w.Trailer();
  }
  return w.Finish(out);
}

}  // namespace

// --- SessionSnapshot ---

uint64_t SessionSnapshot::Digest() const {
  uint64_t digest = 0;
  if (bytes_.size() >= kTrailerBytes) {
    std::memcpy(&digest, bytes_.data() + bytes_.size() - kTrailerBytes,
                kTrailerBytes);
  }
  return digest;
}

void SessionSnapshot::SaveTo(const std::string& path) const {
  // A sibling temp file renamed over `path`: the rename is atomic within a
  // directory, so a process killed mid-save leaves the previous file whole.
  static std::atomic<uint64_t> next_temp{0};
  const std::string temp = path + ".tmp." + std::to_string(getpid()) + "." +
                           std::to_string(next_temp++);
  std::FILE* f = std::fopen(temp.c_str(), "wbx");
  if (f == nullptr) {
    SnapshotFatal("SaveTo cannot create " + temp);
  }
  const size_t written = bytes_.empty()
                             ? 0
                             : std::fwrite(bytes_.data(), 1, bytes_.size(), f);
  const bool closed = std::fclose(f) == 0;
  if (!closed || written != bytes_.size() ||
      std::rename(temp.c_str(), path.c_str()) != 0) {
    std::remove(temp.c_str());
    SnapshotFatal("SaveTo failed writing " + path);
  }
}

SessionSnapshot SessionSnapshot::LoadFrom(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    SnapshotFatal("LoadFrom cannot open " + path);
  }
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::vector<uint8_t> bytes(size < 0 ? 0 : static_cast<size_t>(size));
  const size_t got = bytes.empty() ? 0 : std::fread(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
  if (size < 0 || got != bytes.size()) {
    SnapshotFatal("LoadFrom failed reading " + path);
  }
  SessionSnapshot snap(std::move(bytes));
  const size_t size_bytes = snap.size_bytes();
  if (size_bytes < kTrailerBytes ||
      Fnv1a64(snap.bytes().data(), size_bytes - kTrailerBytes) != snap.Digest()) {
    SnapshotFatal("corrupt snapshot " + path +
                  ": digest trailer mismatch (truncated or damaged file, or "
                  "one written before USNP v5)");
  }
  return snap;
}

// --- Capture ---

SessionSnapshot Session::Snapshot() {
  std::vector<uint8_t> bytes;
  if (const char* why = WriteSnapshot(*net_, &bytes)) {
    SnapshotFatal(why);
  }
  return SessionSnapshot(std::move(bytes));
}

std::optional<SessionSnapshot> Session::TrySnapshot() {
  std::vector<uint8_t> bytes;
  if (WriteSnapshot(*net_, &bytes) != nullptr) {
    return std::nullopt;
  }
  return SessionSnapshot(std::move(bytes));
}

bool CaptureWindowCheckpoint(Network& net, std::vector<uint8_t>* out) {
  Writer w(std::move(*out));
  if (BeginCapture(net, w)) {
    PutWindowState(w, net);
  }
  return w.Finish(out) == nullptr;
}

// --- Restore ---

void RestoreWindowCheckpoint(Network& net, const std::vector<uint8_t>& buf) {
  Reader r(buf.data(), buf.size());
  GetWindowState(r, net);
  if (r.remaining() != 0) {
    SnapshotFatal("trailing bytes after the window state (corrupt buffer)");
  }
}

namespace {

std::unique_ptr<Network> RestoreImpl(const SessionSnapshot& snap,
                                     ExecutorPool* pool, const ForkOptions& opts) {
  if (snap.size_bytes() < kTrailerBytes) {
    SnapshotFatal("corrupt snapshot: shorter than its digest trailer");
  }
  Reader r(snap.bytes().data(), snap.size_bytes() - kTrailerBytes);
  for (uint8_t b : kMagic) {
    if (r.U8() != b) {
      SnapshotFatal("not a USNP snapshot buffer");
    }
  }
  const uint32_t version = r.U32();
  if (version != kVersion) {
    SnapshotFatal("unsupported snapshot version " + std::to_string(version) +
                  " (this build reads v" + std::to_string(kVersion) + ")");
  }

  SimConfig cfg = GetSimConfig(r);
  // Divergence knob: mutated queue disciplines apply to the rebuilt queues
  // from their first packet. The branch's own config records the mutation.
  if (opts.mutate_queue) {
    opts.mutate_queue(cfg.queue);
  }
  // Replay the realized partition as a manual one so LP numbering matches
  // the serialized per-LP sections (the sequential kernel forces kSingle
  // regardless, which is what it was captured with).
  if (cfg.kernel.type != KernelType::kSequential) {
    cfg.partition = PartitionMode::kManual;
  }

  auto net = std::make_unique<Network>(cfg);
  net->AddNodes(r.U32());
  const uint32_t num_links = r.U32();
  for (uint32_t i = 0; i < num_links; ++i) {
    const NodeId a = r.U32();
    const NodeId b = r.U32();
    const uint64_t bps = r.U64();
    const Time delay = r.TimeVal();
    const bool stateless = r.Bool();
    QueueConfig queue = GetQueueConfig(r);
    if (opts.mutate_queue) {
      opts.mutate_queue(queue);
    }
    net->AddLink(a, b, bps, delay, queue, stateless);
  }
  const uint32_t num_lps = r.U32();
  std::vector<LpId> lp_of_node(net->num_nodes());
  for (LpId& lp : lp_of_node) {
    lp = r.U32();
  }
  if (cfg.kernel.type != KernelType::kSequential) {
    net->SetManualPartition(num_lps, std::move(lp_of_node));
  }
  if (pool != nullptr) {
    net->set_external_pool(pool);
  }
  net->Finalize();
  Kernel& kernel = net->kernel();
  if (kernel.num_lps() != num_lps) {
    SnapshotFatal("restored kernel produced a different LP count than the "
                  "snapshot recorded; partition replay failed");
  }

  net->set_injection_epoch(r.U64());

  // After Finalize seeded the store from the config: reinstall the captured
  // live values and epoch so the fork's first window runs with the parent's
  // learned settings (its controller, if any, keeps tuning from there).
  const uint64_t tuning_epoch = r.U64();
  Tunables tunables;
  tunables.sched_period = r.U32();
  tunables.parties = r.U32();
  tunables.affinity = static_cast<AffinityPolicy>(r.U8());
  tunables.max_window_ps = r.I64();
  tunables.spec_horizon_ps = r.I64();
  net->tunable_store().Restore(tunables, tuning_epoch);

  // Reinstall the parent's realized LP placement (folded modulo this
  // kernel's own executor domain). Results-neutral either way in
  // deterministic mode; this preserves the parent's learned balance.
  const uint64_t ownership_epoch = r.U64();
  (void)r.U32();  // The capturing kernel's executor domain: informational.
  const uint32_t ownership_lps = r.U32();
  std::vector<uint32_t> owners(ownership_lps);
  for (uint32_t& o : owners) {
    o = r.U32();
  }
  if (ownership_lps == kernel.num_lps()) {
    kernel.RestoreOwnership(std::move(owners), ownership_epoch);
  }

  Kernel::SessionState session;
  session.session_now = r.TimeVal();
  session.resume_floor = r.TimeVal();
  session.session_events = r.U64();
  session.session_rounds = r.U64();
  session.session_windows = r.U32();
  kernel.RestoreSessionState(session);

  const uint32_t num_sets = r.U32();
  for (uint32_t i = 0; i < num_sets; ++i) {
    TrafficSpec spec;
    spec.hosts.resize(r.U32());
    for (NodeId& h : spec.hosts) {
      h = r.U32();
    }
    std::vector<EmpiricalCdf::Point> points(r.U32());
    for (EmpiricalCdf::Point& pt : points) {
      pt.bytes = r.F64();
      pt.cum_prob = r.F64();
    }
    auto cdf = std::make_shared<EmpiricalCdf>(std::move(points));
    spec.sizes = cdf.get();
    net->Keep(cdf);  // The set's spec points at it for the network's lifetime.
    spec.load = r.F64();
    spec.bisection_bps = r.U64();
    spec.start = r.TimeVal();
    spec.duration = r.TimeVal();
    spec.incast_ratio = r.F64();
    spec.victim_index = r.U32();
    spec.rng_stream = r.U64();
    spec.redirect_prob = r.F64();
    spec.redirect_begin = r.U32();
    net->RegisterFlowSourceSet(
        std::make_shared<FlowSourceSet>(net.get(), std::move(spec)));
  }

  GetWindowState(r, *net);
  if (r.remaining() != 0) {
    SnapshotFatal("trailing bytes after the snapshot payload (corrupt buffer)");
  }

  char lineage[48];
  std::snprintf(lineage, sizeof lineage, "snap-%016llx@w%u",
                static_cast<unsigned long long>(snap.Digest()),
                session.session_windows);
  kernel.set_lineage(lineage);
  return net;
}

}  // namespace

std::unique_ptr<Network> Session::Fork(const SessionSnapshot& snap,
                                       const ForkOptions& opts) {
  ExecutorPool* pool =
      opts.share_executors ? net_->kernel().executor_pool() : nullptr;
  return RestoreImpl(snap, pool, opts);
}

std::unique_ptr<Network> Session::Restore(const SessionSnapshot& snap) {
  return RestoreImpl(snap, nullptr, ForkOptions{});
}

}  // namespace unison
