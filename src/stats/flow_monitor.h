// Global flow statistics, the FlowMonitor analogue (§5.1), sharded per
// executor.
//
// Because Unison shares memory across LPs, a single monitor sees every flow
// end to end — the capability the paper contrasts with MPI-based PDES, where
// per-LP tracing must be stitched together by hand. The monitor is a set of
// cache-line-padded shards, one per pool executor plus shard 0 for every
// non-executor context (setup, the sequential kernel, between-window
// injection). Registration is no longer confined to setup: a streaming
// FlowSource registers flows from inside events, and the registering
// executor's shard absorbs the record without touching any other shard.
//
// Thread safety still comes from ownership discipline rather than locks:
//  - A shard's record storage and its window-delta counters are written only
//    by the owning executor. Shards are alignas(64) so neighbours never
//    share a cache line.
//  - Records live in never-moving segmented slabs (doubling segments off a
//    fixed pointer table), so the receiver-side hooks — which run on the
//    destination node's executor and may land in a *different* shard's
//    record — dereference storage that no concurrent registration can
//    relocate. Per-field ownership within a record is unchanged:
//    sender-side fields are written only by the source node's LP,
//    receiver-side fields only by the destination node's LP, and a flow id
//    only reaches another executor through a simulated packet, which the
//    kernel's synchronization orders after the registration.
//  - Window-delta counters are merged into the session totals by
//    MergeWindow(), which the kernels invoke at the end of every Run()
//    window — after the combining tree's final reduction has quiesced all
//    executors, so the merge needs no atomics.
#ifndef UNISON_SRC_STATS_FLOW_MONITOR_H_
#define UNISON_SRC_STATS_FLOW_MONITOR_H_

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/core/event.h"
#include "src/core/time.h"

namespace unison {

struct FlowRecord {
  uint32_t id = 0;
  NodeId src = 0;
  NodeId dst = 0;
  uint64_t bytes = 0;
  Time start;

  // Sender-side results.
  bool completed = false;
  Time fct;  // Completion - start; valid when completed.
  uint64_t retransmits = 0;
  uint64_t rtt_samples = 0;
  Time rtt_sum;

  // Receiver-side results.
  uint64_t rx_bytes = 0;
  Time last_rx;
};

struct FlowSummary {
  uint64_t flows = 0;
  uint64_t completed = 0;
  double mean_fct_ms = 0;
  double p99_fct_ms = 0;
  double mean_rtt_ms = 0;
  double mean_throughput_mbps = 0;  // Per completed flow: bytes*8 / fct.
  uint64_t total_rx_bytes = 0;
  uint64_t total_retransmits = 0;
};

// Integer aggregate of flow activity; per-shard window deltas fold into the
// monitor-wide total at MergeWindow(). Integer-only on purpose: merging is
// exactly associative, so the merged view is identical however the windows
// (or shards) were grouped.
struct FlowCounters {
  uint64_t flows = 0;
  uint64_t completed = 0;
  uint64_t rx_bytes = 0;
  uint64_t retransmits = 0;
  int64_t fct_ps_sum = 0;  // Sum of completed flows' FCTs.

  void Merge(const FlowCounters& o) {
    flows += o.flows;
    completed += o.completed;
    rx_bytes += o.rx_bytes;
    retransmits += o.retransmits;
    fct_ps_sum += o.fct_ps_sum;
  }
  friend bool operator==(const FlowCounters& a, const FlowCounters& b) {
    return a.flows == b.flows && a.completed == b.completed &&
           a.rx_bytes == b.rx_bytes && a.retransmits == b.retransmits &&
           a.fct_ps_sum == b.fct_ps_sum;
  }
};

class FlowMonitor {
 public:
  FlowMonitor();
  ~FlowMonitor();

  FlowMonitor(const FlowMonitor&) = delete;
  FlowMonitor& operator=(const FlowMonitor&) = delete;

  // Sizes the shard set: shard 0 for non-executor contexts plus one shard
  // per pool executor. Network::Finalize calls this with the kernel's
  // executor count before any flow can be registered; must not be called
  // after the first Register (flow ids encode the shard/slot split, which
  // this fixes). Calling again with the same count is a no-op.
  void ConfigureShards(uint32_t shards);
  uint32_t num_shards() const { return static_cast<uint32_t>(shards_.size()); }

  // Registers a flow into the calling executor's shard (shard 0 outside a
  // pool body). Safe concurrently across executors; the returned id is
  // stable for the monitor's lifetime.
  uint32_t Register(NodeId src, NodeId dst, uint64_t bytes, Time start);

  FlowRecord& flow(uint32_t id) { return Locate(id); }
  const FlowRecord& flow(uint32_t id) const {
    return const_cast<FlowMonitor*>(this)->Locate(id);
  }

  // Total records across all shards. Call from a quiescent context (between
  // windows or after Run); not synchronized against in-flight registration.
  size_t size() const;

  // Visits every record, shard-major (shard 0's records first, in
  // registration order). Same quiescence requirement as size().
  template <typename Fn>
  void ForEachFlow(Fn&& fn) const {
    for (const auto& shard : shards_) {
      for (uint32_t slot = 0; slot < shard->count; ++slot) {
        fn(const_cast<FlowMonitor*>(this)->LocateSlot(*shard, slot));
      }
    }
  }

  // Flattened copy of every record (ForEachFlow order) for consumers that
  // want a vector; the records themselves never live contiguously.
  std::vector<FlowRecord> CollectFlows() const;

  // Sender-side hooks.
  void Complete(uint32_t id, Time now);
  void AddRtt(uint32_t id, Time sample);
  void AddRetransmit(uint32_t id);

  // Receiver-side hooks.
  void AddRxBytes(uint32_t id, uint64_t n, Time now);

  FlowSummary Summarize() const;

  // Order-independent fingerprint of all flow outcomes; equal fingerprints
  // across runs demonstrate deterministic simulation (Fig. 11). Hashes each
  // flow's stable identity (src, dst, bytes, start) rather than its id —
  // ids encode the registering shard, which legitimately differs between
  // thread counts and between streaming and materialized installation — and
  // sums the per-flow hashes, so the value is independent of shard layout
  // and registration order.
  uint64_t Fingerprint() const;

  // Folds every shard's window-delta counters into the merged session view.
  // The kernels call this at the end of each Run() window from the
  // coordinator, once the final barrier reduction has quiesced the pool.
  void MergeWindow();

  // Session totals as of the last MergeWindow().
  const FlowCounters& merged() const { return merged_; }
  uint32_t windows_merged() const { return windows_merged_; }

  // Window-delta counters currently pending in shard `s` (test hook).
  const FlowCounters& shard_delta(uint32_t s) const { return shards_[s]->delta; }
  // Records registered in shard `s` so far.
  uint32_t shard_flows(uint32_t s) const { return shards_[s]->count; }

  // --- Slot access for session snapshots ---
  // Quiescent contexts only, like size(). A flow id encodes its record's
  // shard and slot.
  uint32_t shard_of(uint32_t id) const { return id >> slot_bits_; }
  uint32_t slot_of(uint32_t id) const { return id & slot_mask_; }
  FlowRecord& record(uint32_t s, uint32_t slot) {
    return LocateSlot(*shards_[s], slot);
  }
  // Sets shard `s`'s record count on a fresh monitor (fork, restore) and
  // allocates slabs for the records the restore is about to write through
  // record().
  void ResizeShard(uint32_t s, uint32_t count);
  void set_shard_delta(uint32_t s, const FlowCounters& delta) {
    shards_[s]->delta = delta;
  }
  void set_merged(const FlowCounters& merged, uint32_t windows_merged) {
    merged_ = merged;
    windows_merged_ = windows_merged;
  }

 private:
  // Records are stored in doubling segments: segment k holds kSegBase << k
  // records, so a fixed table of kMaxSegments pointers covers the whole slot
  // space and no registration ever relocates an existing record.
  static constexpr uint32_t kSegBase = 1024;
  static constexpr uint32_t kMaxSegments = 23;  // kSegBase << 22 > 2^32 slots.

  struct alignas(64) Shard {
    std::array<std::unique_ptr<FlowRecord[]>, kMaxSegments> segments;
    uint32_t count = 0;        // Slots in use; owner-written only.
    FlowCounters delta;        // Window-local; folded by MergeWindow.
  };

  static uint32_t SegmentOf(uint32_t slot);
  static uint32_t SegmentFirstSlot(uint32_t seg) {
    return ((1u << seg) - 1) * kSegBase;
  }
  static uint32_t SegmentSize(uint32_t seg) { return kSegBase << seg; }

  // Shard of the calling context: executor id + 1, or 0 outside a pool body.
  uint32_t CurrentShardIndex() const;
  Shard& CurrentShard();

  FlowRecord& Locate(uint32_t id) {
    return LocateSlot(*shards_[id >> slot_bits_], id & slot_mask_);
  }
  FlowRecord& LocateSlot(Shard& shard, uint32_t slot) const {
    const uint32_t seg = SegmentOf(slot);
    return shard.segments[seg][slot - SegmentFirstSlot(seg)];
  }

  std::vector<std::unique_ptr<Shard>> shards_;
  uint32_t slot_bits_ = 32;  // Flow id = shard << slot_bits_ | slot.
  uint32_t slot_mask_ = 0xffffffffu;
  FlowCounters merged_;
  uint32_t windows_merged_ = 0;
};

}  // namespace unison

#endif  // UNISON_SRC_STATS_FLOW_MONITOR_H_
