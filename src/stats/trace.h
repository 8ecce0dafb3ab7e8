// Run-trace observability layer: structured per-round records of a kernel
// run, plus a RunSummary aggregate emitted by every kernel.
//
// The paper's entire evaluation rests on the P/S/M time composition
// (Figs. 5b, 9b, 13); this layer makes that measurement a first-class,
// machine-readable artifact instead of numbers scraped from bench stdout.
// The coordinating thread records one RoundTraceRecord per synchronization
// round (round index, LBTS, window, cumulative events, and — on re-sort
// rounds — the scheduler's claimed LP order); after the run, the per-round
// P/S matrices are folded in from the Profiler and the whole trace can be
// exported as JSON or CSV.
//
// Cost discipline mirrors the profiler: everything here is gated on
// `enabled`, kernels check a cached `tracing_` flag next to the existing
// `profiling_` gate, and a disabled trace costs nothing on the hot path.
// Recording itself is coordinator-only (worker 0 / rank 0 between barriers),
// so no locking is needed.
#ifndef UNISON_SRC_STATS_TRACE_H_
#define UNISON_SRC_STATS_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/time.h"
#include "src/stats/profiler.h"

namespace unison {

// End-of-run aggregate; every kernel fills one via Kernel::FinishRun, whether
// or not tracing/profiling is enabled (the P/S/M fields are zero unless a
// profiler was attached).
struct RunSummary {
  std::string kernel;             // "sequential", "barrier", "nullmsg", ...
  uint32_t executors = 0;         // Worker threads / ranks.
  uint32_t lps = 0;
  uint64_t rounds = 0;
  uint64_t events = 0;
  uint64_t wall_ns = 0;           // Wall time of Run() itself.
  uint64_t processing_ns = 0;     // Sums over executors (profiler-provided).
  uint64_t synchronization_ns = 0;
  uint64_t messaging_ns = 0;
  // Windowed-session placement: which Run() window of the session this
  // summary covers, its [start, stop) bounds in simulated time, and why the
  // window ended ("window" | "exhausted" | "stop", see RunReasonName).
  uint32_t window_index = 0;
  int64_t window_start_ps = 0;
  int64_t window_stop_ps = 0;
  std::string reason;
  // Snapshot lineage: "snap-<digest>@w<windows>" when this run belongs to a
  // forked branch (Session::Fork), empty for monolithic sessions.
  std::string forked_from;
  // Live-tuning provenance: the TunableStore epoch this window sampled (0 =
  // config defaults, never tuned) and the resolved values it ran with —
  // sched_period after the ceil(log2 n) fallback, parties in the kernel's
  // knob units.
  uint64_t tuning_epoch = 0;
  uint32_t sched_period = 0;
  uint32_t parties = 0;
  // Movable-ownership provenance: how many LPs changed executor at this
  // window's boundary, and the partition-map epoch the window ran under
  // (0 = the setup-time placement, never migrated).
  uint32_t migrations = 0;
  uint64_t ownership_epoch = 0;
  // Mean per-round processing imbalance of the window (busiest executor's
  // share over the ideal 1/W share, minus one); 0 when the profiler recorded
  // no usable per-round matrices. Filled by RunTrace::EndRun — the post-move
  // balance observability for the rebalance rule.
  double imbalance = 0.0;
  // Speculative window execution (DESIGN.md §3k): rounds this window ran
  // past the conservative Eq. 2 bound, how many of those committed (hits) or
  // were discarded by a rollback (misses — at most 1 per window, since a
  // miss aborts the attempt), and the wall time spent restoring the window
  // checkpoint. All zero when speculation is off or never extended a round.
  uint32_t spec_rounds = 0;
  uint32_t spec_hits = 0;
  uint32_t spec_misses = 0;
  uint64_t rollback_ns = 0;
  // The window's checkpoint capture: wall time (a declined capture counts)
  // and the bytes it re-encoded (0 when declined). Zero in windows that did
  // not try to speculate.
  uint64_t capture_ns = 0;
  uint64_t capture_bytes = 0;

  std::string ToJson() const;
};

// One synchronization round as seen by the coordinator.
struct RoundTraceRecord {
  uint32_t round = 0;
  int64_t lbts_ps = 0;
  int64_t window_ps = 0;
  uint64_t events_before = 0;  // Cumulative events at round start (best effort:
                               // kernels without live counters report 0).
  uint64_t barrier_ns = 0;     // Coordinator-observed arrive-to-release latency
                               // of the round's reduction barrier.
  uint64_t parked = 0;         // Futex parks across all workers at that barrier
                               // (delta of the barrier's cumulative counter).
  bool resorted = false;       // The scheduler re-sorted the claim order.
  std::vector<uint32_t> claim_order;  // LP ids, priority order; re-sort rounds
                                      // only (it is unchanged in between).
};

// One completed Run() window of a session, archived verbatim by EndRun so a
// multi-window session exports every window, not just the last one.
struct WindowTraceSegment {
  RunSummary summary;
  std::vector<RoundTraceRecord> records;
  std::vector<ExecutorPhaseStats> executors;
  std::vector<std::vector<uint64_t>> round_p;
  std::vector<std::vector<uint64_t>> round_s;
  std::vector<std::vector<uint64_t>> round_m;
};

class RunTrace {
 public:
  // Opt-in, like Profiler::enabled. Kernels skip every Record* call when off.
  bool enabled = false;
  // Claim orders cost O(#LP) per re-sort round; disable to bound trace memory
  // on very large runs while keeping the scalar per-round fields.
  bool record_claim_order = true;

  // --- Recording API (coordinating thread only) ---

  // Discards all archived window segments. Called by Kernel::Setup so a fresh
  // session starts with an empty trace; Run()-level BeginRun only clears the
  // *current* window's state and leaves prior segments intact.
  void BeginSession();
  void BeginRun(std::string kernel, uint32_t executors, uint32_t lps);
  void BeginRound(uint32_t round, Time lbts, Time window, uint64_t events_before);
  // Attaches the scheduler order to the most recent round record.
  void RecordClaimOrder(const std::vector<uint32_t>& order);
  // Attaches the reduction-barrier latency and park count to the most recent
  // round record (the coordinator measures them at the round's end barrier).
  void RecordBarrier(uint64_t barrier_ns, uint64_t parked);
  // Folds in the final summary and, when the profiler recorded per-round
  // matrices, copies them so the exported trace is self-contained.
  void EndRun(const RunSummary& summary, const Profiler* profiler);

  // --- Post-run inspection ---

  // Latest window's summary/rounds (the pre-session accessors; a single-window
  // run sees exactly the old behaviour).
  const RunSummary& summary() const { return summary_; }
  const std::vector<RoundTraceRecord>& records() const { return records_; }
  // Completed windows of the session, in Run() order.
  const std::vector<WindowTraceSegment>& segments() const { return segments_; }
  // Session-wide aggregate: rounds/events/wall/P/S/M summed over all archived
  // segments, bounds spanning first window start to last window stop.
  RunSummary Cumulative() const;
  // [round][executor]; empty unless the profiler ran with per_round.
  const std::vector<std::vector<uint64_t>>& round_processing_ns() const {
    return round_p_;
  }
  const std::vector<std::vector<uint64_t>>& round_sync_ns() const { return round_s_; }
  const std::vector<std::vector<uint64_t>>& round_messaging_ns() const {
    return round_m_;
  }

  // --- Exporters ---

  // Full structured trace: latest-window summary, per-executor P/S/M, one
  // object per round — plus session keys: "windows" (count), "cumulative"
  // (session aggregate), and "segments" (one full trace object per window).
  std::string ToJson() const;
  // Flat per-round table across every window of the session:
  // window,round,lbts_ps,window_ps,events_before,resorted,
  // p_total_ns,s_total_ns,m_total_ns,barrier_ns,parked,tuning_epoch,
  // migrations,spec_rounds,spec_hits,spec_misses,rollback_ns,capture_ns,
  // capture_bytes (the last seven are window-level, repeated per row).
  std::string ToCsv() const;
  bool WriteJsonFile(const std::string& path) const;
  bool WriteCsvFile(const std::string& path) const;

 private:
  RunSummary summary_;
  std::vector<RoundTraceRecord> records_;
  std::vector<ExecutorPhaseStats> executors_;
  std::vector<std::vector<uint64_t>> round_p_;
  std::vector<std::vector<uint64_t>> round_s_;
  std::vector<std::vector<uint64_t>> round_m_;
  std::vector<WindowTraceSegment> segments_;
};

}  // namespace unison

#endif  // UNISON_SRC_STATS_TRACE_H_
