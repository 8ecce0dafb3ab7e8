// The run recorder: structured per-round records of a kernel run, the
// window's P/S/M rows, and a RunSummary aggregate emitted by every kernel.
//
// The paper's entire evaluation rests on the P/S/M time composition
// (Figs. 5b, 9b, 13); this layer makes that measurement a first-class,
// machine-readable artifact instead of numbers scraped from bench stdout.
// RunTrace is the only recorder a kernel writes into, behind one gate
// (`enabled`). While a window runs, the coordinating thread records one
// RoundTraceRecord per synchronization round (round index, LBTS, window,
// cumulative events, and — on re-sort rounds — the scheduler's claimed LP
// order), and each executor writes its own P/S/M rows and totals into the
// window's Profiler. EndRun then moves the whole window into one
// WindowTraceSegment, which is the only place a finished window lives; the
// trace exports the segments as JSON or CSV.
//
// With the gate off a kernel reads neither the gate's data nor any clock it
// would not read anyway, so an untraced run costs nothing here. Round
// recording is coordinator-only (worker 0 / rank 0 between barriers), and the
// rows are executor-private, so no locking is needed.
#ifndef UNISON_SRC_STATS_TRACE_H_
#define UNISON_SRC_STATS_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/time.h"
#include "src/stats/profiler.h"

namespace unison {

// End-of-run aggregate; every kernel fills one via Kernel::FinishRun, whether
// or not recording is on (the P/S/M fields and `imbalance` are zero unless
// it is).
struct RunSummary {
  std::string kernel;             // "sequential", "barrier", "nullmsg", ...
  uint32_t executors = 0;         // Worker threads / ranks.
  uint32_t lps = 0;
  uint64_t rounds = 0;
  uint64_t events = 0;
  uint64_t wall_ns = 0;           // Wall time of Run() itself.
  uint64_t processing_ns = 0;     // Sums over executors (recorded windows).
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
  // Mean per-round processing imbalance of the window (MeanRoundImbalance);
  // 0 when no usable per-round rows were recorded. Filled by RunTrace::EndRun.
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
  // Round kernel: LPs a worker claimed from another lane's own list, i.e.
  // that left the core that ran them the round before (DESIGN.md §3d).
  // Counted only while recording; 0 for the other kernels.
  uint64_t steals = 0;
  // Round kernel: cross-LP events its workers received through mailboxes and
  // overflow boxes (what Lp::DrainInboxes returns), i.e. the window's M
  // traffic. Counted only while recording; 0 for the other kernels.
  uint64_t messages = 0;

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

// One Run() window of a session: everything recorded about it, held once.
// A finished window's segment is archived by EndRun so a multi-window session
// exports every window, not just the last one.
struct WindowTraceSegment {
  RunSummary summary;
  std::vector<RoundTraceRecord> records;
  std::vector<ExecutorPhaseStats> executors;
  // [round][executor] P/S/M rows; they sum to `executors` column by column.
  std::vector<std::vector<uint64_t>> round_p;
  std::vector<std::vector<uint64_t>> round_s;
  std::vector<std::vector<uint64_t>> round_m;
  // Per-(round, LP) costs sorted by (round, LP); empty unless per_lp is set.
  std::vector<LpRoundCost> lp_rounds;
};

// Processing imbalance of one round's [executor] row: the busiest executor's
// share over the ideal 1/W share, minus one (0 = perfectly balanced). False
// for rows without a usable value (fewer than two executors, or no time).
bool RoundImbalance(const std::vector<uint64_t>& row, double* out);

// Mean RoundImbalance over the usable rows of a [round][executor] matrix; 0
// when none is usable. RunSummary::imbalance is this value.
double MeanRoundImbalance(const std::vector<std::vector<uint64_t>>& round_p);

class RunTrace {
 public:
  // The recording gate. While it is off kernels record nothing: no round, no
  // row, and no clock read made only for recording.
  bool enabled = false;
  // Claim orders cost O(#LP) per re-sort round; disable to bound trace memory
  // on very large runs while keeping the scalar per-round fields.
  bool record_claim_order = true;
  // Whether segments() keeps every window of the session (an export needs
  // them all). When false BeginRun drops the previous segment, so a long
  // recorded session holds one window's records, not all of them.
  bool keep_history = true;

  // --- Recording API (coordinating thread only) ---

  // Discards all archived window segments. Called by Kernel::Setup so a fresh
  // session starts with an empty trace; Run()-level BeginRun only clears the
  // *current* window's state and, with keep_history, leaves prior segments
  // intact.
  void BeginSession();
  // Opens the live window (again, when a speculative attempt re-runs it),
  // first dropping the previous window's segment unless keep_history is set.
  void BeginRun(std::string kernel, uint32_t executors, uint32_t lps);
  void BeginRound(uint32_t round, Time lbts, Time window, uint64_t events_before);
  // Attaches the scheduler order to the most recent round record.
  void RecordClaimOrder(const std::vector<uint32_t>& order);
  // Attaches the end-of-round crossing's latency and park count to the
  // record of `round` (worker 0 measures them after that crossing releases,
  // when the next round's record may already be open).
  void RecordBarrier(uint32_t round, uint64_t barrier_ns, uint64_t parked);
  // The live window's executor-private P/S/M rows and totals; each executor
  // writes only its own slots (PhaseAccountant). Set rows().per_lp to keep
  // per-(round, LP) costs as well.
  Profiler& rows() { return rows_; }
  // Closes the live window: completes `summary` with the P/S/M totals and
  // the imbalance of the recorded rows, then moves the records, rows, totals
  // and that summary into a new segment.
  void EndRun(RunSummary* summary);

  // --- Post-run inspection ---

  // The last window's summary and rounds, or the live window's while a run
  // is in progress.
  const RunSummary& summary() const { return current().summary; }
  const std::vector<RoundTraceRecord>& records() const { return current().records; }
  // Completed windows of the session, in Run() order (only the last one
  // unless keep_history is set).
  const std::vector<WindowTraceSegment>& segments() const { return segments_; }
  // Session-wide aggregate: rounds/events/wall/P/S/M summed over all archived
  // segments, bounds spanning first window start to last window stop.
  RunSummary Cumulative() const;
  // The last window's rows: per-executor totals, [round][executor] P/S/M, and
  // per-(round, LP) costs. Empty while a window is still being recorded.
  const std::vector<ExecutorPhaseStats>& executors() const {
    return current().executors;
  }
  const std::vector<std::vector<uint64_t>>& round_processing_ns() const {
    return current().round_p;
  }
  const std::vector<std::vector<uint64_t>>& round_sync_ns() const {
    return current().round_s;
  }
  const std::vector<std::vector<uint64_t>>& round_messaging_ns() const {
    return current().round_m;
  }
  const std::vector<LpRoundCost>& lp_rounds() const { return current().lp_rounds; }

  // --- Exporters ---

  // Full structured trace: the last window's summary, per-executor P/S/M,
  // one object per round — plus session keys: "windows" (count),
  // "cumulative" (session aggregate), and "segments" (one full trace object
  // per window).
  std::string ToJson() const;
  // Flat per-round table across every window of the session:
  // window,round,lbts_ps,window_ps,events_before,resorted,
  // p_total_ns,s_total_ns,m_total_ns,barrier_ns,parked,tuning_epoch,
  // spec_rounds,spec_hits,spec_misses,rollback_ns,capture_ns,capture_bytes,
  // steals,messages (the last eight are window-level, repeated per row).
  std::string ToCsv() const;
  bool WriteJsonFile(const std::string& path) const;
  bool WriteCsvFile(const std::string& path) const;

 private:
  // The live window while a run is in progress, else the last segment (the
  // empty live window before the first one).
  const WindowTraceSegment& current() const {
    return running_ || segments_.empty() ? live_ : segments_.back();
  }

  bool running_ = false;
  // The window being recorded: identity and round records here, P/S/M rows
  // in rows_ until EndRun moves both into segments_.
  WindowTraceSegment live_;
  Profiler rows_;
  std::vector<WindowTraceSegment> segments_;
};

}  // namespace unison

#endif  // UNISON_SRC_STATS_TRACE_H_
