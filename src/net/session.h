// Warm-prefix checkpointing: snapshot a windowed session at a window
// boundary and fork it into independent what-if branches.
//
// A scenario sweep that varies only post-t_k conditions (a failed link,
// different RED/ECN thresholds, extra injected load) used to pay the full
// [0, t_k) warm-up once per branch. Session::Snapshot captures the complete
// session state at a window boundary — every LP's future event list and
// tie-break counters, model state (TCP connections, queue occupancies and
// RED marker state, streaming flow-source RNGs), statistics, and the
// kernel's session accumulators — into a versioned in-memory buffer.
// Session::Fork materializes a fresh Network from it; each branch then
// diverges via the normal session API (InjectTraffic, Network::FailLink,
// ForkOptions::mutate_queue) and runs to its own horizon.
//
// Fork transparency is the contract: Snapshot at window k + Fork + Run to T
// produces bit-identical results (FlowMonitor fingerprint, event counts) to
// one monolithic session run to T — for every kernel and thread count. It
// holds because the snapshot is taken at a window boundary, the only point
// where the session is quiescent: no executor is mid-round, cross-LP
// mailboxes are empty (Snapshot verifies this and fatals otherwise), and the
// deterministic EventKey total order makes the restored FELs dequeue
// identically regardless of heap layout.
//
// One state encoder serves both formats declared here. A USNP buffer (v8) is
// an immutable header (SimConfig, topology, realized partition, tunables,
// session accumulators, flow-source specs), then the window-state
// section — byte for byte what the window checkpoint below encodes — then
// an FNV-1a-64 digest trailer that LoadFrom verifies. Fork and Restore
// rebuild the network from the header and read the section through the same
// per-component functions the checkpoint rollback uses.
//
// Forked branches reuse the parent's warm executor pool by default
// (ForkOptions::share_executors): the child kernel borrows the pool at
// Setup, so forking and running N branches spawns zero new OS threads. Two
// constraints follow: the parent Network must outlive its forks, and only
// one of {parent, forks} may be inside Run() at a time (ExecutorPool::Run is
// not reentrant). Snapshots also serialize to disk (SaveTo/LoadFrom) as a
// resume format for long simulations; Session::Restore rebuilds a network
// cold, with its own pool.
//
// Not serializable (Snapshot fatals with a description, TrySnapshot and the
// checkpoint decline): distance-vector routing state, packets carrying
// control payloads, and ad-hoc lambda events (every model event type is a
// named functor in src/net/model_events.h; user-scheduled lambdas — progress
// tickers, test callbacks — are not).
#ifndef UNISON_SRC_NET_SESSION_H_
#define UNISON_SRC_NET_SESSION_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/net/network.h"

namespace unison {

// An immutable captured session: a versioned little-endian binary buffer
// (magic "USNP") ending in its digest. Value type — copy, store, ship to disk.
class SessionSnapshot {
 public:
  SessionSnapshot() = default;
  explicit SessionSnapshot(std::vector<uint8_t> bytes) : bytes_(std::move(bytes)) {}

  const std::vector<uint8_t>& bytes() const { return bytes_; }
  size_t size_bytes() const { return bytes_.size(); }

  // The digest trailer: FNV-1a-64 over every preceding byte, computed once
  // by Snapshot(). Identifies the snapshot in lineage tags
  // (RunSummary::forked_from) and in equality checks between snapshots.
  uint64_t Digest() const;

  // On-disk resume format: the buffer, verbatim. SaveTo writes a temp file
  // beside `path` and renames it over `path`, so a process killed mid-save
  // leaves the previous file intact. LoadFrom fatals with "corrupt snapshot"
  // when the digest trailer does not match the bytes before it. Both fatal
  // on I/O failure.
  void SaveTo(const std::string& path) const;
  static SessionSnapshot LoadFrom(const std::string& path);

 private:
  std::vector<uint8_t> bytes_;
};

// Per-fork divergence applied while the branch network is being rebuilt —
// before any queue object exists, so mutated disciplines (e.g. a lower DCTCP
// K, different RED thresholds) govern the branch from its first restored
// packet.
struct ForkOptions {
  // Applied to the restored SimConfig's default QueueConfig and to every
  // recorded per-link QueueConfig.
  std::function<void(QueueConfig&)> mutate_queue;
  // Borrow the parent kernel's executor pool (zero thread respawns). The
  // parent must outlive the fork and the two must not Run concurrently.
  bool share_executors = true;
};

// Snapshot/fork facade over a finalized, window-quiescent Network.
class Session {
 public:
  // `net` must be finalized and outside Run() (between windows). Not owned.
  explicit Session(Network* net) : net_(net) {}

  // Captures the full session state. Execution-neutral for the parent: the
  // only mutation is draining kernel-private transport residue into the
  // owning FELs (null-message channels), which the next window's receive
  // phase would do identically.
  SessionSnapshot Snapshot();
  // Snapshot() that declines instead: nullopt when the session holds state
  // the format cannot represent (e.g. a progress-report ticker pending).
  std::optional<SessionSnapshot> TrySnapshot();

  // Rebuilds an independent Network from `snap`, sharing the parent's warm
  // executor pool per `opts`. The fork's next Run() continues exactly where
  // the captured session paused; its RunSummary carries
  // forked_from = "snap-<digest>@w<windows>".
  std::unique_ptr<Network> Fork(const SessionSnapshot& snap,
                                const ForkOptions& opts = {});

  // Cold restore with no parent (e.g. resuming a long simulation from a
  // SaveTo file in a fresh process). The restored network owns its pool.
  static std::unique_ptr<Network> Restore(const SessionSnapshot& snap);

 private:
  Network* net_;
};

// --- Window checkpoints for speculative execution (DESIGN.md §3k) ---
//
// The window-state section alone: what speculative rounds can mutate within
// one Run() window — per-link up/delay (a global may flip a link
// mid-window), LP clocks/counters/FELs, per-node device, queue, RED and TCP
// endpoint state, the sharded FlowMonitor, and streaming flow-source RNG
// cursors. No header and no trailer.

// The full reference encoder: serializes the section into `out` (cleared,
// capacity kept). Returns false, with `out` emptied and the session
// untouched, when the state is not representable (lambda events such as
// progress tickers, control-payload packets, DV routing). The snapshot
// writes its section through the same function.
bool CaptureWindowCheckpoint(Network& net, std::vector<uint8_t>* out);

// Rolls the live session back to a section CaptureWindowCheckpoint wrote,
// re-creating every TCP endpoint. Requires the same finalized Network the
// capture ran on, quiescent at a window boundary.
void RestoreWindowCheckpoint(Network& net, const std::vector<uint8_t>& buf);

// The speculation checkpoint store: the same section kept as slots, so a
// capture costs what the window changed rather than the run's history.
// Links, LP clocks and FELs, devices, the monitor's window deltas and totals
// and the flow-source cursors are re-encoded at every capture. Each TCP
// endpoint and each flow record has a slot, re-encoded only when it was
// touched since the last successful capture (nodes and endpoints mark their
// touches while a store is installed; records registered since are found by
// their shard counts). A rollback restores, in place, only what was touched
// since the capture: touched endpoints from their slots, endpoints created
// since erased, touched records rewound, shard counts truncated. A declined
// capture keeps the slots and the touch marks, so nothing that changes
// between captures is missed; a new store (fork, cold restore) and a
// RestoreWindowCheckpoint start the next capture from scratch.
//
// Network::Finalize makes one under speculation=auto when the kernel may
// speculate (Kernel::MaySpeculate) and routing is global, and installs
// Capture / RollBack as the kernel's checkpoint hooks; a test may wrap them.
std::unique_ptr<CheckpointStore, CheckpointStoreDeleter> MakeCheckpointStore();
// Brings the store up to the current window boundary; returns the bytes it
// re-encoded, or nullopt when the state is not representable.
std::optional<uint64_t> CaptureCheckpointStore(Network& net);
// Rolls the live session back to the store's last successful capture.
void RollBackCheckpointStore(Network& net);

// Test introspection of `net`'s store. The slots assembled in the full
// section's order: byte for byte what CaptureWindowCheckpoint returned at
// the last successful capture.
std::vector<uint8_t> AssembleCheckpointStore(Network& net);
// The bytes its buffers hold allocated.
size_t CheckpointStoreFootprint(const Network& net);

}  // namespace unison

#endif  // UNISON_SRC_NET_SESSION_H_
