// A logical process: one spatial partition of the simulated network, with its
// own future event list, clock, outboxes, and deterministic sequence counters.
//
// Exactly one thread executes a given LP at a time (each LP is claimed by one
// worker per round, which drains its inboxes and runs it, or by the one
// worker of a step-loop window); the kernels guarantee this, which lets all
// LP state be plain non-atomic data. Other LPs' workers append to this LP's
// inboxes concurrently, but only to the lanes it does not drain that round
// (mailbox.h).
#ifndef UNISON_SRC_KERNEL_LP_H_
#define UNISON_SRC_KERNEL_LP_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/core/event.h"
#include "src/core/fel.h"
#include "src/core/time.h"
#include "src/kernel/mailbox.h"

namespace unison {

// Optional per-event trace hook, used by the cache simulator and the cost
// model during single-threaded instrumented runs. Not thread-safe by design.
using EventTraceFn = void (*)(void* ctx, LpId lp, NodeId node);

class Lp {
 public:
  Lp(LpId id, bool deterministic) : id_(id), deterministic_(deterministic) {}

  Lp(const Lp&) = delete;
  Lp& operator=(const Lp&) = delete;

  LpId id() const { return id_; }
  Time now() const { return now_; }
  void set_now(Time t) { now_ = t; }

  FutureEventList& fel() { return fel_; }
  const FutureEventList& fel() const { return fel_; }

  // Builds the ordering key for an event scheduled at absolute time `abs`
  // from this LP's execution context (deterministic tie-breaking rule,
  // §5.2, strengthened to partition-independent node identity). During
  // setup, when no event is executing, `fallback_node` names the sender.
  EventKey MakeKey(Time abs, NodeId fallback_node = kNoNode) {
    const NodeId ctx = CurrentNode();
    return EventKey{abs, now_, ctx != kNoNode ? ctx : fallback_node, seq_++};
  }

  // Inserts an event into this LP's FEL. In non-deterministic mode (stock
  // ns-3 behaviour, used by the baseline kernels for the Fig. 11 experiment)
  // the key is rewritten to insertion order, so cross-LP arrival races leak
  // into the processing order exactly as they do in ns-3's PDES kernels.
  void Insert(Event ev) { Emplace(ev.key, ev.node, std::move(ev.fn)); }

  // Insert's in-place form: builds the event straight into a FEL slot.
  template <typename F>
  void Emplace(EventKey key, NodeId node, F&& fn) {
    if (!deterministic_) {
      RewriteArrivalKey(&key);
    }
    fel_.Emplace(key, node, std::forward<F>(fn));
  }

  // Schedules a callback on this LP at absolute time `abs`, attributed to
  // `node`.
  template <typename F>
  void ScheduleLocal(Time abs, NodeId node, F&& fn) {
    Emplace(MakeKey(abs, node), node, std::forward<F>(fn));
  }

  // Pops and executes events with timestamp strictly below `bound`.
  // Returns the number of events executed. Updates the LP clock as it goes.
  uint64_t ProcessUntil(Time bound);

  // --- Mailboxes (wired by the kernels; see mailbox.h) ---

  // Returns the outbox from this LP to `target`, or nullptr if none wired.
  // O(1): a dense LpId-indexed table maintained at wiring time — this lookup
  // is on the path of every cross-LP send, where the old linear walk over
  // outboxes_ scaled with the LP's degree.
  Outbox* FindOutbox(LpId target) {
    return target < outbox_index_.size() ? outbox_index_[target] : nullptr;
  }
  // Heap-allocated so inbox registrations on the target stay valid when more
  // outboxes are wired later (dynamic topology changes add channels).
  Outbox* AddOutbox(LpId target) {
    outboxes_.push_back(std::make_unique<Outbox>(target));
    if (outbox_index_.size() <= target) {
      outbox_index_.resize(target + 1, nullptr);
    }
    outbox_index_[target] = outboxes_.back().get();
    return outboxes_.back().get();
  }
  std::vector<std::unique_ptr<Outbox>>& outboxes() { return outboxes_; }

  // Inboxes: outboxes of other LPs that target this LP.
  void AddInbox(Outbox* box) { inboxes_.push_back(box); }

  // Called by the worker that is about to run this LP: until the next call,
  // its sends append to lane `parity` of its outboxes with chunks from
  // `cache`, drained chunks go back to `cache`, and the overflow-send
  // minimum restarts.
  void Attach(ChunkCache* cache, uint32_t parity) {
    chunks_ = cache;
    parity_ = parity;
    overflow_sent_ps_ = INT64_MAX;
  }
  ChunkCache& chunk_cache() { return *chunks_; }

  // A wired send: builds Event(key, args...) at the tail of `box`'s lane of
  // the attached parity.
  template <typename... Args>
  void Send(Outbox* box, const EventKey& key, Args&&... args) {
    box->lanes[parity_].Emplace(*chunks_, key, std::forward<Args>(args)...);
  }
  // Records an overflow send at `ts` for SentMin.
  void NoteOverflowSend(Time ts) {
    overflow_sent_ps_ = std::min(overflow_sent_ps_, ts.ps());
  }
  // The earliest timestamp this LP has sent since Attach that still waits in
  // a mailbox: its outboxes' lanes of the attached parity, and its overflow
  // sends.
  int64_t SentMin() const;

  // Receiving: moves the events waiting in lane `parity` of every inbox, and
  // in the overflow box, into the FEL (bulk PushAll, one pass per lane) and
  // returns their chunks to the attached cache. Returns the number of events
  // received.
  uint64_t DrainInboxes(uint32_t parity);

  OverflowBox& overflow() { return overflow_; }

  // --- Snapshot support ---

  // Tie-break counters: seq_ feeds MakeKey, arrival_seq_ feeds the
  // non-deterministic insertion-order rewrite. Both are part of captured
  // session state — a fork that resumed with fresh counters would mint keys
  // that collide with (or order differently from) events already in flight.
  uint64_t seq() const { return seq_; }
  uint64_t arrival_seq() const { return arrival_seq_; }
  void RestoreCounters(uint64_t seq, uint64_t arrival_seq) {
    seq_ = seq;
    arrival_seq_ = arrival_seq;
  }

  // The LP currently executing on this thread (nullptr during setup and in
  // the global-event phase when attributed to the public LP).
  static Lp* Current() { return current_; }

  // Node attribution of the event currently executing; inherited by events
  // scheduled with Simulator::Schedule so that cache traces stay accurate.
  static NodeId CurrentNode() { return current_node_; }

  static void SetTraceHook(EventTraceFn fn, void* ctx) {
    trace_hook_ = fn;
    trace_ctx_ = ctx;
  }

 private:
  // The non-deterministic (insertion-order) key rewrite of Insert, for one
  // key or for a whole batch before it is bulk-pushed.
  void RewriteArrivalKey(EventKey* key) {
    key->sender_ts = Time::Zero();
    key->sender_node = id_;
    key->seq = arrival_seq_++;
  }
  // Moves a detached lane's events into the FEL and recycles its chunks.
  uint64_t Receive(EventChunk* chunks);

  const LpId id_;
  const bool deterministic_;
  Time now_;
  uint64_t seq_ = 0;
  uint64_t arrival_seq_ = 0;
  FutureEventList fel_;
  std::vector<std::unique_ptr<Outbox>> outboxes_;
  std::vector<Outbox*> outbox_index_;  // Dense LpId -> Outbox* lookup.
  std::vector<Outbox*> inboxes_;
  OverflowBox overflow_;
  ChunkCache* chunks_ = nullptr;  // The running worker's; see Attach.
  uint32_t parity_ = 0;           // Lane parity sends append to.
  int64_t overflow_sent_ps_ = INT64_MAX;

  static thread_local Lp* current_;
  static thread_local NodeId current_node_;
  static EventTraceFn trace_hook_;
  static void* trace_ctx_;
};

}  // namespace unison

#endif  // UNISON_SRC_KERNEL_LP_H_
