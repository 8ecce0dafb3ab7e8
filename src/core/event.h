// Discrete events and the deterministic total order over them.
//
// A discrete event is "when, where, what" (§2.1 of the paper): a timestamp,
// the logical process it executes in, and a callback. To make parallel runs
// reproducible, Unison extends the ordering key with the tie-breaking rule of
// §5.2: events with equal timestamps are ordered by the sender's clock at
// schedule time, then by the sender's identity, then by a per-sender
// sequence number. The resulting key is a strict total order, so every
// kernel — with any thread count — pops events in the same order.
//
// One strengthening over the paper: the sender identity here is the sending
// *node*, not the sending LP. LP ids depend on the partition, so the paper's
// rule makes simultaneous-event order differ between partitions (their
// Table 2 notes the resulting "slight difference" against sequential DES).
// Node ids are partition-independent, so with this key the sequential
// kernel, both PDES baselines, Unison and the hybrid kernel produce
// bit-identical results for the same seed.
#ifndef UNISON_SRC_CORE_EVENT_H_
#define UNISON_SRC_CORE_EVENT_H_

#include <cstddef>
#include <cstdint>
#include <new>
#include <tuple>

#include "src/core/inline_function.h"
#include "src/core/time.h"

namespace unison {

// Event callbacks live inline in the Event itself (no per-event heap
// allocation). 80 bytes holds every model event functor
// (src/net/model_events.h static-asserts each one fits); the largest,
// packet delivery, captures a 64-byte Packet plus a Network pointer and a
// NodeId. Small closures still move cheaply because InlineFunction
// relocation only touches the callable's real size. Oversized captures fall
// back to one heap allocation, counted by
// InlineFunctionStats::alloc_fallbacks().
inline constexpr size_t kEventFnInlineBytes = 80;
using EventFn = InlineFunction<kEventFnInlineBytes>;

// Identifies a logical process. kPublicLp is the designated LP for global
// events (§4.2): topology changes, simulation stop, progress reporting.
using LpId = uint32_t;
inline constexpr LpId kPublicLp = 0xffffffffu;

// Identifies a simulated node (host or switch). kNoNode marks events with no
// node attribution (global events).
using NodeId = uint32_t;
inline constexpr NodeId kNoNode = 0xffffffffu;

struct EventKey {
  Time ts;            // When the event executes.
  Time sender_ts;     // Sender's clock when the event was scheduled.
  NodeId sender_node; // Which node's event scheduled it (kNoNode: global).
  uint64_t seq;       // Per-sender-LP schedule counter; within one sender
                      // node it preserves that node's schedule order in
                      // every partition.

  friend bool operator<(const EventKey& a, const EventKey& b) {
    return std::tie(a.ts, a.sender_ts, a.sender_node, a.seq) <
           std::tie(b.ts, b.sender_ts, b.sender_node, b.seq);
  }
  friend bool operator==(const EventKey& a, const EventKey& b) {
    return std::tie(a.ts, a.sender_ts, a.sender_node, a.seq) ==
           std::tie(b.ts, b.sender_ts, b.sender_node, b.seq);
  }
};

// An aggregate, so Event(key, node, f) — the parenthesized form the FEL slot
// and outbox use to emplace — constructs the functor `f` straight into `fn`'s
// buffer: scheduling builds each callable once, where it is dispatched from.
struct Event {
  EventKey key;
  // Node whose state this event touches; drives cache traces and lets events
  // scheduled from inside a callback inherit attribution.
  NodeId node = kNoNode;
  EventFn fn;
};

// Two cache lines: the 32-byte key, the node (plus 4 bytes of padding), the
// 8-byte ops pointer and the 80-byte buffer, at Event's natural 8-byte
// alignment. Over-aligning to 64 bought no measurable speed and made every
// slab an aligned allocation.
static_assert(sizeof(EventKey) == 32);
static_assert(sizeof(Event) == 128, "an Event is exactly two cache lines");

// Events per mailbox chunk (DESIGN.md §3b gives the measurement behind it).
inline constexpr uint32_t kChunkEvents = 16;

// A fixed-size block of events, the unit of mailbox storage
// (src/kernel/mailbox.h). Events are built in place at the tail of the last
// chunk of a list and moved out, in order, when the list is drained
// (FutureEventList::PushAll). The events come first, so each sits on its own
// two cache lines.
struct EventChunk {
  alignas(64) std::byte storage[kChunkEvents * sizeof(Event)];
  EventChunk* next = nullptr;
  uint32_t size = 0;  // Events built so far.

  Event* at(uint32_t i) {
    return std::launder(reinterpret_cast<Event*>(storage) + i);
  }
};

}  // namespace unison

#endif  // UNISON_SRC_CORE_EVENT_H_
