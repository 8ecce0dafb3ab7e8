// The future event list (FEL): a min-priority queue of events keyed by the
// deterministic EventKey order. One FEL exists per logical process; only the
// thread currently executing that LP touches it, so no synchronization is
// needed here (the kernels' barrier crossings provide the happens-before
// edges for cross-round handoff).
//
// Storage is split in two so the heap never moves whole events:
//  - slots_: a slab of Events with a free list. An event is built in (or
//    moved in) once at Emplace/Push and moved out once at Pop; between those
//    it never moves again. Freed slots are reused LIFO, so the steady state
//    allocates nothing and the hottest slot stays cache-resident.
//  - heap_: a binary heap of {EventKey, slot} nodes — 40 trivially-copyable
//    bytes. Sift operations shuffle these nodes, not the events (an Event
//    carries its callback capture inline, 128 bytes), which makes a sift
//    level one small copy instead of a type-erased relocation.
#ifndef UNISON_SRC_CORE_FEL_H_
#define UNISON_SRC_CORE_FEL_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "src/core/event.h"

namespace unison {

class FutureEventList {
 public:
  static constexpr size_t kNoCap = std::numeric_limits<size_t>::max();

  void Push(Event event);

  // Builds the event in its slab slot: the functor `fn` is constructed once,
  // in the storage Pop later moves it out of. An EventFn argument is moved,
  // not wrapped.
  template <typename F>
  void Emplace(const EventKey& key, NodeId node, F&& fn) {
    PushNode(key, PlaceInSlot(key, node, std::forward<F>(fn)));
  }

  // Bulk insert (snapshot restore): moves every event out of `src`, which
  // is cleared but keeps its capacity, then restores the heap property in
  // one pass. Equivalent to Push per event but with a single reserve, and a
  // Floyd rebuild instead of per-event sifts when the batch is large
  // relative to the heap.
  void PushAll(std::vector<Event>& src);

  // The same for a drained mailbox lane (src/kernel/mailbox.h): moves every
  // event out of the chunk list `chunks`, in list order, and leaves the
  // chunks empty for the caller to recycle. Returns the number of events.
  size_t PushAll(EventChunk* chunks);

  // Precondition: !Empty().
  Event Pop();

  // Timestamp of the earliest event, or Time::Max() when empty.
  Time NextTimestamp() const;

  // Full ordering key of the earliest event; only valid when !Empty().
  const EventKey& PeekKey() const { return heap_.front().key; }

  bool Empty() const { return heap_.empty(); }
  size_t Size() const { return heap_.size(); }

  // Pre-sizes heap nodes and the event slab (setup-time hint; avoids growth
  // reallocations during the first simulation rounds).
  void Reserve(size_t capacity);

  // Number of queued events with timestamp strictly below `bound`, saturated
  // at `cap`. Exploits the heap order: a subtree whose root is >= bound
  // cannot contain anything below it, so the traversal only visits events
  // that actually count (plus their frontier) instead of scanning the whole
  // array. Used by the ByPendingEventCount scheduling metric, which caps the
  // count because LPT only needs the partial order of LP sizes.
  size_t CountBefore(Time bound, size_t cap = kNoCap) const;

  void Clear();

  // Visits every queued event in heap order (the order heap_ stores nodes,
  // not timestamp order). Only slots referenced from the heap are live —
  // freed slab entries hold moved-from husks — so this walks heap_ and
  // indexes into the slab per node. Snapshot capture pairs this with a
  // restore-side bulk PushAll; because EventKeys are globally unique under
  // the deterministic ordering, the rebuilt heap dequeues identically no
  // matter how its array is laid out.
  template <typename Fn>
  void ForEach(Fn&& fn) {
    for (const HeapNode& node : heap_) {
      fn(slots_[node.slot]);
    }
  }

 private:
  struct HeapNode {
    EventKey key;
    uint32_t slot;
  };

  // Hole-based sifts: the moving node is held in a temporary while
  // ancestors/descendants shift into the hole — one copy per level instead
  // of the three a swap chain costs.
  void SiftUp(size_t i);
  void SiftDown(size_t i);

  // Constructs an Event from `args` in a free slot (the husk Pop moved out
  // of, whose destruction is a no-op) or at the slab's tail; returns the
  // slot. The one place Push, PushAll and Emplace put an event.
  template <typename... Args>
  uint32_t PlaceInSlot(Args&&... args) {
    if (free_slots_.empty()) {
      slots_.emplace_back(std::forward<Args>(args)...);
      return static_cast<uint32_t>(slots_.size() - 1);
    }
    const uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    Event* const husk = &slots_[slot];
    std::destroy_at(husk);
    std::construct_at(husk, std::forward<Args>(args)...);
    return slot;
  }

  void PushNode(const EventKey& key, uint32_t slot);
  // Moves `ev` into a slot and appends its node without sifting.
  void AppendUnsifted(Event&& ev);
  // Restores the heap property over the nodes appended since the heap held
  // `old_size`.
  void SiftAppended(size_t old_size);

  void CountBeforeFrom(size_t i, Time bound, size_t cap, size_t* n) const;

  std::vector<HeapNode> heap_;
  std::vector<Event> slots_;
  std::vector<uint32_t> free_slots_;
};

}  // namespace unison

#endif  // UNISON_SRC_CORE_FEL_H_
