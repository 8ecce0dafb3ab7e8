#include "src/core/fel.h"

namespace unison {

void FutureEventList::PushNode(const EventKey& key, uint32_t slot) {
  heap_.push_back(HeapNode{key, slot});
  SiftUp(heap_.size() - 1);
}

void FutureEventList::Push(Event event) {
  const EventKey key = event.key;
  PushNode(key, PlaceInSlot(std::move(event)));
}

void FutureEventList::AppendUnsifted(Event&& ev) {
  const EventKey key = ev.key;
  const uint32_t slot = PlaceInSlot(std::move(ev));
  heap_.push_back(HeapNode{key, slot});
}

void FutureEventList::PushAll(std::vector<Event>& src) {
  if (src.empty()) {
    return;
  }
  const size_t old_size = heap_.size();
  heap_.reserve(old_size + src.size());
  for (Event& ev : src) {
    AppendUnsifted(std::move(ev));
  }
  src.clear();
  SiftAppended(old_size);
}

size_t FutureEventList::PushAll(EventChunk* chunks) {
  const size_t old_size = heap_.size();
  for (EventChunk* c = chunks; c != nullptr; c = c->next) {
    for (uint32_t i = 0; i < c->size; ++i) {
      Event* const ev = c->at(i);
      AppendUnsifted(std::move(*ev));
      std::destroy_at(ev);
    }
    c->size = 0;
  }
  SiftAppended(old_size);
  return heap_.size() - old_size;
}

void FutureEventList::SiftAppended(size_t old_size) {
  const size_t n = heap_.size();
  const size_t added = n - old_size;
  // Per-element sift-up worst case is added*log2(n) node copies, but DES
  // arrivals carry future timestamps and mostly settle near the leaves, so
  // the observed cost is close to `added`. A bottom-up Floyd rebuild always
  // pays O(n); only take it when the batch rivals the existing heap and the
  // worst case could actually bite. Sifting the new elements in index order
  // is exactly repeated insertion: when SiftUp(i) runs, the prefix [0, i) is
  // already a valid heap.
  if (added < old_size) {
    for (size_t i = old_size; i < n; ++i) {
      SiftUp(i);
    }
  } else {
    for (size_t i = n / 2; i-- > 0;) {
      SiftDown(i);
    }
  }
}

Event FutureEventList::Pop() {
  const uint32_t slot = heap_.front().slot;
  Event out = std::move(slots_[slot]);
  free_slots_.push_back(slot);
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    SiftDown(0);
  }
  return out;
}

Time FutureEventList::NextTimestamp() const {
  return heap_.empty() ? Time::Max() : heap_.front().key.ts;
}

void FutureEventList::Reserve(size_t capacity) {
  heap_.reserve(capacity);
  slots_.reserve(capacity);
  free_slots_.reserve(capacity);
}

void FutureEventList::Clear() {
  heap_.clear();
  slots_.clear();
  free_slots_.clear();
}

size_t FutureEventList::CountBefore(Time bound, size_t cap) const {
  size_t n = 0;
  if (!heap_.empty() && cap > 0) {
    CountBeforeFrom(0, bound, cap, &n);
  }
  return n;
}

void FutureEventList::CountBeforeFrom(size_t i, Time bound, size_t cap,
                                      size_t* n) const {
  // Recursion depth is bounded by the heap height (the array is a complete
  // binary tree), so the stack stays O(log n) even for huge FELs.
  if (i >= heap_.size() || *n >= cap || !(heap_[i].key.ts < bound)) {
    return;
  }
  ++*n;
  CountBeforeFrom(2 * i + 1, bound, cap, n);
  CountBeforeFrom(2 * i + 2, bound, cap, n);
}

void FutureEventList::SiftUp(size_t i) {
  if (i == 0) {
    return;
  }
  size_t parent = (i - 1) / 2;
  if (!(heap_[i].key < heap_[parent].key)) {
    return;
  }
  const HeapNode moving = heap_[i];
  do {
    heap_[i] = heap_[parent];
    i = parent;
    parent = (i - 1) / 2;
  } while (i > 0 && moving.key < heap_[parent].key);
  heap_[i] = moving;
}

void FutureEventList::SiftDown(size_t i) {
  const size_t n = heap_.size();
  size_t child = 2 * i + 1;
  if (child >= n) {
    return;
  }
  if (child + 1 < n && heap_[child + 1].key < heap_[child].key) {
    ++child;
  }
  if (!(heap_[child].key < heap_[i].key)) {
    return;
  }
  const HeapNode moving = heap_[i];
  do {
    heap_[i] = heap_[child];
    i = child;
    child = 2 * i + 1;
    if (child >= n) {
      break;
    }
    if (child + 1 < n && heap_[child + 1].key < heap_[child].key) {
      ++child;
    }
  } while (heap_[child].key < moving.key);
  heap_[i] = moving;
}

}  // namespace unison
