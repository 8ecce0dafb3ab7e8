// Mailboxes: inter-LP event transfer (§5.1).
//
// Before the simulation starts, each LP creates an outbox for every LP it has
// a cut link to. An outbox has one lane per round parity. In round r the
// thread running the sender appends to lane r % 2, and the thread that claims
// the target in round r drains lane (r + 1) % 2, which round r - 1 filled.
// Each LP is claimed by one worker per round, so a lane has one writer in the
// round that fills it and one reader in the round that drains it, and the
// round's single barrier crossing orders the first before the second: the
// fast path needs no atomics or locks. The two lanes of an outbox sit on
// separate cache lines, since a sender and a drainer on different workers
// write them in the same round. A worker that runs the step loop is alone,
// and it uses one lane for both.
//
// A lane is a list of fixed-size chunks (EventChunk, kChunkEvents events).
// Chunks come from the sending worker's ChunkCache and go back to the
// draining worker's, and the caches exchange whole batches through the
// kernel's ChunkPool, so the memory held follows the events in flight rather
// than every outbox's own high-water mark, and steady traffic in one
// direction between two workers allocates nothing once warm.
//
// Cross-LP events between LPs with no wired outbox (every send of the
// barrier preset, or a pair left unwired after a topology change) go to the
// target's locked overflow box, a single lane drained at the target's claim.
// Senders may push into it while its target drains it, so its emptiness is
// an atomic flag.
#ifndef UNISON_SRC_KERNEL_MAILBOX_H_
#define UNISON_SRC_KERNEL_MAILBOX_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "src/core/event.h"

namespace unison {

// Every chunk a kernel's mailboxes use, and the free ones no worker's cache
// holds. It owns the chunks' memory for the kernel's lifetime. Caches trade
// with it in batches of kBatch chunks, under its lock.
class ChunkPool {
 public:
  static constexpr uint32_t kBatch = 4;

  ChunkPool() = default;
  ChunkPool(const ChunkPool&) = delete;
  ChunkPool& operator=(const ChunkPool&) = delete;

  // A list of kBatch free chunks: a stored batch, or a new one.
  EventChunk* TakeBatch() {
    std::lock_guard<std::mutex> lock(mu_);
    if (!batches_.empty()) {
      EventChunk* const batch = batches_.back();
      batches_.pop_back();
      return batch;
    }
    EventChunk* batch = nullptr;
    for (uint32_t i = 0; i < kBatch; ++i) {
      owned_.push_back(std::make_unique<EventChunk>());
      owned_.back()->next = batch;
      batch = owned_.back().get();
    }
    return batch;
  }

  // Stores a list of exactly kBatch free chunks.
  void PutBatch(EventChunk* batch) {
    std::lock_guard<std::mutex> lock(mu_);
    batches_.push_back(batch);
  }

  // Chunks allocated so far (test hook).
  size_t chunks() {
    std::lock_guard<std::mutex> lock(mu_);
    return owned_.size();
  }

 private:
  std::mutex mu_;
  std::vector<std::unique_ptr<EventChunk>> owned_;
  std::vector<EventChunk*> batches_;
};

// One worker's free chunks: at most kBatch - 1 loose ones plus one full
// batch, so a worker that drains about as much as it sends never touches the
// pool, and one that only drains (or only sends) trades a batch at a time.
// Used by one thread at a time.
class ChunkCache {
 public:
  void set_pool(ChunkPool* pool) { pool_ = pool; }

  // An empty chunk, unlinked.
  EventChunk* Take() {
    if (loose_ == nullptr) {
      if (spare_ != nullptr) {
        loose_ = spare_;
        spare_ = nullptr;
      } else {
        loose_ = pool_->TakeBatch();
      }
      loose_count_ = ChunkPool::kBatch;
    }
    EventChunk* const c = loose_;
    loose_ = c->next;
    --loose_count_;
    c->next = nullptr;
    c->size = 0;
    return c;
  }

  // Returns every chunk of the list `chunks`, whose events were moved out.
  void GiveList(EventChunk* chunks) {
    while (chunks != nullptr) {
      EventChunk* const c = chunks;
      chunks = c->next;
      c->next = loose_;
      loose_ = c;
      if (++loose_count_ == ChunkPool::kBatch) {
        if (spare_ != nullptr) {
          pool_->PutBatch(spare_);
        }
        spare_ = loose_;
        loose_ = nullptr;
        loose_count_ = 0;
      }
    }
  }

 private:
  ChunkPool* pool_ = nullptr;
  EventChunk* loose_ = nullptr;
  uint32_t loose_count_ = 0;
  EventChunk* spare_ = nullptr;  // A full batch, or nullptr.
};

// Events in flight from one sender to one target, as a list of chunks.
struct alignas(64) MailLane {
  EventChunk* head = nullptr;
  EventChunk* tail = nullptr;
  int64_t min_ps = INT64_MAX;  // Earliest timestamp waiting here.

  bool empty() const { return head == nullptr; }

  // Builds Event(key, args...) at the tail, taking a chunk from `cache` when
  // the last one is full.
  template <typename... Args>
  void Emplace(ChunkCache& cache, const EventKey& key, Args&&... args) {
    if (tail == nullptr || tail->size == kChunkEvents) {
      EventChunk* const c = cache.Take();
      (tail == nullptr ? head : tail->next) = c;
      tail = c;
    }
    std::construct_at(tail->at(tail->size), key, std::forward<Args>(args)...);
    ++tail->size;
    min_ps = std::min(min_ps, key.ts.ps());
  }

  // Unlinks and returns the chunk list, leaving the lane empty.
  EventChunk* Detach() {
    EventChunk* const chunks = head;
    head = nullptr;
    tail = nullptr;
    min_ps = INT64_MAX;
    return chunks;
  }
};

struct Outbox {
  explicit Outbox(LpId t) : target(t) {}
  MailLane lanes[2];  // By round parity.
  const LpId target;

  bool empty() const { return lanes[0].empty() && lanes[1].empty(); }
};

// Overflow channel for un-wired sender→target pairs. One per target LP.
class OverflowBox {
 public:
  void Push(ChunkCache& cache, Event ev) {
    std::lock_guard<std::mutex> lock(mu_);
    lane_.Emplace(cache, ev.key, ev.node, std::move(ev.fn));
    pending_.store(true, std::memory_order_relaxed);
  }

  // Unlinks and returns every pending event's chunk list (nullptr when none
  // is pending). A push racing the call is either taken or left for the next
  // one; a push ordered before the call by a barrier is always taken.
  EventChunk* Take() {
    if (!pending_.load(std::memory_order_relaxed)) {
      return nullptr;
    }
    std::lock_guard<std::mutex> lock(mu_);
    pending_.store(false, std::memory_order_relaxed);
    return lane_.Detach();
  }

  bool empty() const { return !pending_.load(std::memory_order_relaxed); }

 private:
  std::mutex mu_;
  MailLane lane_;
  // Whether lane_ holds events: written under mu_, read without it. The
  // lock, not this flag, orders the lane's contents.
  std::atomic<bool> pending_{false};
};

}  // namespace unison

#endif  // UNISON_SRC_KERNEL_MAILBOX_H_
