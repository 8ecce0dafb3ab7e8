#include "src/kernel/lp.h"

namespace unison {

thread_local Lp* Lp::current_ = nullptr;
thread_local NodeId Lp::current_node_ = kNoNode;
EventTraceFn Lp::trace_hook_ = nullptr;
void* Lp::trace_ctx_ = nullptr;

uint64_t Lp::ProcessUntil(Time bound) {
  uint64_t processed = 0;
  Lp* const prev = current_;
  current_ = this;
  while (!fel_.Empty() && fel_.PeekKey().ts < bound) {
    Event ev = fel_.Pop();
    now_ = ev.key.ts;
    current_node_ = ev.node;
    if (trace_hook_ != nullptr) {
      trace_hook_(trace_ctx_, id_, ev.node);
    }
    ev.fn();
    ++processed;
  }
  current_ = prev;
  current_node_ = kNoNode;
  return processed;
}

uint64_t Lp::DrainInboxes() {
  uint64_t received = 0;
  for (Outbox* box : inboxes_) {
    if (box->events.empty()) {
      continue;
    }
    received += box->events.size();
    if (!deterministic_) {
      RewriteArrivalKeys(box->events);
    }
    fel_.PushAll(box->events);  // Clears the inbox, keeping its capacity.
  }
  if (!overflow_.EmptyUnlocked()) {
    // Reusable scratch: DrainInto appends and PushAll clears keeping
    // capacity, so the slow path stops allocating once warm.
    overflow_scratch_.clear();
    overflow_.DrainInto(&overflow_scratch_);
    received += overflow_scratch_.size();
    if (!deterministic_) {
      RewriteArrivalKeys(overflow_scratch_);
    }
    fel_.PushAll(overflow_scratch_);
  }
  return received;
}

void Lp::RewriteArrivalKeys(std::vector<Event>& events) {
  for (Event& ev : events) {
    RewriteArrivalKey(&ev.key);
  }
}

}  // namespace unison
