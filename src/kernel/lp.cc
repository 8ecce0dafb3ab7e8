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

int64_t Lp::SentMin() const {
  int64_t sent = overflow_sent_ps_;
  for (const std::unique_ptr<Outbox>& box : outboxes_) {
    sent = std::min(sent, box->lanes[parity_].min_ps);
  }
  return sent;
}

uint64_t Lp::DrainInboxes(uint32_t parity) {
  uint64_t received = 0;
  for (Outbox* box : inboxes_) {
    MailLane& lane = box->lanes[parity];
    if (!lane.empty()) {
      received += Receive(lane.Detach());
    }
  }
  if (!overflow_.empty()) {
    received += Receive(overflow_.Take());
  }
  return received;
}

uint64_t Lp::Receive(EventChunk* chunks) {
  if (!deterministic_) {
    for (EventChunk* c = chunks; c != nullptr; c = c->next) {
      for (uint32_t i = 0; i < c->size; ++i) {
        RewriteArrivalKey(&c->at(i)->key);
      }
    }
  }
  const size_t received = fel_.PushAll(chunks);
  chunks_->GiveList(chunks);
  return received;
}

}  // namespace unison
