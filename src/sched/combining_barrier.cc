#include "src/sched/combining_barrier.h"

#include <algorithm>
#include <vector>

#include "src/sched/spin_wait.h"

namespace unison {

CombiningBarrier::CombiningBarrier(uint32_t parties)
    : parties_(parties), spin_(WaitSpins(parties)) {
  if (parties_ <= 1) {
    return;  // Single party: Arrive never touches the tree.
  }
  // Build the tree bottom-up: leaves first, then each level's parents, so a
  // node's children occupy a contiguous run of the previous level and
  // child -> parent indices are pure arithmetic.
  uint32_t level_size = (parties_ + kFanIn - 1) / kFanIn;
  std::vector<uint32_t> level_sizes{level_size};
  while (level_size > 1) {
    level_size = (level_size + kFanIn - 1) / kFanIn;
    level_sizes.push_back(level_size);
  }
  num_nodes_ = 0;
  for (uint32_t n : level_sizes) {
    num_nodes_ += n;
  }
  nodes_ = std::make_unique<Node[]>(num_nodes_);

  uint32_t level_base = 0;
  uint32_t below = parties_;  // Children feeding the current level.
  for (size_t level = 0; level < level_sizes.size(); ++level) {
    const uint32_t count = level_sizes[level];
    const uint32_t parent_base = level_base + count;
    for (uint32_t i = 0; i < count; ++i) {
      Node& node = nodes_[level_base + i];
      node.arity = std::min(kFanIn, below - i * kFanIn);
      node.remaining.store(node.arity, std::memory_order_relaxed);
      if (level + 1 < level_sizes.size()) {
        node.parent = static_cast<int32_t>(parent_base + i / kFanIn);
        node.parent_slot = i % kFanIn;
      }
    }
    level_base = parent_base;
    below = count;
  }
}

void CombiningBarrier::Arrive(uint32_t party, int64_t min_ps, uint64_t count,
                              uint32_t flags) {
  if (parties_ <= 1) {
    result_min_ = min_ps;
    result_count_ = count;
    result_flags_ = flags;
    generation_.fetch_add(1, std::memory_order_release);
    return;
  }
  // The generation must be read before the arrival is signalled: once the
  // fetch_sub lands, the root may complete and bump generation_ at any time,
  // and a stale read taken after that bump would wait for a generation that
  // already passed.
  const uint32_t gen = generation_.load(std::memory_order_acquire);
  Node* node = &nodes_[party / kFanIn];
  uint32_t slot = party % kFanIn;
  for (;;) {
    Slot& s = node->slots[slot];
    s.min_ps = min_ps;
    s.count = count;
    s.flags = flags;
    // acq_rel: the release half publishes the slot write above; the acquire
    // half (completed by the release sequence on `remaining`) gives the last
    // arriver visibility of every sibling's slot.
    if (node->remaining.fetch_sub(1, std::memory_order_acq_rel) != 1) {
      Wait(gen);
      return;
    }
    // Last arriver at this node: combine the children and carry the partial
    // result one level up. Re-arming `remaining` here is safe — no party can
    // revisit this node before the root releases the generation, which
    // happens strictly after this climb.
    int64_t m = INT64_MAX;
    uint64_t c = 0;
    uint32_t f = 0;
    for (uint32_t i = 0; i < node->arity; ++i) {
      m = std::min(m, node->slots[i].min_ps);
      c += node->slots[i].count;
      f |= node->slots[i].flags;
    }
    node->remaining.store(node->arity, std::memory_order_relaxed);
    if (node->parent < 0) {
      // Root completed: publish the reduction and release everyone with one
      // broadcast.
      result_min_ = m;
      result_count_ = c;
      result_flags_ = f;
      generation_.fetch_add(1, std::memory_order_release);
      generation_.notify_all();
      return;
    }
    min_ps = m;
    count = c;
    flags = f;
    slot = node->parent_slot;
    node = &nodes_[node->parent];
  }
}

void CombiningBarrier::Wait(uint32_t gen) {
  SpinThenPark(generation_, spin_, [gen](uint32_t g) { return g != gen; },
               &parks_);
}

}  // namespace unison
