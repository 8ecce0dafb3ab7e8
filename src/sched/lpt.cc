#include "src/sched/lpt.h"

#include <algorithm>
#include <numeric>
#include <queue>

namespace unison {

std::vector<uint32_t> SortByCostDescending(const std::vector<uint64_t>& cost) {
  std::vector<uint32_t> order(cost.size());
  std::iota(order.begin(), order.end(), 0);
  SortByCostDescending(order.data(), order.data() + order.size(), cost);
  return order;
}

void SortByCostDescending(uint32_t* first, uint32_t* last,
                          const std::vector<uint64_t>& cost) {
  // Explicit (cost desc, id asc) key instead of a stable sort over the input
  // order: the tie-break is then a property of the values, not of the caller
  // passing id order or of any library's stable_sort implementation — the
  // claim order is bitwise-identical across platforms whenever costs tie.
  std::sort(first, last, [&cost](uint32_t a, uint32_t b) {
    return cost[a] != cost[b] ? cost[a] > cost[b] : a < b;
  });
}

uint64_t ListScheduleMakespan(const std::vector<uint64_t>& cost,
                              const std::vector<uint32_t>& order, uint32_t workers,
                              std::vector<uint32_t>* assignment) {
  if (assignment != nullptr) {
    assignment->assign(cost.size(), 0);
  }
  // Min-heap of (finish_time, worker).
  using Slot = std::pair<uint64_t, uint32_t>;
  std::priority_queue<Slot, std::vector<Slot>, std::greater<>> idle;
  for (uint32_t w = 0; w < workers; ++w) {
    idle.emplace(0, w);
  }
  uint64_t makespan = 0;
  for (uint32_t job : order) {
    auto [t, w] = idle.top();
    idle.pop();
    t += cost[job];
    makespan = std::max(makespan, t);
    if (assignment != nullptr) {
      (*assignment)[job] = w;
    }
    idle.emplace(t, w);
  }
  return makespan;
}

namespace {

void Search(const std::vector<uint64_t>& cost, size_t i, std::vector<uint64_t>& load,
            uint64_t current, uint64_t& best) {
  if (current >= best) {
    return;  // Prune: this branch cannot improve.
  }
  if (i == cost.size()) {
    best = current;
    return;
  }
  for (size_t w = 0; w < load.size(); ++w) {
    load[w] += cost[i];
    Search(cost, i + 1, load, std::max(current, load[w]), best);
    load[w] -= cost[i];
    if (load[w] == 0) {
      break;  // Symmetry: first empty worker is equivalent to the rest.
    }
  }
}

}  // namespace

uint64_t OptimalMakespan(const std::vector<uint64_t>& cost, uint32_t workers) {
  // Start from the LPT solution as the upper bound.
  uint64_t best = ListScheduleMakespan(cost, SortByCostDescending(cost), workers);
  std::vector<uint64_t> load(workers, 0);
  // Branch on jobs in descending order for stronger pruning.
  std::vector<uint64_t> sorted = cost;
  std::sort(sorted.rbegin(), sorted.rend());
  Search(sorted, 0, load, 0, best);
  return best;
}

}  // namespace unison
