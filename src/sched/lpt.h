// Longest-processing-time-first list scheduling (§4.3).
//
// Assigning LPs to identical cores to minimize the makespan is the multiway
// number partitioning problem (NP-hard). Unison uses Graham's LPT rule —
// sort jobs by descending size, each idle worker takes the next one — with a
// worst-case approximation ratio of 4/3 − 1/(3m). At runtime each worker
// keeps the LPs it ran last round, sorted by this key, and takes them
// head-first with one CAS each; a worker whose own list is empty steals from
// the tails of the others, the cheapest LPs first (ClaimRange,
// claim_range.h). The kernel trades a little of the shared list's balance
// for cache locality: an LP stays on one core unless a steal can shorten the
// round. Scheduling costs O(n log n) for the sorts and one CAS per claim.
//
// The offline helpers here are used by the parallel cost model and by the
// property tests that check the 4/3 bound against brute force.
#ifndef UNISON_SRC_SCHED_LPT_H_
#define UNISON_SRC_SCHED_LPT_H_

#include <cstdint>
#include <vector>

namespace unison {

// Produces job indices sorted by (cost descending, id ascending). The
// explicit id tie-break makes the schedule deterministic across platforms
// and standard-library versions whenever costs tie.
std::vector<uint32_t> SortByCostDescending(const std::vector<uint64_t>& cost);

// Sorts the job ids in [first, last) in place by the same key, so the result
// depends only on their costs, never on the order they arrive in.
void SortByCostDescending(uint32_t* first, uint32_t* last,
                          const std::vector<uint64_t>& cost);

// Simulates list scheduling of jobs (taken in `order`) on `workers` identical
// machines; returns the makespan and optionally the per-job worker
// assignment.
uint64_t ListScheduleMakespan(const std::vector<uint64_t>& cost,
                              const std::vector<uint32_t>& order, uint32_t workers,
                              std::vector<uint32_t>* assignment = nullptr);

// Exact optimal makespan by branch and bound; exponential, tests only.
uint64_t OptimalMakespan(const std::vector<uint64_t>& cost, uint32_t workers);

}  // namespace unison

#endif  // UNISON_SRC_SCHED_LPT_H_
