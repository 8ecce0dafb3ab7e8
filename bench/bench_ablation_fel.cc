// Ablation: future-event-list micro costs. The FEL is the hottest structure
// in any DES kernel; this measures push/pop throughput under the
// deterministic 4-field ordering key, random vs. mostly-ordered workloads,
// and the CountBefore scan used by the ByPendingEventCount metric.
#include <benchmark/benchmark.h>

#include "bench/calendar_queue.h"
#include "src/core/fel.h"
#include "src/core/rng.h"

namespace unison {
namespace {

Event MakeEvent(Rng& rng, int64_t ts_range) {
  return Event{EventKey{Time::Picoseconds(static_cast<int64_t>(rng.NextU64Below(ts_range))),
                        Time::Picoseconds(static_cast<int64_t>(rng.NextU64Below(1000))),
                        static_cast<LpId>(rng.NextU64Below(64)), rng.NextU64()},
               static_cast<NodeId>(rng.NextU64Below(1024)), [] {}};
}

void BM_FelPushPopRandom(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(1, 0);
  for (auto _ : state) {
    FutureEventList fel;
    for (size_t i = 0; i < n; ++i) {
      fel.Push(MakeEvent(rng, 1000000));
    }
    while (!fel.Empty()) {
      benchmark::DoNotOptimize(fel.Pop());
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * n * 2));
}
BENCHMARK(BM_FelPushPopRandom)->Arg(1024)->Arg(16384);

void BM_FelSteadyState(benchmark::State& state) {
  // Hold ~n events, alternate push/pop — the regime of a busy LP.
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(2, 0);
  FutureEventList fel;
  int64_t clock = 0;
  for (size_t i = 0; i < n; ++i) {
    fel.Push(MakeEvent(rng, 1000000));
  }
  for (auto _ : state) {
    Event ev = fel.Pop();
    clock = ev.key.ts.ps();
    ev.key.ts = Time::Picoseconds(clock + static_cast<int64_t>(rng.NextU64Below(10000)));
    fel.Push(std::move(ev));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_FelSteadyState)->Arg(256)->Arg(4096);

void BM_CalendarSteadyState(benchmark::State& state) {
  // Same steady-state workload on the calendar queue, for comparison: it
  // wins for large single-FEL populations, loses on the small per-LP FELs
  // fine-grained partition produces.
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(2, 0);
  CalendarQueue fel;
  int64_t clock = 0;
  for (size_t i = 0; i < n; ++i) {
    fel.Push(MakeEvent(rng, 1000000));
  }
  for (auto _ : state) {
    Event ev = fel.Pop();
    clock = ev.key.ts.ps();
    ev.key.ts = Time::Picoseconds(clock + static_cast<int64_t>(rng.NextU64Below(10000)));
    fel.Push(std::move(ev));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_CalendarSteadyState)->Arg(256)->Arg(4096)->Arg(65536);

void BM_FelSteadyStateLarge(benchmark::State& state) {
  // Heap counterpart at the large size for the head-to-head.
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(2, 0);
  FutureEventList fel;
  for (size_t i = 0; i < n; ++i) {
    fel.Push(MakeEvent(rng, 1000000));
  }
  int64_t clock = 0;
  for (auto _ : state) {
    Event ev = fel.Pop();
    clock = ev.key.ts.ps();
    ev.key.ts = Time::Picoseconds(clock + static_cast<int64_t>(rng.NextU64Below(10000)));
    fel.Push(std::move(ev));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_FelSteadyStateLarge)->Arg(65536);

void BM_FelCountBefore(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(3, 0);
  FutureEventList fel;
  for (size_t i = 0; i < n; ++i) {
    fel.Push(MakeEvent(rng, 1000000));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(fel.CountBefore(Time::Picoseconds(500000)));
  }
}
BENCHMARK(BM_FelCountBefore)->Arg(256)->Arg(4096);

}  // namespace
}  // namespace unison

BENCHMARK_MAIN();
