// Event hot-path microbenchmark: schedule + dispatch throughput on the
// packet-closure workload, std::function baseline vs the InlineFunction
// event representation (plus the bulk-drain receive path).
//
// The workload models what every link transmission does: construct an event
// whose closure captures a 64-byte Packet by value, push it into a FEL,
// later pop it and invoke the closure. With std::function the capture
// exceeds the 16-byte SBO, so every event pays a malloc/free pair plus a
// cache miss chasing the heap pointer at dispatch. The InlineFunction event
// stores the capture inline and the FEL sifts with hole-based moves, so the
// same workload runs allocation-free.
//
// Emits BENCH_event_hotpath.json with both throughputs and the speedup (each
// the median of alternating std::function/inline repetitions), the
// inline-buffer fallback rate (must be 0 for packet closures), the
// steady-state heap allocation counts (must be 0: the whole point of the
// inline representation and the drain-into-scratch receive path is that the
// warm hot path never touches the allocator), the allocations per event of a
// cross-LP ping-pong under the null-message and unison kernels (must be ~0:
// mailboxes and channels keep their storage across windows and sweeps), and
// the event layout: the inline buffer's size and sizeof(Event).
#include <algorithm>
#include <cstdio>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "bench/counting_new.h"
#include "bench/ping_pong_allocs.h"
#include "src/core/fel.h"
#include "src/core/inline_function.h"
#include "src/kernel/lp.h"
#include "src/net/packet.h"

using namespace unison;
using namespace unison::bench;

namespace {

// Allocations inside the most recent RunScheduleDispatch timed loop.
uint64_t g_timed_allocs = 0;

// Defeats dead-code elimination of the dispatched closures.
volatile uint64_t g_sink = 0;

// The seed's event representation: callback behind std::function.
struct BaselineEvent {
  EventKey key;
  NodeId node = kNoNode;
  std::function<void()> fn;
};

// The seed's FEL: swap-chain binary heap, per-event pushes. Templated so the
// baseline measurement runs the exact pre-optimization algorithm on the
// baseline event type.
template <typename Ev>
class SwapHeap {
 public:
  void Push(Ev ev) {
    heap_.push_back(std::move(ev));
    size_t i = heap_.size() - 1;
    while (i > 0) {
      const size_t parent = (i - 1) / 2;
      if (!(heap_[i].key < heap_[parent].key)) {
        break;
      }
      std::swap(heap_[i], heap_[parent]);
      i = parent;
    }
  }

  Ev Pop() {
    Ev top = std::move(heap_.front());
    heap_.front() = std::move(heap_.back());
    heap_.pop_back();
    const size_t n = heap_.size();
    size_t i = 0;
    for (;;) {
      size_t smallest = i;
      const size_t l = 2 * i + 1;
      const size_t r = 2 * i + 2;
      if (l < n && heap_[l].key < heap_[smallest].key) {
        smallest = l;
      }
      if (r < n && heap_[r].key < heap_[smallest].key) {
        smallest = r;
      }
      if (smallest == i) {
        return top;
      }
      std::swap(heap_[i], heap_[smallest]);
      i = smallest;
    }
  }

  bool Empty() const { return heap_.empty(); }

 private:
  std::vector<Ev> heap_;
};

Packet MakePacket(uint64_t i) {
  Packet pkt;
  pkt.kind = PacketKind::kTcpData;
  pkt.flow_id = static_cast<uint32_t>(i);
  pkt.src = static_cast<NodeId>(i & 0xff);
  pkt.dst = static_cast<NodeId>((i >> 8) & 0xff);
  pkt.size_bytes = kMss + kHeaderBytes;
  pkt.seq = i * kMss;
  pkt.payload = kMss;
  pkt.ts = Time::Nanoseconds(static_cast<int64_t>(i));
  return pkt;
}

EventKey MakeKey(uint64_t ts_ps, uint64_t seq) {
  return EventKey{Time::Picoseconds(static_cast<int64_t>(ts_ps)), Time::Zero(),
                  static_cast<NodeId>(seq & 0x3f), seq};
}

// Steady-state schedule/dispatch loop: keep `depth` events in flight; each
// iteration pops the earliest event, dispatches its packet closure, and
// schedules a replacement one delta later — the FEL access pattern of a
// saturated link. Returns events per second.
template <typename Heap, typename MakeEv>
double RunScheduleDispatch(size_t depth, uint64_t ops, const MakeEv& make_event) {
  Heap heap;
  uint64_t seq = 0;
  for (size_t i = 0; i < depth; ++i) {
    heap.Push(make_event(MakeKey(1000 + 7 * seq, seq), seq));
    ++seq;
  }
  {
    // One untimed cycle reaches the true steady state before the allocation
    // snapshot: the FEL's slot free list grows on the very first Pop.
    auto ev = heap.Pop();
    ev.fn();
    heap.Push(make_event(MakeKey(1000 + 7 * seq, seq), seq));
    ++seq;
  }
  const uint64_t allocs0 = HeapAllocs();
  const uint64_t t0 = Profiler::NowNs();
  for (uint64_t i = 0; i < ops; ++i) {
    auto ev = heap.Pop();
    ev.fn();
    heap.Push(make_event(MakeKey(1000 + 7 * seq, seq), seq));
    ++seq;
  }
  const uint64_t dt = Profiler::NowNs() - t0;
  g_timed_allocs = HeapAllocs() - allocs0;
  while (!heap.Empty()) {
    heap.Pop();
  }
  return dt == 0 ? 0.0 : static_cast<double>(ops) * 1e9 / static_cast<double>(dt);
}

BaselineEvent MakeBaselineEvent(const EventKey& key, uint64_t i) {
  Packet pkt = MakePacket(i);
  return BaselineEvent{key, pkt.dst,
                       [pkt = std::move(pkt)]() mutable { g_sink = g_sink + pkt.seq; }};
}

Event MakeInlineEvent(const EventKey& key, uint64_t i) {
  Packet pkt = MakePacket(i);
  const NodeId node = pkt.dst;
  return Event{key, node, [pkt = std::move(pkt)]() mutable { g_sink = g_sink + pkt.seq; }};
}

// Receive-phase drain: `batch` events arrive in a mailbox vector and move
// into a FEL holding `depth` events. Per-event pushes vs bulk PushAll.
double RunDrain(size_t depth, size_t batch, uint64_t reps, bool bulk) {
  FutureEventList fel;
  uint64_t seq = 0;
  uint64_t total_ns = 0;
  std::vector<Event> inbox;
  for (uint64_t r = 0; r < reps; ++r) {
    fel.Clear();
    for (size_t i = 0; i < depth; ++i) {
      fel.Push(MakeInlineEvent(MakeKey(1000 + 7 * seq, seq), seq));
      ++seq;
    }
    inbox.clear();
    for (size_t i = 0; i < batch; ++i) {
      inbox.push_back(MakeInlineEvent(MakeKey(500 + 3 * seq, seq), seq));
      ++seq;
    }
    const uint64_t t0 = Profiler::NowNs();
    if (bulk) {
      fel.PushAll(inbox);
    } else {
      for (Event& ev : inbox) {
        fel.Push(std::move(ev));
      }
      inbox.clear();
    }
    total_ns += Profiler::NowNs() - t0;
  }
  return total_ns == 0
             ? 0.0
             : static_cast<double>(batch * reps) * 1e9 / static_cast<double>(total_ns);
}

// Overflow slow path at steady state: Push a batch into the LP's OverflowBox,
// drain its chunks into the FEL in bulk (returning them to the cache),
// dispatch. After warm cycles the chunk cache and the FEL sit at their
// high-water marks, so the measured cycles must not allocate at all.
uint64_t OverflowDrainSteadyStateAllocs(size_t batch, int warm_cycles,
                                        int measured_cycles) {
  ChunkPool pool;
  ChunkCache chunks;
  chunks.set_pool(&pool);
  Lp lp(0, /*deterministic=*/true);
  lp.Attach(&chunks, 0);
  uint64_t seq = 0;
  auto cycle = [&] {
    for (size_t i = 0; i < batch; ++i) {
      lp.overflow().Push(chunks,
                         MakeInlineEvent(MakeKey(1000 + 7 * seq, seq), seq));
      ++seq;
    }
    lp.DrainInboxes(0);
    lp.ProcessUntil(Time::Picoseconds(INT64_MAX));
  };
  for (int i = 0; i < warm_cycles; ++i) {
    cycle();
  }
  const uint64_t allocs0 = HeapAllocs();
  for (int i = 0; i < measured_cycles; ++i) {
    cycle();
  }
  return HeapAllocs() - allocs0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string ops_arg =
      GetOpt(argc, argv, "--ops",
             HasFlag(argc, argv, "--quick") ? "200000" : "1000000");
  uint64_t ops = 0;
  try {
    size_t used = 0;
    ops = std::stoull(ops_arg, &used);
    if (used != ops_arg.size() || ops == 0) {
      throw std::invalid_argument(ops_arg);
    }
  } catch (const std::exception&) {
    std::fprintf(stderr, "error: --ops requires a positive integer, got '%s'\n",
                 ops_arg.c_str());
    return 2;
  }
  const std::vector<size_t> depths = {256, 4096};

  std::printf("Event hot path: schedule+dispatch throughput, packet-closure "
              "workload (%llu ops/config)\n\n",
              static_cast<unsigned long long>(ops));

  Table table({"fel depth", "std::function Mev/s", "inline Mev/s", "speedup",
               "fallbacks", "allocs"});
  double worst_speedup = 1e30;
  double baseline_mops = 0;
  double inline_mops = 0;
  double depth_speedup = 0;  // Median speedup at the first depth.
  uint64_t packet_fallbacks = 0;
  uint64_t steady_state_allocs = 0;
  // Each depth runs kRepetitions timed pairs, alternating which side goes
  // first, and reports the median per-pair speedup: one slow stretch of the
  // host then moves one pair, not the figure.
  constexpr int kRepetitions = 5;
  for (const size_t depth : depths) {
    // Warm up both paths once so allocator and cache state are comparable.
    RunScheduleDispatch<SwapHeap<BaselineEvent>>(depth, ops / 10, MakeBaselineEvent);
    RunScheduleDispatch<FutureEventList>(depth, ops / 10, MakeInlineEvent);
    std::vector<double> bases, inls, speedups;
    uint64_t fallbacks = 0;
    uint64_t allocs = 0;
    for (int rep = 0; rep < kRepetitions; ++rep) {
      double base = 0;
      double inl = 0;
      auto run_inline = [&] {
        InlineFunctionStats::ResetAllocFallbacks();
        inl = RunScheduleDispatch<FutureEventList>(depth, ops, MakeInlineEvent);
        fallbacks += InlineFunctionStats::alloc_fallbacks();
        // The inline timed loop pops and re-pushes at a fixed depth: the FEL
        // is at its high-water capacity and every closure fits the inline
        // buffer, so the loop must be allocation-free.
        allocs += g_timed_allocs;
      };
      auto run_base = [&] {
        base = RunScheduleDispatch<SwapHeap<BaselineEvent>>(depth, ops,
                                                             MakeBaselineEvent);
      };
      if (rep % 2 == 0) {
        run_base();
        run_inline();
      } else {
        run_inline();
        run_base();
      }
      bases.push_back(base);
      inls.push_back(inl);
      speedups.push_back(base == 0 ? 0 : inl / base);
    }
    steady_state_allocs += allocs;
    const double base = Median(bases);
    const double inl = Median(inls);
    const double speedup = Median(speedups);
    worst_speedup = std::min(worst_speedup, speedup);
    if (depth == depths.front()) {
      baseline_mops = base * 1e-6;
      inline_mops = inl * 1e-6;
      depth_speedup = speedup;
      packet_fallbacks = fallbacks;
    }
    table.Row({Fmt("%zu", depth), Fmt("%.2f", base * 1e-6), Fmt("%.2f", inl * 1e-6),
               Fmt("%.2fx", speedup), Fmt("%llu", static_cast<unsigned long long>(fallbacks)),
               Fmt("%llu", static_cast<unsigned long long>(allocs))});
  }
  table.Print();

  // Oversized captures must still work, via the counted heap fallback.
  InlineFunctionStats::ResetAllocFallbacks();
  {
    struct Big {
      unsigned char blob[256] = {1};
    } big;
    EventFn oversized = [big]() { g_sink = g_sink + big.blob[0]; };
    oversized();
  }
  const uint64_t oversize_fallbacks = InlineFunctionStats::alloc_fallbacks();

  const size_t drain_batch = 512;
  const uint64_t drain_reps = std::max<uint64_t>(1, ops / (drain_batch * 8));
  const double drain_per_event = RunDrain(2048, drain_batch, drain_reps, false);
  const double drain_bulk = RunDrain(2048, drain_batch, drain_reps, true);
  std::printf("\nReceive-phase drain (%zu-event batches into a 2048-event FEL):\n",
              drain_batch);
  Table drain({"path", "Mev/s"});
  drain.Row({"per-event Push", Fmt("%.2f", drain_per_event * 1e-6)});
  drain.Row({"bulk PushAll", Fmt("%.2f", drain_bulk * 1e-6)});
  drain.Print();

  const uint64_t overflow_allocs =
      OverflowDrainSteadyStateAllocs(/*batch=*/256, /*warm_cycles=*/4,
                                     /*measured_cycles=*/32);
  std::printf("\noverflow Push -> drain -> PushAll steady-state allocations: "
              "%llu (expected 0)\n",
              static_cast<unsigned long long>(overflow_allocs));

  // Each event is counted once, by the kernel (processed_events), never by a
  // counter both executors would write.
  const PingPongAllocs nullmsg_pp =
      MeasurePingPongAllocs(KernelType::kNullMessage, /*chains=*/8, HeapAllocs);
  const PingPongAllocs unison_pp =
      MeasurePingPongAllocs(KernelType::kUnison, /*chains=*/8, HeapAllocs);
  std::printf("cross-LP ping-pong allocations per event: nullmsg %.4f "
              "(%llu in %llu events), unison %.4f (%llu in %llu events)\n",
              nullmsg_pp.per_event(),
              static_cast<unsigned long long>(nullmsg_pp.allocs),
              static_cast<unsigned long long>(nullmsg_pp.events),
              unison_pp.per_event(),
              static_cast<unsigned long long>(unison_pp.allocs),
              static_cast<unsigned long long>(unison_pp.events));

  std::printf("oversize-capture fallbacks counted: %llu (expected 1)\n",
              static_cast<unsigned long long>(oversize_fallbacks));
  const bool pass = worst_speedup >= 1.2 && packet_fallbacks == 0 &&
                    steady_state_allocs == 0 && overflow_allocs == 0 &&
                    nullmsg_pp.per_event() <= 0.01 &&
                    unison_pp.per_event() <= 0.01;
  std::printf("%s: worst speedup %.2fx (target >= 1.20x), packet fallback rate "
              "%llu, steady-state allocs %llu\n",
              pass ? "PASS" : "FAIL", worst_speedup,
              static_cast<unsigned long long>(packet_fallbacks),
              static_cast<unsigned long long>(steady_state_allocs + overflow_allocs));

  FILE* out = std::fopen("BENCH_event_hotpath.json", "w");
  if (out != nullptr) {
    std::fprintf(out,
                 "{\n"
                 "  \"workload\": \"packet-closure schedule+dispatch\",\n"
                 "  \"ops_per_config\": %llu,\n"
                 "  \"baseline_std_function_mops\": %.3f,\n"
                 "  \"inline_function_mops\": %.3f,\n"
                 "  \"speedup\": %.3f,\n"
                 "  \"worst_speedup\": %.3f,\n"
                 "  \"packet_closure_fallbacks\": %llu,\n"
                 "  \"packet_closure_fallback_rate\": %.6f,\n"
                 "  \"oversize_capture_fallbacks\": %llu,\n"
                 "  \"steady_state_allocs\": %llu,\n"
                 "  \"overflow_drain_allocs\": %llu,\n"
                 "  \"nullmsg_allocs_per_event\": %.6f,\n"
                 "  \"unison_allocs_per_event\": %.6f,\n"
                 "  \"drain_per_event_mops\": %.3f,\n"
                 "  \"drain_bulk_mops\": %.3f,\n"
                 "  \"event_inline_bytes\": %zu,\n"
                 "  \"event_bytes\": %zu,\n"
                 "  \"pass\": %s\n"
                 "}\n",
                 static_cast<unsigned long long>(ops), baseline_mops, inline_mops,
                 depth_speedup, worst_speedup,
                 static_cast<unsigned long long>(packet_fallbacks),
                 static_cast<double>(packet_fallbacks) / static_cast<double>(ops),
                 static_cast<unsigned long long>(oversize_fallbacks),
                 static_cast<unsigned long long>(steady_state_allocs),
                 static_cast<unsigned long long>(overflow_allocs),
                 nullmsg_pp.per_event(), unison_pp.per_event(),
                 drain_per_event * 1e-6, drain_bulk * 1e-6, kEventFnInlineBytes,
                 sizeof(Event), pass ? "true" : "false");
    std::fclose(out);
    std::printf("wrote BENCH_event_hotpath.json\n");
  }
  return pass ? 0 : 1;
}
