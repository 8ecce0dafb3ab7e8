// Round-synchronization microbenchmark: flat barrier + CAS min-reduction vs
// the combining-tree barrier with the fused reduction, across party counts
// and placement policies.
//
// Each generation models one kernel round boundary. The flat protocol is what
// the round kernels shipped with before the tree: every party CASes its
// partial minimum into one AtomicTimeMin line, crosses a SpinBarrier so the
// coordinator can read the reduced value, then crosses it again so the
// coordinator's Reset() cannot race the next generation's updates — two full
// crossings plus a contended CAS line per round. The tree protocol is a
// single CombiningBarrier::Arrive carrying {min, count, flags}; the release
// broadcast publishes the reduced values, so there is no second crossing and
// no global CAS line at all.
//
// Every generation's reduced minimum is checked against a serially computed
// reference on both paths; a mismatch fails the bench (exit 1). Timings are
// reported for whatever machine this runs on. Rows whose parties exceed the
// host's cores measure futex scheduling more than barrier structure: there
// the tree's waiters park at once (spin_wait.h), and
// oversubscribed_tree_over_flat reports the worst tree/flat ratio among such
// rows so a gate can catch a tree that spins when it should park. The
// placement sweep runs at the largest party count whose waiters spin (one
// party fewer than the cores, at most 16), so it compares placements rather
// than wake-up latencies. Each sweep row alternates flat and tree over
// kBatches batches and reports each side's median batch, so a shift in host
// load between the two measurements does not show up as a ratio.
//
// With --trace=PATH, additionally runs a small traced Unison simulation
// (k=4 fat-tree, 4 workers) and writes its run trace to PATH so CI can
// validate the barrier_ns/parked fields end to end with a real JSON parser.
//
// Emits BENCH_round_sync.json.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/barrier_sync.h"
#include "bench/bench_util.h"
#include "src/kernel/engine/cpu_topology.h"
#include "src/sched/combining_barrier.h"

using namespace unison;
using namespace unison::bench;

namespace {

constexpr uint32_t kBatches = 5;

// Deterministic per-(generation, party) contribution; mixes well so the
// minimum lands on a different party every generation.
int64_t Contrib(uint32_t gen, uint32_t party) {
  uint64_t x = (static_cast<uint64_t>(gen) << 20) ^ (party * 2654435761u);
  x ^= x >> 15;
  x *= 0x9E3779B97F4A7C15ull;
  x ^= x >> 32;
  return static_cast<int64_t>(x % 1000000007);
}

std::vector<int64_t> ExpectedMins(uint32_t parties, uint32_t gens) {
  std::vector<int64_t> expected(gens);
  for (uint32_t gen = 0; gen < gens; ++gen) {
    int64_t m = INT64_MAX;
    for (uint32_t p = 0; p < parties; ++p) {
      m = std::min(m, Contrib(gen, p));
    }
    expected[gen] = m;
  }
  return expected;
}

struct SyncResult {
  double ns_per_gen = 0;
  uint64_t mismatches = 0;
  uint64_t parks = 0;  // Tree only.
};

// Spawns parties-1 helper threads (party 0 is the caller, as in the kernels),
// optionally pinning party p to pin_order[p % size]. Times the caller's loop.
// A pinned caller is widened back to `all_cpus` afterwards, so one row's
// placement never reaches the next.
template <typename Body>
SyncResult RunParties(uint32_t parties, uint32_t gens,
                      const std::vector<uint32_t>& pin_order,
                      const std::vector<uint32_t>& all_cpus, const Body& body) {
  std::vector<std::thread> threads;
  std::vector<uint64_t> mismatches(parties, 0);
  for (uint32_t p = 1; p < parties; ++p) {
    threads.emplace_back([&, p] {
      if (!pin_order.empty()) {
        PinCurrentThreadToCpu(pin_order[p % pin_order.size()]);
      }
      mismatches[p] = body(p);
    });
  }
  if (!pin_order.empty()) {
    PinCurrentThreadToCpu(pin_order[0]);
  }
  const uint64_t t0 = Profiler::NowNs();
  mismatches[0] = body(0);
  const uint64_t dt = Profiler::NowNs() - t0;
  for (auto& t : threads) {
    t.join();
  }
  if (!pin_order.empty()) {
    PinCurrentThreadToCpus(all_cpus);
  }
  SyncResult out;
  out.ns_per_gen = static_cast<double>(dt) / static_cast<double>(gens);
  for (uint64_t m : mismatches) {
    out.mismatches += m;
  }
  return out;
}

SyncResult RunFlat(uint32_t parties, uint32_t gens) {
  const std::vector<int64_t> expected = ExpectedMins(parties, gens);
  SpinBarrier barrier(parties);
  AtomicTimeMin min;
  min.Reset();
  return RunParties(parties, gens, {}, {}, [&](uint32_t p) -> uint64_t {
    uint64_t bad = 0;
    for (uint32_t gen = 0; gen < gens; ++gen) {
      min.Update(Contrib(gen, p));
      barrier.Arrive();  // Crossing 1: all updates are in.
      if (p == 0) {
        bad += min.Get() != expected[gen] ? 1 : 0;
        min.Reset();
      }
      barrier.Arrive();  // Crossing 2: Reset cannot race gen+1's updates.
    }
    return bad;
  });
}

SyncResult RunTree(uint32_t parties, uint32_t gens,
                   const std::vector<uint32_t>& pin_order = {},
                   const std::vector<uint32_t>& all_cpus = {}) {
  const std::vector<int64_t> expected = ExpectedMins(parties, gens);
  CombiningBarrier barrier(parties);
  SyncResult out = RunParties(
      parties, gens, pin_order, all_cpus, [&](uint32_t p) -> uint64_t {
        uint64_t bad = 0;
        for (uint32_t gen = 0; gen < gens; ++gen) {
          barrier.Arrive(p, Contrib(gen, p), 1, 0);
          // Every party may read the reduced values, not just the
          // coordinator — they stay valid until this party's next arrival.
          bad += barrier.reduced_min() != expected[gen] ? 1 : 0;
          bad += barrier.reduced_count() != parties ? 1 : 0;
        }
        return bad;
      });
  out.parks = barrier.parks();
  return out;
}

void RunTracedSimulation(const std::string& path) {
  SimConfig cfg;
  cfg.kernel.type = KernelType::kUnison;
  cfg.kernel.threads = 4;
  cfg.seed = 1;
  cfg.trace = true;
  Network net(cfg);
  FatTreeTopo topo = BuildFatTree(net, 4, 10000000000ULL, Time::Microseconds(3));
  net.Finalize();
  GeneratePermutation(net, topo.hosts, 50000, Time::Zero());
  net.Run(Time::Milliseconds(1));
  if (net.run_trace().WriteJsonFile(path) &&
      net.run_trace().WriteCsvFile(path + ".csv")) {
    std::printf("[trace] wrote %s (+.csv)\n", path.c_str());
  } else {
    std::fprintf(stderr, "[trace] FAILED to write %s\n", path.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = HasFlag(argc, argv, "--quick");
  const std::string gens_arg =
      GetOpt(argc, argv, "--gens", quick ? "2000" : "20000");
  const uint32_t gens = static_cast<uint32_t>(std::stoul(gens_arg));
  const std::string trace_path = GetOpt(argc, argv, "--trace", "");

  const CpuTopology topo = CpuTopology::Detect();
  const size_t cores = topo.cpus.size();
  std::vector<uint32_t> all_cpus;
  for (const CpuTopology::Cpu& c : topo.cpus) {
    all_cpus.push_back(c.id);
  }
  std::printf("Round synchronization: flat SpinBarrier+AtomicTimeMin (2 "
              "crossings + CAS line) vs\ncombining tree (1 fused crossing), "
              "%u generations per config, %zu cores visible\n\n",
              gens, cores);

  const std::vector<uint32_t> party_counts = {1, 2, 4, 8, 16};
  struct Row {
    uint32_t parties;
    SyncResult flat;
    SyncResult tree;
  };
  std::vector<Row> rows;
  uint64_t mismatches = 0;
  // Worst tree/flat time ratio over the rows whose parties exceed the cores
  // (0 when none does): a tree that spins where it should park shows here.
  double oversubscribed_ratio = 0;
  Table t({"parties", "flat ns/gen", "tree ns/gen", "flat/tree", "tree parks"});
  for (const uint32_t parties : party_counts) {
    Row row{parties, {}, {}};
    std::vector<double> flat_ns;
    std::vector<double> tree_ns;
    for (uint32_t b = 0; b < kBatches; ++b) {
      const SyncResult flat = RunFlat(parties, gens / kBatches);
      const SyncResult tree = RunTree(parties, gens / kBatches);
      flat_ns.push_back(flat.ns_per_gen);
      tree_ns.push_back(tree.ns_per_gen);
      row.flat.mismatches += flat.mismatches;
      row.tree.mismatches += tree.mismatches;
      row.tree.parks += tree.parks;
    }
    std::nth_element(flat_ns.begin(), flat_ns.begin() + kBatches / 2,
                     flat_ns.end());
    std::nth_element(tree_ns.begin(), tree_ns.begin() + kBatches / 2,
                     tree_ns.end());
    row.flat.ns_per_gen = flat_ns[kBatches / 2];
    row.tree.ns_per_gen = tree_ns[kBatches / 2];
    mismatches += row.flat.mismatches + row.tree.mismatches;
    rows.push_back(row);
    if (parties > cores && row.flat.ns_per_gen > 0) {
      oversubscribed_ratio = std::max(
          oversubscribed_ratio, row.tree.ns_per_gen / row.flat.ns_per_gen);
    }
    t.Row({Fmt("%u", parties), Fmt("%.0f", row.flat.ns_per_gen),
           Fmt("%.0f", row.tree.ns_per_gen),
           Fmt("%.2fx", row.tree.ns_per_gen == 0
                            ? 0.0
                            : row.flat.ns_per_gen / row.tree.ns_per_gen),
           Fmt("%llu", static_cast<unsigned long long>(row.tree.parks))});
  }
  t.Print();

  // Placement policies, tree barrier at the largest party count whose
  // waiters spin (at most the largest swept count, at least 2): with more,
  // every crossing would time futex wake-ups, whatever the placement. With
  // one visible core every policy degenerates to the same pin, so the rows
  // measure scheduler noise, not placement — the JSON says so explicitly
  // (affinity_degenerate) instead of letting consumers read three identical
  // policies as a null result.
  const uint32_t aff_parties = static_cast<uint32_t>(std::clamp<size_t>(
      cores > 0 ? cores - 1 : 0, 2, party_counts.back()));
  const bool affinity_degenerate = cores < 2;
  std::printf("\nPlacement policies (tree, %u parties)%s:\n\n", aff_parties,
              affinity_degenerate
                  ? " — DEGENERATE: one visible core, every policy is the same pin"
                  : "");
  struct AffRow {
    const char* name;
    SyncResult res;
  };
  std::vector<AffRow> aff_rows;
  Table ta({"policy", "ns/gen", "parks"});
  for (const AffinityPolicy policy :
       {AffinityPolicy::kNone, AffinityPolicy::kCompact,
        AffinityPolicy::kScatter}) {
    const SyncResult res =
        RunTree(aff_parties, gens, topo.PlacementOrder(policy), all_cpus);
    mismatches += res.mismatches;
    aff_rows.push_back(AffRow{AffinityPolicyName(policy), res});
    ta.Row({AffinityPolicyName(policy), Fmt("%.0f", res.ns_per_gen),
            Fmt("%llu", static_cast<unsigned long long>(res.parks))});
  }
  ta.Print();

  const bool pass = mismatches == 0;
  std::printf("\n%s: %llu reduction mismatches across all configs "
              "(expected 0)\n",
              pass ? "PASS" : "FAIL",
              static_cast<unsigned long long>(mismatches));
  if (party_counts.back() > cores) {
    std::printf("note: %zu-core host — rows with more parties than cores "
                "measure futex scheduling, not barrier structure (worst "
                "tree/flat there: %.2fx)\n",
                cores, oversubscribed_ratio);
  }

  FILE* out = std::fopen("BENCH_round_sync.json", "w");
  if (out != nullptr) {
    std::fprintf(out,
                 "{\n"
                 "  \"workload\": \"round boundary: barrier + min-reduction\",\n"
                 "  \"generations\": %u,\n"
                 "  \"host_cores\": %zu,\n"
                 "  \"sweep\": [",
                 gens, cores);
    for (size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      std::fprintf(out,
                   "%s\n    {\"parties\": %u, \"flat_ns_per_gen\": %.1f, "
                   "\"tree_ns_per_gen\": %.1f, \"tree_parks\": %llu}",
                   i == 0 ? "" : ",", r.parties, r.flat.ns_per_gen,
                   r.tree.ns_per_gen,
                   static_cast<unsigned long long>(r.tree.parks));
    }
    std::fprintf(out,
                 "\n  ],\n"
                 "  \"oversubscribed_tree_over_flat\": %.3f,\n"
                 "  \"affinity_parties\": %u,\n"
                 "  \"affinity\": [",
                 oversubscribed_ratio, aff_parties);
    for (size_t i = 0; i < aff_rows.size(); ++i) {
      std::fprintf(out,
                   "%s\n    {\"policy\": \"%s\", \"ns_per_gen\": %.1f, "
                   "\"parks\": %llu}",
                   i == 0 ? "" : ",", aff_rows[i].name,
                   aff_rows[i].res.ns_per_gen,
                   static_cast<unsigned long long>(aff_rows[i].res.parks));
    }
    std::fprintf(out,
                 "\n  ],\n"
                 "  \"affinity_degenerate\": %s,\n"
                 "  \"mismatches\": %llu,\n"
                 "  \"pass\": %s\n"
                 "}\n",
                 affinity_degenerate ? "true" : "false",
                 static_cast<unsigned long long>(mismatches),
                 pass ? "true" : "false");
    std::fclose(out);
    std::printf("wrote BENCH_round_sync.json\n");
  }

  if (!trace_path.empty()) {
    RunTracedSimulation(trace_path);
  }
  return pass ? 0 : 1;
}
