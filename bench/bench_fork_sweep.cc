// Warm-prefix fork sweep bench: the economics of Session::Snapshot/Fork for
// what-if scenario sweeps, plus the transparency anchor that makes the
// numbers trustworthy.
//
// A sweep of N branches that differ only after t_snap pays the [0, t_snap)
// warm-up once when forked from a snapshot, versus N times when each branch
// is run cold from scratch. This bench runs both ways on the same workload
// (k=4 fat tree, permutation start-up burst + streaming Poisson load) and
// reports sweep speedup, per-fork restore latency, and snapshot size. The
// speedup is the median over repetitions that alternate which sweep runs
// first, so one slow stretch of the host cannot skew the ratio.
//
// Correctness anchor: every forked branch must finish with the exact
// FlowMonitor fingerprint and session event count of a cold run to the same
// horizon — fork transparency, the contract session_test enforces across all
// five kernels; here it gates the perf claim on the kernel being measured.
//
// Emits BENCH_fork_sweep.json.
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "src/net/session.h"
#include "src/traffic/flow_source.h"
#include "src/traffic/generator.h"
#include "src/topo/fat_tree.h"

using namespace unison;
using namespace unison::bench;

namespace {

constexpr uint32_t kFatTreeK = 4;
constexpr uint64_t kLinkBps = 10000000000ULL;
constexpr double kLoad = 0.5;
constexpr int kHorizonMs = 5;  // Every branch runs to this simulated time.
constexpr int kSnapMs = 3;     // Shared warm prefix.

std::unique_ptr<Network> BuildWorkload() {
  SimConfig cfg;
  cfg.kernel.type = KernelType::kSequential;
  cfg.seed = 1;
  auto net = std::make_unique<Network>(cfg);
  FatTreeTopo topo = BuildFatTree(*net, kFatTreeK, kLinkBps, Time::Microseconds(3));
  net->Finalize();
  GeneratePermutation(*net, topo.hosts, 200 * 1024, Time::Zero());
  TrafficSpec traffic;
  traffic.hosts = topo.hosts;
  traffic.bisection_bps = topo.bisection_bps;
  traffic.load = kLoad;
  traffic.duration = Time::Milliseconds(kHorizonMs);
  InstallFlowSources(*net, traffic);
  return net;
}

struct BranchResult {
  uint64_t fingerprint = 0;
  uint64_t events = 0;
};

BranchResult Finish(Network& net) {
  net.Run(Time::Milliseconds(kHorizonMs));
  BranchResult out;
  out.fingerprint = net.flow_monitor().Fingerprint();
  out.events = net.kernel().session_events();
  return out;
}

struct Sweep {
  uint64_t ns = 0;
  bool match = true;  // Every branch ended as the cold run did.
  BranchResult result;
  size_t snapshot_bytes = 0;
  uint64_t snapshot_ns = 0;
  uint64_t fork_restore_ns = 0;  // Summed over branches.
};

// Every branch pays the full horizon from scratch.
Sweep ColdSweep(int branches) {
  Sweep out;
  const uint64_t t0 = Profiler::NowNs();
  for (int b = 0; b < branches; ++b) {
    std::unique_ptr<Network> net = BuildWorkload();
    out.result = Finish(*net);
  }
  out.ns = Profiler::NowNs() - t0;
  return out;
}

// One prefix run and snapshot, then a fork per branch; each branch must end
// as `cold` did.
Sweep WarmSweep(int branches, const BranchResult& cold) {
  Sweep out;
  const uint64_t t0 = Profiler::NowNs();
  std::unique_ptr<Network> parent = BuildWorkload();
  parent->Run(Time::Milliseconds(kSnapMs));
  Session session(parent.get());
  const uint64_t snap_t0 = Profiler::NowNs();
  const SessionSnapshot snap = session.Snapshot();
  out.snapshot_ns = Profiler::NowNs() - snap_t0;
  out.snapshot_bytes = snap.size_bytes();
  for (int b = 0; b < branches; ++b) {
    const uint64_t f0 = Profiler::NowNs();
    std::unique_ptr<Network> branch = session.Fork(snap);
    out.fork_restore_ns += Profiler::NowNs() - f0;
    out.result = Finish(*branch);
    out.match = out.match && out.result.fingerprint == cold.fingerprint &&
                out.result.events == cold.events;
  }
  out.ns = Profiler::NowNs() - t0;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = HasFlag(argc, argv, "--quick");
  const int branches = quick ? 2 : 4;
  constexpr int kRepetitions = 5;

  std::printf("Fork sweep: %d branches sharing a %dms warm prefix of a %dms "
              "horizon vs %d cold runs (k=%u fat tree, load %.1f), median of "
              "%d alternating repetitions\n\n",
              branches, kSnapMs, kHorizonMs, branches, kFatTreeK, kLoad,
              kRepetitions);

  // The first cold sweep also fixes the reference every fork must match.
  const BranchResult reference = ColdSweep(1).result;
  std::vector<double> cold_ns, warm_ns, speedups, snapshot_ns, fork_latency_ns;
  bool fingerprints_match = true;
  size_t snapshot_bytes = 0;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    Sweep cold;
    Sweep warm;
    if (rep % 2 == 0) {
      cold = ColdSweep(branches);
      warm = WarmSweep(branches, reference);
    } else {
      warm = WarmSweep(branches, reference);
      cold = ColdSweep(branches);
    }
    fingerprints_match = fingerprints_match && warm.match &&
                         cold.result.fingerprint == reference.fingerprint &&
                         cold.result.events == reference.events;
    snapshot_bytes = warm.snapshot_bytes;
    cold_ns.push_back(static_cast<double>(cold.ns));
    warm_ns.push_back(static_cast<double>(warm.ns));
    speedups.push_back(warm.ns == 0 ? 0.0
                                    : static_cast<double>(cold.ns) /
                                          static_cast<double>(warm.ns));
    snapshot_ns.push_back(static_cast<double>(warm.snapshot_ns));
    fork_latency_ns.push_back(static_cast<double>(warm.fork_restore_ns) / branches);
  }
  const double speedup = Median(speedups);
  const uint64_t cold_median_ns = static_cast<uint64_t>(Median(cold_ns));
  const uint64_t warm_median_ns = static_cast<uint64_t>(Median(warm_ns));
  const uint64_t snapshot_median_ns = static_cast<uint64_t>(Median(snapshot_ns));
  const uint64_t fork_latency_median_ns =
      static_cast<uint64_t>(Median(fork_latency_ns));

  Table table({"mode", "total ms", "per branch ms"});
  table.Row({"cold x" + std::to_string(branches),
             Fmt("%.2f", cold_median_ns * 1e-6),
             Fmt("%.2f", cold_median_ns * 1e-6 / branches)});
  table.Row({"warm sweep", Fmt("%.2f", warm_median_ns * 1e-6),
             Fmt("%.2f", warm_median_ns * 1e-6 / branches)});
  table.Print();

  std::printf("\nsnapshot: %zu bytes, captured in %.2f ms; fork restore mean "
              "%.2f ms; fingerprints %s\n",
              snapshot_bytes, snapshot_median_ns * 1e-6,
              fork_latency_median_ns * 1e-6,
              fingerprints_match ? "match" : "MISMATCH");

  const bool pass = fingerprints_match && snapshot_bytes > 0 && speedup > 1.0;
  std::printf("%s: sweep speedup %.2fx (shared prefix %d/%d of the horizon)\n",
              pass ? "PASS" : "FAIL", speedup, kSnapMs, kHorizonMs);

  FILE* out = std::fopen("BENCH_fork_sweep.json", "w");
  if (out != nullptr) {
    std::fprintf(out,
                 "{\n"
                 "  \"workload\": \"fork sweep vs cold scenario sweep\",\n"
                 "  \"fat_tree_k\": %u,\n"
                 "  \"load\": %.2f,\n"
                 "  \"quick\": %s,\n"
                 "  \"branches\": %d,\n"
                 "  \"repetitions\": %d,\n"
                 "  \"horizon_ms\": %d,\n"
                 "  \"snapshot_at_ms\": %d,\n"
                 "  \"cold_ns\": %llu,\n"
                 "  \"warm_ns\": %llu,\n"
                 "  \"snapshot_ns\": %llu,\n"
                 "  \"fork_latency_ns\": %llu,\n"
                 "  \"snapshot_bytes\": %zu,\n"
                 "  \"speedup\": %.3f,\n"
                 "  \"fingerprints_match\": %s,\n"
                 "  \"pass\": %s\n"
                 "}\n",
                 kFatTreeK, kLoad, quick ? "true" : "false", branches,
                 kRepetitions, kHorizonMs, kSnapMs,
                 static_cast<unsigned long long>(cold_median_ns),
                 static_cast<unsigned long long>(warm_median_ns),
                 static_cast<unsigned long long>(snapshot_median_ns),
                 static_cast<unsigned long long>(fork_latency_median_ns),
                 snapshot_bytes, speedup,
                 fingerprints_match ? "true" : "false", pass ? "true" : "false");
    std::fclose(out);
    std::printf("wrote BENCH_fork_sweep.json\n");
  }
  return pass ? 0 : 1;
}
