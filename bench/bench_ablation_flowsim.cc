// Ablation: flow-level (fluid, max-min fair) estimation vs packet-level DES
// — the "mathematical modeling" estimator class of the paper's related work
// (§8). Quantifies both sides of the trade: the fluid model is orders of
// magnitude faster but, treating the network as a black box, it misses
// slow start, queueing delay and retransmissions — worst on short flows.
#include "bench/bench_util.h"
#include "bench/flow_level.h"
#include "src/unison.h"

using namespace unison;
using namespace unison::bench;

int main(int argc, char** argv) {
  const bool full = HasFlag(argc, argv, "--full");
  const Time sim = full ? Time::Milliseconds(50) : Time::Milliseconds(20);

  SimConfig cfg;
  cfg.seed = 97;
  cfg.kernel.type = KernelType::kSequential;
  cfg.tcp.dctcp = true;  // High-utilization transport: fluid's best case.
  cfg.tcp.min_rto = Time::Milliseconds(1);
  cfg.tcp.initial_rto = Time::Milliseconds(1);
  cfg.queue.kind = QueueConfig::Kind::kDctcp;
  cfg.queue.red_min_th = 65 * 1500;

  Network net(cfg);
  FatTreeTopo topo = BuildFatTree(net, 4, 10000000000ULL, Time::Microseconds(3));
  net.Finalize();
  TrafficSpec traffic;
  traffic.hosts = topo.hosts;
  traffic.bisection_bps = topo.bisection_bps;
  traffic.load = 0.4;
  traffic.duration = sim;
  GenerateTraffic(net, traffic);

  // Fluid pass over the exact same flows and paths.
  std::vector<FluidFlow> flows;
  net.flow_monitor().ForEachFlow([&flows](const FlowRecord& f) {
    flows.push_back(FluidFlow{f.src, f.dst, f.bytes, f.start});
  });
  FlowLevelSimulator fluid(net);
  const uint64_t f0 = Profiler::NowNs();
  const auto est = fluid.Run(flows, sim + Time::Seconds(1));
  const double fluid_s = static_cast<double>(Profiler::NowNs() - f0) * 1e-9;

  // Packet-level ground truth.
  const uint64_t p0 = Profiler::NowNs();
  net.Run(sim + Time::Seconds(1));
  const double packet_s = static_cast<double>(Profiler::NowNs() - p0) * 1e-9;

  // Per-size-class FCT error of the fluid estimate.
  struct Bucket {
    const char* name;
    uint64_t lo, hi;
    double err_sum = 0;
    uint64_t n = 0;
  };
  Bucket buckets[] = {{"short (<100KB)", 0, 100000, 0, 0},
                      {"medium (100KB-1MB)", 100000, 1000000, 0, 0},
                      {"long (>1MB)", 1000000, UINT64_MAX, 0, 0}};
  uint64_t both = 0;
  for (size_t i = 0; i < flows.size(); ++i) {
    const FlowRecord& real = net.flow_monitor().flow(static_cast<uint32_t>(i));
    if (!real.completed || !est[i].completed || real.fct.ps() == 0) {
      continue;
    }
    ++both;
    for (Bucket& b : buckets) {
      if (flows[i].bytes >= b.lo && flows[i].bytes < b.hi) {
        b.err_sum +=
            std::abs(est[i].fct.ToSeconds() - real.fct.ToSeconds()) / real.fct.ToSeconds();
        ++b.n;
      }
    }
  }

  std::printf("Ablation — flow-level (max-min fluid) vs packet-level DES\n"
              "(k=4 fat-tree, DCTCP, %zu flows; %lu compared)\n\n",
              flows.size(), (unsigned long)both);
  Table t({"flow class", "flows", "mean |FCT error|"});
  for (const Bucket& b : buckets) {
    t.Row({b.name, Fmt("%lu", (unsigned long)b.n),
           b.n == 0 ? "-" : Fmt("%.0f%%", 100 * b.err_sum / static_cast<double>(b.n))});
  }
  t.Print();
  std::printf("\nruntime: fluid %.4fs vs packet-level %.3fs (%.0fx faster)\n", fluid_s,
              packet_s, packet_s / std::max(1e-9, fluid_s));
  std::printf("\nShape check: the fluid model is dramatically faster but its error\n"
              "concentrates on short flows (no slow start, no queueing) — why\n"
              "packet-level DES remains the ground truth the paper accelerates.\n");
  return 0;
}
