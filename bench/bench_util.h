// Shared harness pieces for the per-figure/table benches.
//
// Every bench prints the rows/series of its paper counterpart as an aligned
// text table. Parallel wall times come from the virtual-time cost model fed
// by an instrumented single-worker run (see DESIGN.md §2 — this host has one
// CPU core); real-thread runs are used wherever the claim is about
// correctness or determinism rather than speed.
#ifndef UNISON_BENCH_BENCH_UTIL_H_
#define UNISON_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "src/unison.h"

namespace unison {
namespace bench {

// Per-round synchronization overheads used by the cost model, calibrated to
// the implementation classes the paper profiles: an MPI barrier/allreduce
// across ranks costs tens of microseconds, null-message churn a few, and
// Unison's atomic in-process barrier about one.
inline constexpr uint64_t kBarrierSyncOverheadNs = 5000;
inline constexpr uint64_t kNullMsgOverheadNs = 2000;
inline constexpr uint64_t kUnisonRoundOverheadNs = 1000;

inline bool HasFlag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) {
      return true;
    }
  }
  return false;
}

inline std::string GetOpt(int argc, char** argv, const char* key,
                          const std::string& fallback) {
  const size_t len = std::strlen(key);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], key, len) == 0 && argv[i][len] == '=') {
      return std::string(argv[i] + len + 1);
    }
  }
  return fallback;
}

// Run-trace export knob shared by the benches: when set (from --trace=PATH),
// every InstrumentedRun enables the kernel run trace and dumps it as JSON —
// the machine-readable sibling of the BENCH_*.json artifacts. Benches with
// several instrumented passes get one file per pass instead of each pass
// clobbering the last: the first pass writes exactly PATH (what CI and
// scripts consume), pass N > 0 writes PATH.pass<N>.json, and every JSON file
// gets a .csv sibling of the same stem.
inline std::string g_trace_path;  // Empty = tracing off.
inline uint32_t g_trace_pass = 0;  // Instrumented passes completed so far.

inline void SetTraceFromArgs(int argc, char** argv) {
  g_trace_path = GetOpt(argc, argv, "--trace", "");
  g_trace_pass = 0;
}

// Path for the next instrumented pass's JSON trace, advancing the counter.
inline std::string NextTracePassPath() {
  const uint32_t pass = g_trace_pass++;
  if (pass == 0) {
    return g_trace_path;
  }
  return g_trace_path + ".pass" + std::to_string(pass) + ".json";
}

inline std::string Fmt(const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return buf;
}

// Aligned text table.
class Table {
 public:
  explicit Table(std::vector<std::string> header) { rows_.push_back(std::move(header)); }

  void Row(std::vector<std::string> cells) { rows_.push_back(std::move(cells)); }

  void Print() const {
    std::vector<size_t> width;
    for (const auto& row : rows_) {
      if (width.size() < row.size()) {
        width.resize(row.size(), 0);
      }
      for (size_t i = 0; i < row.size(); ++i) {
        width[i] = std::max(width[i], row[i].size());
      }
    }
    for (size_t r = 0; r < rows_.size(); ++r) {
      std::string line = "  ";
      for (size_t i = 0; i < rows_[r].size(); ++i) {
        std::string cell = rows_[r][i];
        cell.resize(width[i], ' ');
        line += cell;
        line += "  ";
      }
      std::printf("%s\n", line.c_str());
      if (r == 0) {
        std::string rule = "  ";
        for (size_t i = 0; i < width.size(); ++i) {
          rule += std::string(width[i], '-') + "  ";
        }
        std::printf("%s\n", rule.c_str());
      }
    }
  }

 private:
  std::vector<std::vector<std::string>> rows_;
};

// Builds a network with `build`, runs it instrumented (Unison kernel, one
// worker, per-LP profiling) and returns the per-(round, LP) cost trace plus
// the structure the models need.
struct TraceResult {
  std::vector<LpRoundCost> trace;
  uint32_t num_lps = 0;
  uint64_t events = 0;
  uint64_t rounds = 0;
  double wall_seconds = 0;  // Wall time of the instrumented pass itself.
  std::vector<std::vector<uint32_t>> lp_neighbors;  // From cut edges.
};

inline TraceResult InstrumentedRun(SimConfig cfg,
                                   const std::function<void(Network&)>& build,
                                   Time stop) {
  cfg.kernel.type = KernelType::kUnison;
  cfg.kernel.threads = 1;
  cfg.profile_per_lp = true;
  cfg.trace = !g_trace_path.empty();
  Network net(cfg);
  build(net);
  net.Finalize();
  const uint64_t t0 = Profiler::NowNs();
  net.Run(stop);
  if (cfg.trace) {
    const std::string path = NextTracePassPath();
    if (net.run_trace().WriteJsonFile(path) &&
        net.run_trace().WriteCsvFile(path + ".csv")) {
      std::printf("[trace] wrote %s (+.csv)\n", path.c_str());
    } else {
      std::fprintf(stderr, "[trace] FAILED to write %s\n", path.c_str());
    }
  }
  TraceResult out;
  out.wall_seconds = static_cast<double>(Profiler::NowNs() - t0) * 1e-9;
  out.trace = net.run_trace().lp_rounds();
  out.num_lps = net.kernel().num_lps();
  out.events = net.kernel().processed_events();
  out.rounds = net.kernel().rounds();
  out.lp_neighbors.assign(out.num_lps, {});
  for (const CutEdge& e : net.partition().cut_edges) {
    out.lp_neighbors[e.a].push_back(e.b);
    out.lp_neighbors[e.b].push_back(e.a);
  }
  return out;
}

// Median of `v` (the upper middle for an even count); 0 when empty.
inline double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(v.size() / 2), v.end());
  return v[v.size() / 2];
}

// Wall-clock sequential DES reference.
inline double SequentialWallSeconds(SimConfig cfg,
                                    const std::function<void(Network&)>& build,
                                    Time stop, uint64_t* events = nullptr) {
  cfg.kernel.type = KernelType::kSequential;
  cfg.kernel.threads = 1;
  Network net(cfg);
  build(net);
  net.Finalize();
  const uint64_t t0 = Profiler::NowNs();
  net.Run(stop);
  const double s = static_cast<double>(Profiler::NowNs() - t0) * 1e-9;
  if (events != nullptr) {
    *events = net.kernel().processed_events();
  }
  return s;
}

// The recurring §3.2/§6 scenario: a k-ary fat-tree with web-search traffic
// and an incast knob. Applies the paper's symmetric pod partition when
// `manual` is set (for the baselines).
struct FatTreeScenario {
  uint32_t k = 8;
  uint64_t bps = 100000000000ULL;
  Time delay = Time::Microseconds(3);
  double load = 0.5;
  double incast_ratio = 0.0;
  Time duration = Time::Milliseconds(5);
  bool manual = false;
};

// DCN-appropriate TCP timers: 1ms minimum RTO keeps incast senders retrying
// (the stock 200ms WAN RTO would idle the whole simulation after one loss
// episode, which no DCN study uses).
inline void ApplyDcnTcp(SimConfig* cfg) {
  cfg->tcp.min_rto = Time::Milliseconds(1);
  cfg->tcp.initial_rto = Time::Milliseconds(1);
}

inline std::function<void(Network&)> FatTreeBuilder(const FatTreeScenario& sc) {
  return [sc](Network& net) {
    FatTreeTopo topo = BuildFatTree(net, sc.k, sc.bps, sc.delay);
    if (sc.manual) {
      net.SetManualPartition(sc.k, FatTreePodPartition(topo, net.num_nodes()));
    }
    net.Finalize();
    TrafficSpec traffic;
    traffic.hosts = topo.hosts;
    traffic.bisection_bps = topo.bisection_bps;
    traffic.load = sc.load;
    traffic.duration = sc.duration;
    traffic.incast_ratio = sc.incast_ratio;
    traffic.victim_index = 0;
    GenerateTraffic(net, traffic);
  };
}

// Identity rank map for models where each LP is its own rank.
inline std::vector<uint32_t> IdentityRanks(uint32_t n) {
  std::vector<uint32_t> r(n);
  for (uint32_t i = 0; i < n; ++i) {
    r[i] = i;
  }
  return r;
}

}  // namespace bench
}  // namespace unison

#endif  // UNISON_BENCH_BENCH_UTIL_H_
