// Real-core benchmark workload runner: runs one named workload once, in this process,
// through the library's public API, and prints one JSON object on stdout.
//
//   perfbench_workload --workload=fattree-web --seed=1 [--kernel=sequential]
//                    [--trace --trace-out=PATH --spans-out=PATH]
//   perfbench_workload --micro --fel-depth=D --parties=P --seed=1
//
// perfbench/run.py launches one fresh process per measured run (so one
// Network's pinning, pools and globals never leak into the next
// measurement), compares each run's fingerprint and event count with a
// sequential-kernel run of the same workload and seed, and aggregates.
//
// Workloads (all on the unison kernel unless --kernel=sequential):
//   fattree-web     k=8 fat-tree, 100 Gb/s, 3 us links, streaming Poisson
//                   web-search flows at load 0.5, 2 threads, one Run().
//   fattree-incast  the same with incast_ratio 0.3 (victim host 0).
//   wan-sync        4-site WAN ring, one LP per site, 100 ns cut lookahead,
//                   2 threads pinned (affinity=compact), 50 us session
//                   windows, speculation off.
//   wan-spec        wan-sync with speculation=auto at a 50 us horizon, on
//                   1 thread.
//
// Untraced runs report end-to-end quantities (setup and run wall time, CPU
// time of the run, peak RSS). --trace turns on SimConfig::trace, records
// benchmark-side spans around each call into a layer, times a window
// checkpoint capture on the live network, and exports both the RunTrace JSON
// and the spans. --micro times the FEL and combining-barrier microloops.
#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "src/core/fel.h"
#include "src/core/inline_function.h"
#include "src/kernel/lp.h"
#include "src/net/session.h"
#include "src/sched/combining_barrier.h"
#include "src/traffic/flow_source.h"
#include "src/unison.h"

using namespace unison;

namespace {

// --- Command line -----------------------------------------------------------

std::string GetOpt(int argc, char** argv, const char* key, const std::string& fallback) {
  const size_t len = std::strlen(key);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], key, len) == 0 && argv[i][len] == '=') {
      return argv[i] + len + 1;
    }
  }
  return fallback;
}

bool HasFlag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) {
      return true;
    }
  }
  return false;
}

[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "perfbench_workload: %s\n", msg.c_str());
  std::exit(2);
}

// --- Benchmark-side spans ---------------------------------------------------

// Spans recorded around each call into a layer: name, start, end and the
// span that caused it. Kept in memory and written out when the run ends.
class Spans {
 public:
  static constexpr int32_t kNoParent = -1;

  void Open(const char* name) {
    const int32_t parent = stack_.empty() ? kNoParent : stack_.back();
    spans_.push_back({name, Profiler::NowNs(), 0, parent});
    stack_.push_back(static_cast<int32_t>(spans_.size() - 1));
  }
  // Returns the closed span's duration in ns.
  uint64_t Close() {
    Span& s = spans_[stack_.back()];
    stack_.pop_back();
    s.end_ns = Profiler::NowNs();
    return s.end_ns - s.start_ns;
  }

  bool WriteJson(const std::string& path) const {
    std::ofstream out(path);
    if (!out) {
      return false;
    }
    const uint64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    out << "[\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "  {\"id\": " << i << ", \"name\": \"" << s.name
          << "\", \"start_ns\": " << (s.start_ns - origin)
          << ", \"end_ns\": " << (s.end_ns - origin) << ", \"parent\": " << s.parent
          << "}" << (i + 1 < spans_.size() ? "," : "") << "\n";
    }
    out << "]\n";
    return static_cast<bool>(out);
  }

 private:
  struct Span {
    const char* name;
    uint64_t start_ns;
    uint64_t end_ns;
    int32_t parent;
  };
  std::vector<Span> spans_;
  std::vector<int32_t> stack_;
};

// Closes the innermost open span when it goes out of scope.
class SpanScope {
 public:
  SpanScope(Spans* spans, const char* name) : spans_(spans) { spans_->Open(name); }
  ~SpanScope() { spans_->Close(); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Spans* spans_;
};

// --- Host counters ----------------------------------------------------------

struct Usage {
  double cpu_s = 0;
  uint64_t vol_cs = 0;
  uint64_t invol_cs = 0;
};

Usage ProcessUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
  u.vol_cs = static_cast<uint64_t>(ru.ru_nvcsw);
  u.invol_cs = static_cast<uint64_t>(ru.ru_nivcsw);
  return u;
}

// High-water resident set of this process, in MiB (VmHWM).
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// --- Workloads --------------------------------------------------------------

constexpr uint64_t kFatTreeBps = 100'000'000'000ULL;
constexpr uint32_t kFatTreeK = 8;
constexpr int64_t kFatTreeMs = 3;

constexpr uint32_t kSites = 4;
constexpr uint32_t kHostsPerSite = 8;
constexpr uint64_t kWanBps = 10'000'000'000ULL;
constexpr int64_t kWanMs = 20;
constexpr int64_t kWanWindowUs = 50;

struct Workload {
  bool wan = false;
  double incast_ratio = 0;
  bool speculation = false;
  uint32_t threads = 1;
  AffinityPolicy affinity = AffinityPolicy::kNone;
};

Workload ParseWorkload(const std::string& name) {
  Workload w;
  if (name == "fattree-web") {
    w.threads = 2;
  } else if (name == "fattree-incast") {
    w.threads = 2;
    w.incast_ratio = 0.3;
  } else if (name == "wan-sync") {
    // Pinned: unpinned, each barrier wake-up tended to land the woken
    // executor on the waker's CPU (~10k involuntary context switches per
    // 0.4 s run, none pinned), which doubled the run-to-run spread.
    w.wan = true;
    w.threads = 2;
    w.affinity = AffinityPolicy::kCompact;
  } else if (name == "wan-spec") {
    // One thread: at two, the serial checkpoint capture at every window
    // parks the other executor, and the run's wall time becomes futex
    // wake-up latency (~4.6 parks per round) rather than speculation work.
    w.wan = true;
    w.threads = 1;
    w.speculation = true;
  } else {
    Die("unknown workload '" + name + "'");
  }
  return w;
}

SimConfig MakeConfig(const Workload& w, uint64_t seed, bool sequential, bool trace) {
  SimConfig cfg;
  cfg.seed = seed;
  cfg.kernel.type = sequential ? KernelType::kSequential : KernelType::kUnison;
  cfg.kernel.threads = sequential ? 1 : w.threads;
  cfg.kernel.affinity = sequential ? AffinityPolicy::kNone : w.affinity;
  cfg.trace = trace;
  // Claim orders are O(#LP) per re-sort round; the benchmark reads only the
  // scalar per-round fields.
  cfg.trace_claim_order = false;
  if (w.wan) {
    cfg.partition = PartitionMode::kManual;
    if (w.speculation && !sequential) {
      cfg.speculation = SpeculationMode::kAuto;
      cfg.tuning_config.spec_horizon_initial_ps = Time::Microseconds(kWanWindowUs).ps();
    }
  } else {
    // DCN TCP timers: a 1 ms minimum RTO keeps incast senders retrying.
    cfg.tcp.min_rto = Time::Milliseconds(1);
    cfg.tcp.initial_rto = Time::Milliseconds(1);
  }
  return cfg;
}

struct WanTopo {
  std::vector<NodeId> routers;
  std::vector<std::vector<NodeId>> site_hosts;
};

// One LP per site; the only cut edges are the 100 ns inter-site ring links,
// so every conservative round advances at most 100 ns.
WanTopo BuildWan(Network& net) {
  WanTopo wan;
  wan.site_hosts.resize(kSites);
  std::vector<LpId> lp_of_node;
  for (uint32_t s = 0; s < kSites; ++s) {
    const NodeId router = net.AddNode();
    lp_of_node.push_back(s);
    wan.routers.push_back(router);
    for (uint32_t h = 0; h < kHostsPerSite; ++h) {
      const NodeId host = net.AddNode();
      lp_of_node.push_back(s);
      net.AddLink(host, router, kWanBps, Time::Microseconds(1));
      wan.site_hosts[s].push_back(host);
    }
  }
  for (uint32_t s = 0; s < kSites; ++s) {
    net.AddLink(wan.routers[s], wan.routers[(s + 1) % kSites], kWanBps,
                Time::Nanoseconds(100));
  }
  net.SetManualPartition(kSites, std::move(lp_of_node));
  return wan;
}

// Intra-site bursts every 250 us keep every site busy; one inter-site flow
// per site every 1 ms is the sparse cross-LP traffic that makes speculative
// windows miss. Start offsets, sizes and intra-site destinations are drawn
// from the seed.
void InstallWanTraffic(Network& net, const WanTopo& wan, uint64_t seed) {
  Rng rng(seed, 0x5eed);
  const int64_t duration_ps = Time::Milliseconds(kWanMs).ps();
  const int64_t burst_ps = Time::Microseconds(250).ps();
  const int64_t cross_ps = Time::Milliseconds(1).ps();
  const int64_t spread_ps = Time::Microseconds(180).ps();
  FlowSpec flow;
  for (int64_t t = 0; t < duration_ps; t += burst_ps) {
    for (uint32_t s = 0; s < kSites; ++s) {
      const std::vector<NodeId>& hosts = wan.site_hosts[s];
      for (uint32_t h = 0; h < kHostsPerSite; ++h) {
        flow.src = hosts[h];
        flow.dst = hosts[(h + 1 + rng.NextU64Below(kHostsPerSite - 1)) % kHostsPerSite];
        flow.bytes = 32 * 1024 + rng.NextU64Below(64 * 1024);
        flow.start = Time::Picoseconds(t + static_cast<int64_t>(rng.NextU64Below(spread_ps)));
        InstallFlow(net, flow);
      }
    }
  }
  for (int64_t t = cross_ps / 2; t < duration_ps; t += cross_ps) {
    for (uint32_t s = 0; s < kSites; ++s) {
      flow.src = wan.site_hosts[s][0];
      flow.dst = wan.site_hosts[(s + 1) % kSites][0];
      flow.bytes = 8 * 1024 + rng.NextU64Below(16 * 1024);
      flow.start = Time::Picoseconds(t + static_cast<int64_t>(rng.NextU64Below(
                                             Time::Microseconds(100).ps())));
      InstallFlow(net, flow);
    }
  }
}

// Mean FEL depth over the partition's LPs (the public LP excluded).
double MeanFelDepth(Network& net) {
  const uint32_t n = net.kernel().num_lps();
  uint64_t total = 0;
  for (uint32_t i = 0; i < n; ++i) {
    total += net.kernel().lp(i)->fel().Size();
  }
  return n == 0 ? 0.0 : static_cast<double>(total) / n;
}

struct RunOut {
  uint64_t fingerprint = 0;
  uint64_t events = 0;
  uint64_t rounds = 0;
  uint32_t windows = 0;
  uint32_t lps = 0;
  size_t cut_edges = 0;
  double setup_s = 0;
  double topo_ms = 0;
  double finalize_ms = 0;
  double install_ms = 0;
  double run_s = 0;
  Usage run_usage;
  uint64_t closure_fallbacks = 0;
  double fel_depth = 0;
  double peak_rss_mb = 0;
  // Traced runs only.
  RunSummary cumulative;
  double imbalance = 0;
  double barrier_ns_per_round = 0;
  double parks_per_round = 0;
  double capture_us = 0;
  size_t checkpoint_bytes = 0;
  bool capture_ok = false;
};

RunOut RunWorkload(const Workload& w, uint64_t seed, bool sequential, bool trace,
                   const std::string& trace_out, Spans* spans) {
  RunOut out;
  SpanScope rep(spans, "rep");
  const uint64_t setup_t0 = Profiler::NowNs();
  spans->Open("setup");

  spans->Open("topo.build");
  Network net(MakeConfig(w, seed, sequential, trace));
  WanTopo wan;
  FatTreeTopo fat;
  if (w.wan) {
    wan = BuildWan(net);
  } else {
    fat = BuildFatTree(net, kFatTreeK, kFatTreeBps, Time::Microseconds(3));
  }
  out.topo_ms = spans->Close() * 1e-6;

  spans->Open("net.finalize");
  net.Finalize();
  out.finalize_ms = spans->Close() * 1e-6;

  spans->Open("traffic.install");
  if (w.wan) {
    InstallWanTraffic(net, wan, seed);
  } else {
    TrafficSpec traffic;
    traffic.hosts = fat.hosts;
    traffic.bisection_bps = fat.bisection_bps;
    traffic.load = 0.5;
    traffic.duration = Time::Milliseconds(kFatTreeMs);
    traffic.incast_ratio = w.incast_ratio;
    traffic.victim_index = 0;
    InstallFlowSources(net, traffic);
  }
  out.install_ms = spans->Close() * 1e-6;
  spans->Close();  // setup
  out.setup_s = static_cast<double>(Profiler::NowNs() - setup_t0) * 1e-9;
  out.lps = net.partition().num_lps;
  out.cut_edges = net.partition().cut_edges.size();

  // The measured run: the Run() calls only.
  const uint64_t fallbacks0 = InlineFunctionStats::alloc_fallbacks();
  spans->Open("run");
  const Usage u0 = ProcessUsage();
  const uint64_t run_t0 = Profiler::NowNs();
  if (w.wan) {
    const int64_t stop_ps = Time::Milliseconds(kWanMs).ps();
    const int64_t slice_ps = Time::Microseconds(kWanWindowUs).ps();
    for (int64_t t = slice_ps; t < stop_ps + slice_ps; t += slice_ps) {
      SpanScope s(spans, "kernel.run");
      net.Run(Time::Picoseconds(std::min(t, stop_ps)));
    }
  } else {
    SpanScope s(spans, "kernel.run");
    net.Run(Time::Milliseconds(kFatTreeMs));
  }
  out.run_s = static_cast<double>(Profiler::NowNs() - run_t0) * 1e-9;
  const Usage u1 = ProcessUsage();
  spans->Close();  // run
  out.run_usage.cpu_s = u1.cpu_s - u0.cpu_s;
  out.run_usage.vol_cs = u1.vol_cs - u0.vol_cs;
  out.run_usage.invol_cs = u1.invol_cs - u0.invol_cs;
  out.closure_fallbacks = InlineFunctionStats::alloc_fallbacks() - fallbacks0;

  {
    SpanScope s(spans, "check");
    out.fingerprint = net.flow_monitor().Fingerprint();
    out.events = net.kernel().session_events();
    out.rounds = net.kernel().session_rounds();
    out.windows = net.kernel().session_windows();
    out.fel_depth = MeanFelDepth(net);
  }

  if (trace) {
    const RunTrace& rt = net.run_trace();
    out.cumulative = rt.Cumulative();
    double imbalance_sum = 0;
    uint64_t imbalance_rounds = 0;
    double barrier_sum = 0;
    double parks_sum = 0;
    uint64_t records = 0;
    for (const WindowTraceSegment& seg : rt.segments()) {
      imbalance_sum += seg.summary.imbalance * static_cast<double>(seg.summary.rounds);
      imbalance_rounds += seg.summary.rounds;
      for (const RoundTraceRecord& r : seg.records) {
        barrier_sum += static_cast<double>(r.barrier_ns);
        parks_sum += static_cast<double>(r.parked);
      }
      records += seg.records.size();
    }
    out.imbalance = imbalance_rounds == 0 ? 0 : imbalance_sum / imbalance_rounds;
    out.barrier_ns_per_round = records == 0 ? 0 : barrier_sum / records;
    out.parks_per_round = records == 0 ? 0 : parks_sum / records;

    // A window checkpoint capture on the live network at this boundary,
    // timed from outside; the median of a few captures.
    SpanScope s(spans, "spec.capture");
    std::vector<uint8_t> buf;
    std::vector<double> us;
    out.capture_ok = true;
    for (int i = 0; i < 5 && out.capture_ok; ++i) {
      const uint64_t t0 = Profiler::NowNs();
      out.capture_ok = CaptureWindowCheckpoint(net, &buf);
      us.push_back(static_cast<double>(Profiler::NowNs() - t0) * 1e-3);
    }
    out.capture_us = out.capture_ok ? Median(us) : 0;
    out.checkpoint_bytes = out.capture_ok ? buf.size() : 0;
  }
  if (trace && !trace_out.empty()) {
    SpanScope s(spans, "trace.export");
    if (!net.run_trace().WriteJsonFile(trace_out)) {
      Die("cannot write " + trace_out);
    }
  }
  out.peak_rss_mb = PeakRssMb();
  return out;
}

// --- Microloops -------------------------------------------------------------

// FEL Push+Pop pairs at a fixed depth: each iteration pops the earliest event,
// runs its inline closure and pushes a successor a random delay later, so the
// queue stays at `depth`.
double FelPushPopNs(size_t depth, uint64_t seed) {
  constexpr size_t kOps = 1 << 18;
  constexpr int kBatches = 7;
  Rng rng(seed, 0xfe1);
  std::vector<int64_t> delays(4096);
  for (int64_t& d : delays) {
    d = 1000 + static_cast<int64_t>(rng.NextU64Below(10'000'000));
  }
  uint64_t fired = 0;
  uint64_t seq = 0;
  auto make = [&](int64_t ts) {
    Event ev;
    ev.key = EventKey{Time::Picoseconds(ts), Time::Zero(), 0, seq++};
    ev.node = 0;
    ev.fn = [&fired] { ++fired; };
    return ev;
  };
  FutureEventList fel;
  fel.Reserve(depth + 1);
  for (size_t i = 0; i < depth; ++i) {
    fel.Push(make(delays[i % delays.size()] * static_cast<int64_t>(i % 64 + 1)));
  }
  std::vector<double> ns;
  for (int b = 0; b < kBatches; ++b) {
    const uint64_t t0 = Profiler::NowNs();
    for (size_t i = 0; i < kOps; ++i) {
      Event ev = fel.Pop();
      ev.fn();
      fel.Push(make(ev.key.ts.ps() + delays[i & (delays.size() - 1)]));
    }
    ns.push_back(static_cast<double>(Profiler::NowNs() - t0) / kOps);
  }
  if (fired != kOps * kBatches) {
    Die("FEL microloop dispatched " + std::to_string(fired) + " events");
  }
  return Median(ns);
}

// Combining-barrier crossings with `parties` threads (the caller is party 0).
double BarrierCrossingNs(uint32_t parties) {
  constexpr uint32_t kCrossings = 20000;
  constexpr int kBatches = 7;
  CombiningBarrier barrier(parties);
  std::vector<std::thread> threads;
  for (uint32_t p = 1; p < parties; ++p) {
    threads.emplace_back([&barrier, p] {
      for (uint32_t i = 0; i < kCrossings * kBatches; ++i) {
        barrier.Arrive(p);
      }
    });
  }
  std::vector<double> ns;
  for (int b = 0; b < kBatches; ++b) {
    const uint64_t t0 = Profiler::NowNs();
    for (uint32_t i = 0; i < kCrossings; ++i) {
      barrier.Arrive(0);
    }
    ns.push_back(static_cast<double>(Profiler::NowNs() - t0) / kCrossings);
  }
  for (std::thread& t : threads) {
    t.join();
  }
  return Median(ns);
}

}  // namespace

int main(int argc, char** argv) {
  const uint64_t seed = std::strtoull(GetOpt(argc, argv, "--seed", "1").c_str(), nullptr, 10);

  if (HasFlag(argc, argv, "--micro")) {
    const long depth = std::strtol(GetOpt(argc, argv, "--fel-depth", "64").c_str(), nullptr, 10);
    const long parties = std::strtol(GetOpt(argc, argv, "--parties", "2").c_str(), nullptr, 10);
    if (depth < 1 || parties < 1 || parties > 64) {
      Die("--fel-depth must be >= 1 and --parties in [1, 64]");
    }
    std::printf("{\"fel_push_pop_ns\": %.6f, \"crossing_ns\": %.6f}\n",
                FelPushPopNs(static_cast<size_t>(depth), seed),
                BarrierCrossingNs(static_cast<uint32_t>(parties)));
    return 0;
  }

  const std::string name = GetOpt(argc, argv, "--workload", "");
  const Workload w = ParseWorkload(name);
  const std::string kernel = GetOpt(argc, argv, "--kernel", "unison");
  if (kernel != "unison" && kernel != "sequential") {
    Die("--kernel must be unison or sequential");
  }
  const bool sequential = kernel == "sequential";
  const bool trace = HasFlag(argc, argv, "--trace");

  Spans spans;
  const RunOut r =
      RunWorkload(w, seed, sequential, trace, GetOpt(argc, argv, "--trace-out", ""), &spans);
  const std::string spans_out = GetOpt(argc, argv, "--spans-out", "");
  if (!spans_out.empty() && !spans.WriteJson(spans_out)) {
    Die("cannot write " + spans_out);
  }

  std::printf(
      "{\"workload\": \"%s\", \"kernel\": \"%s\", \"seed\": %llu, \"threads\": %u, "
      "\"fingerprint\": %llu, \"events\": %llu, \"rounds\": %llu, \"windows\": %u, "
      "\"lps\": %u, \"cut_edges\": %zu, \"setup_s\": %.9f, \"topo_ms\": %.6f, "
      "\"finalize_ms\": %.6f, \"install_ms\": %.6f, \"run_s\": %.9f, \"cpu_s\": %.6f, "
      "\"vol_cs\": %llu, \"invol_cs\": %llu, \"closure_fallbacks\": %llu, "
      "\"fel_depth\": %.3f, \"peak_rss_mb\": %.3f",
      name.c_str(), kernel.c_str(), static_cast<unsigned long long>(seed),
      sequential ? 1u : w.threads, static_cast<unsigned long long>(r.fingerprint),
      static_cast<unsigned long long>(r.events), static_cast<unsigned long long>(r.rounds),
      r.windows, r.lps, r.cut_edges, r.setup_s, r.topo_ms, r.finalize_ms, r.install_ms,
      r.run_s, r.run_usage.cpu_s, static_cast<unsigned long long>(r.run_usage.vol_cs),
      static_cast<unsigned long long>(r.run_usage.invol_cs),
      static_cast<unsigned long long>(r.closure_fallbacks), r.fel_depth, r.peak_rss_mb);
  if (trace) {
    const RunSummary& c = r.cumulative;
    std::printf(
        ", \"executors\": %u, \"p_ns\": %llu, \"s_ns\": %llu, \"m_ns\": %llu, "
        "\"imbalance\": %.6f, \"barrier_ns_per_round\": %.3f, "
        "\"parks_per_round\": %.6f, \"spec_rounds\": %u, \"spec_hits\": %u, "
        "\"spec_misses\": %u, \"rollback_ns\": %llu, \"capture_ok\": %s, "
        "\"capture_us\": %.3f, \"checkpoint_bytes\": %zu",
        c.executors, static_cast<unsigned long long>(c.processing_ns),
        static_cast<unsigned long long>(c.synchronization_ns),
        static_cast<unsigned long long>(c.messaging_ns), r.imbalance,
        r.barrier_ns_per_round, r.parks_per_round, c.spec_rounds, c.spec_hits,
        c.spec_misses, static_cast<unsigned long long>(c.rollback_ns),
        r.capture_ok ? "true" : "false", r.capture_us, r.checkpoint_bytes);
  }
  std::printf("}\n");
  return 0;
}
