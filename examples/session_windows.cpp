// Windowed sessions: Finalize() produces a warm session whose Run(stop) can
// be called repeatedly — the executor threads stay parked in between, model
// and event state carries across window boundaries, and K windowed runs are
// bit-identical to one monolithic run to the same stop time.
//
// This demo advances the same fat-tree workload in four 2.5ms windows,
// injecting extra traffic into the live session between windows 2 and 3,
// then replays the whole thing as one monolithic run (with the same
// injection installed up front) and checks the digests match. With
// --trace=PATH the windowed session is recorded and its run trace — one
// segment per window — is written to PATH as JSON.
//
//   $ ./examples/session_windows [--trace=PATH]
#include <cstdio>
#include <string>

#include "src/unison.h"

namespace {

constexpr uint32_t kWindows = 4;
constexpr int kTotalMs = 10;

// Builds the shared scenario; returns the topology for traffic setup.
unison::FatTreeTopo Build(unison::Network& net) {
  unison::FatTreeTopo topo = unison::BuildFatTree(
      net, 4, 10'000'000'000ULL, unison::Time::Microseconds(3));
  net.Finalize();
  unison::TrafficSpec traffic;
  traffic.hosts = topo.hosts;
  traffic.bisection_bps = topo.bisection_bps;
  traffic.load = 0.2;
  traffic.duration = unison::Time::Milliseconds(kTotalMs);
  unison::GenerateTraffic(net, traffic);
  return topo;
}

unison::TrafficSpec Burst(const unison::FatTreeTopo& topo) {
  unison::TrafficSpec burst;
  burst.hosts = topo.hosts;
  burst.bisection_bps = topo.bisection_bps;
  burst.load = 0.1;
  burst.duration = unison::Time::Milliseconds(kTotalMs / 2);
  burst.rng_stream = 500;  // Distinct stream: don't repeat the base draws.
  return burst;
}

unison::SimConfig Config() {
  unison::SimConfig cfg;
  cfg.kernel.type = unison::KernelType::kUnison;
  cfg.kernel.threads = 4;
  cfg.seed = 7;
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--trace=", 0) == 0) {
      trace_path = arg.substr(8);
    }
  }
  std::printf("Advancing one session in %u windows...\n\n", kWindows);

  unison::SimConfig cfg = Config();
  cfg.trace = !trace_path.empty();
  unison::Network net(cfg);
  const unison::FatTreeTopo topo = Build(net);

  for (uint32_t w = 1; w <= kWindows; ++w) {
    const unison::Time stop =
        unison::Time::Milliseconds(kTotalMs * w / kWindows);
    const unison::RunResult r = net.Run(stop);
    std::printf("  window %u: ran to %.1f ms, %8llu events, %6llu rounds (%s)\n",
                w, r.end.ToSeconds() * 1e3,
                static_cast<unsigned long long>(r.events),
                static_cast<unsigned long long>(r.rounds),
                unison::RunReasonName(r.reason));
    if (w == kWindows / 2) {
      // Mid-session injection: the burst's arrival window is re-anchored at
      // the session's current time (5ms here).
      const unison::GeneratedTraffic extra =
          unison::InjectTraffic(net, Burst(topo));
      std::printf("  -- injected %zu burst flows into the live session --\n",
                  extra.flow_ids.size());
    }
  }
  if (cfg.trace) {
    if (!net.run_trace().WriteJsonFile(trace_path)) {
      std::printf("ERROR: cannot write %s\n", trace_path.c_str());
      return 1;
    }
    std::printf("  -- wrote the run trace (%zu windows) to %s --\n",
                net.run_trace().segments().size(), trace_path.c_str());
  }
  const unison::RunDigest windowed = unison::DigestOf(net);
  std::printf("\n  windowed  : %10lu events, mean FCT %.3f ms, fingerprint %016lx\n",
              static_cast<unsigned long>(windowed.event_count),
              windowed.mean_fct_ms,
              static_cast<unsigned long>(windowed.flow_fingerprint));

  // Monolithic replay: same model, same injection (anchored at the same
  // 5ms mark), one Run call.
  unison::Network mono(Config());
  const unison::FatTreeTopo mono_topo = Build(mono);
  unison::TrafficSpec burst = Burst(mono_topo);
  burst.start = unison::Time::Milliseconds(kTotalMs / 2);
  unison::GenerateTraffic(mono, burst);
  mono.Run(unison::Time::Milliseconds(kTotalMs));
  const unison::RunDigest monolithic = unison::DigestOf(mono);
  std::printf("  monolithic: %10lu events, mean FCT %.3f ms, fingerprint %016lx\n",
              static_cast<unsigned long>(monolithic.event_count),
              monolithic.mean_fct_ms,
              static_cast<unsigned long>(monolithic.flow_fingerprint));

  if (windowed == monolithic) {
    std::printf("\nBit-identical: pausing at window boundaries, reading stats,\n"
                "and injecting new load never perturbs the simulation.\n");
    return 0;
  }
  std::printf("\nERROR: windowed and monolithic runs disagreed!\n");
  return 1;
}
