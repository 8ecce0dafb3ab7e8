// Closed-loop self-tuning on an oversubscribed host: static KernelConfig
// defaults vs the live tuning plane (tuning=auto), same scenario, same
// results.
//
// The static run drives a Unison kernel with several times more worker
// threads than the machine has cores — the configuration PARSIR (PAPERS.md)
// warns about, where every reduction barrier parks in the futex behind
// descheduled peers. The tuned run starts from the identical config with
// TuningMode::kAuto: the controller watches parked/round at each window
// boundary and fits the party count to the actual machine, while the
// window-horizon rule keeps the observation cadence up.
//
// Beside them run the static settings a user would pick: unison at every
// lane count from 1 to min(4, CPUs). The best of them is the bar an adaptive
// mechanism must beat; speedup_vs_best_static (best static wall / tuned
// wall) is reported, not gated.
//
// The pass criteria are the refactor's contract, not raw speed: bit-identical
// FlowMonitor fingerprints across every row (tuning must never change
// results), at least one published decision, and a final party count that
// fits the machine. Wall times are reported honestly for whatever host runs
// this; the speedup is CI-gated with a generous floor because barrier
// overhead is only a fraction of a small scenario's runtime.
//
// Emits BENCH_self_tuning.json.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/kernel/engine/cpu_topology.h"

using namespace unison;
using namespace unison::bench;

namespace {

struct TunedRun {
  uint64_t wall_ns = 0;
  uint64_t fingerprint = 0;
  uint64_t events = 0;
  uint32_t windows = 0;
  uint32_t final_parties = 0;
  uint64_t final_epoch = 0;
  size_t decisions = 0;
  std::string rules;
};

TunedRun RunOnce(SimConfig cfg, const FatTreeScenario& sc) {
  Network net(cfg);
  FatTreeBuilder(sc)(net);
  const uint64_t t0 = Profiler::NowNs();
  net.Run(sc.duration);
  TunedRun out;
  out.wall_ns = Profiler::NowNs() - t0;
  out.fingerprint = net.flow_monitor().Fingerprint();
  out.events = net.kernel().session_events();
  out.windows = net.kernel().session_windows();
  out.final_parties = net.kernel().window_tuning().parties;
  out.final_epoch = net.kernel().window_tuning().epoch;
  if (net.controller() != nullptr) {
    out.decisions = net.controller()->decisions().size();
    for (const Controller::Decision& d : net.controller()->decisions()) {
      if (!out.rules.empty()) {
        out.rules += ';';
      }
      out.rules += d.rule;
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = HasFlag(argc, argv, "--quick");

  const uint32_t cpus = std::max<uint32_t>(
      1, static_cast<uint32_t>(CpuTopology::Detect().cpus.size()));
  // 4x the machine, capped so many-core hosts don't spawn hundreds of
  // workers; at least 4 so the 1-core reference container is oversubscribed.
  const uint32_t threads = std::max(4u, std::min(32u, 4 * cpus));

  FatTreeScenario sc;
  sc.k = 4;
  sc.load = 0.3;
  sc.duration = Time::Milliseconds(quick ? 2 : 5);

  SimConfig base;
  ApplyDcnTcp(&base);
  base.kernel.type = KernelType::kUnison;
  base.kernel.threads = threads;

  std::printf("self-tuning: k=%u fat-tree, %u threads on %u cpu(s), %s\n",
              sc.k, threads, cpus, quick ? "quick" : "full");

  const TunedRun st = RunOnce(base, sc);

  SimConfig tuned = base;
  tuned.tuning = TuningMode::kAuto;
  tuned.tuning_config.min_rounds = 1;
  tuned.tuning_config.parks_per_round_high = 0.25;
  tuned.tuning_config.ps_low = 1.0;  // Always keep the observation cadence up.
  tuned.tuning_config.initial_window_ps = 500'000'000;  // 0.5 ms slices.
  tuned.tuning_config.min_window_ps = 250'000'000;
  const TunedRun tu = RunOnce(tuned, sc);

  // The best static setting: unison at each lane count up to min(4, CPUs).
  std::vector<TunedRun> lanes;
  for (uint32_t t = 1; t <= std::min(4u, cpus); ++t) {
    SimConfig fixed = base;
    fixed.kernel.threads = t;
    lanes.push_back(RunOnce(fixed, sc));
  }
  size_t best = 0;
  for (size_t i = 1; i < lanes.size(); ++i) {
    if (lanes[i].wall_ns < lanes[best].wall_ns) {
      best = i;
    }
  }
  const TunedRun& bs = lanes[best];

  const double speedup = tu.wall_ns == 0
                             ? 0.0
                             : static_cast<double>(st.wall_ns) /
                                   static_cast<double>(tu.wall_ns);
  const double speedup_vs_best_static =
      tu.wall_ns == 0 ? 0.0
                      : static_cast<double>(bs.wall_ns) /
                            static_cast<double>(tu.wall_ns);
  bool fingerprint_match =
      tu.fingerprint == st.fingerprint && tu.events == st.events;
  for (const TunedRun& r : lanes) {
    fingerprint_match = fingerprint_match && r.fingerprint == st.fingerprint &&
                        r.events == st.events;
  }

  Table table({"run", "wall ms", "windows", "parties", "epoch", "decisions"});
  table.Row({"static", Fmt("%.1f", st.wall_ns * 1e-6), Fmt("%u", st.windows),
             Fmt("%u", st.final_parties), Fmt("%llu",
             static_cast<unsigned long long>(st.final_epoch)), "0"});
  table.Row({"tuned", Fmt("%.1f", tu.wall_ns * 1e-6), Fmt("%u", tu.windows),
             Fmt("%u", tu.final_parties), Fmt("%llu",
             static_cast<unsigned long long>(tu.final_epoch)),
             Fmt("%zu", tu.decisions)});
  for (size_t i = 0; i < lanes.size(); ++i) {
    table.Row({Fmt("static %zut", i + 1), Fmt("%.1f", lanes[i].wall_ns * 1e-6),
               Fmt("%u", lanes[i].windows), Fmt("%u", lanes[i].final_parties),
               "0", "0"});
  }
  table.Print();
  std::printf(
      "  speedup %.2fx, %.2fx against the best static setting (%zu threads), "
      "fingerprints %s, rules: %s\n",
      speedup, speedup_vs_best_static, best + 1,
      fingerprint_match ? "match" : "DIVERGE",
      tu.rules.empty() ? "(none)" : tu.rules.c_str());

  const bool pass = fingerprint_match && tu.decisions >= 1 &&
                    tu.final_parties <= threads && tu.windows > st.windows;

  FILE* out = std::fopen("BENCH_self_tuning.json", "w");
  if (out != nullptr) {
    std::fprintf(
        out,
        "{\n  \"bench\": \"self_tuning\",\n  \"quick\": %s,\n"
        "  \"cpus\": %u,\n  \"threads\": %u,\n"
        "  \"static_wall_ns\": %llu,\n  \"tuned_wall_ns\": %llu,\n"
        "  \"speedup\": %.4f,\n  \"best_static_threads\": %zu,\n"
        "  \"best_static_wall_ns\": %llu,\n"
        "  \"speedup_vs_best_static\": %.4f,\n  \"fingerprint_match\": %s,\n"
        "  \"decisions\": %zu,\n  \"rules\": \"%s\",\n"
        "  \"windows_static\": %u,\n  \"windows_tuned\": %u,\n"
        "  \"final_parties\": %u,\n  \"final_epoch\": %llu,\n"
        "  \"events\": %llu,\n  \"pass\": %s\n}\n",
        quick ? "true" : "false", cpus, threads,
        static_cast<unsigned long long>(st.wall_ns),
        static_cast<unsigned long long>(tu.wall_ns), speedup, best + 1,
        static_cast<unsigned long long>(bs.wall_ns), speedup_vs_best_static,
        fingerprint_match ? "true" : "false", tu.decisions, tu.rules.c_str(),
        st.windows, tu.windows, tu.final_parties,
        static_cast<unsigned long long>(tu.final_epoch),
        static_cast<unsigned long long>(tu.events), pass ? "true" : "false");
    std::fclose(out);
    std::printf("wrote BENCH_self_tuning.json\n");
  }
  return pass ? 0 : 1;
}
