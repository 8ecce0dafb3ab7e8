// Claim-order drift replay (ROADMAP item): how much does a stale LPT claim
// order cost, as a function of the re-sort period?
//
// An instrumented single-worker Unison run on the recurring fat-tree scenario
// records the true per-(round, LP) costs. ReplayClaimOrderDrift
// (bench/claim_drift.h) then replays that matrix through the parallel cost
// model's Unison schedule once per staleness k — the kernel policy re-sorts
// every k rounds on the *previous* round's costs, the model's per-round ideal
// is the clairvoyant oracle re-sorted every round on the true costs — and
// reports the mean makespan inflation. The resulting payoff curve is where
// the controller's Controller::kDriftShrink/kDriftGrow thresholds come from, and
// RecommendPeriod's pick is compared against the paper's static
// ceil(log2 n) (§4.3).
//
// The replay is a pure function of the recorded costs, so the curve is
// deterministic for a fixed scenario regardless of host load — the bench
// verifies that by replaying twice.
//
// Emits BENCH_claim_drift.json.
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "bench/claim_drift.h"

using namespace unison;
using namespace unison::bench;

int main(int argc, char** argv) {
  const bool quick = HasFlag(argc, argv, "--quick");
  SetTraceFromArgs(argc, argv);

  FatTreeScenario sc;
  sc.k = quick ? 4 : 8;
  sc.load = 0.3;
  sc.duration = Time::Milliseconds(quick ? 2 : 5);
  SimConfig cfg;
  ApplyDcnTcp(&cfg);

  std::printf("claim-order drift replay: k=%u fat-tree, %s\n", sc.k,
              quick ? "quick" : "full");
  const TraceResult rec = InstrumentedRun(cfg, FatTreeBuilder(sc), sc.duration);
  std::printf("  recorded %llu rounds x %u LPs (%llu events)\n",
              static_cast<unsigned long long>(rec.rounds), rec.num_lps,
              static_cast<unsigned long long>(rec.events));

  // Cost matrix [round][lp] from the recorded per-round event counts (event
  // counts, not cpu_ns: they are bit-deterministic across runs and hosts).
  std::vector<std::vector<uint64_t>> costs(
      rec.rounds, std::vector<uint64_t>(rec.num_lps, 0));
  for (const LpRoundCost& c : rec.trace) {
    if (c.round < costs.size() && c.lp < rec.num_lps) {
      costs[c.round][c.lp] += c.events;
    }
  }

  const uint32_t workers = 4;  // Modelled claim consumers.
  std::vector<uint32_t> stalenesses = {1, 2, 4, 8, 16, 32, 64};
  const auto curve = ReplayClaimOrderDrift(costs, workers, stalenesses);
  const auto replayed = ReplayClaimOrderDrift(costs, workers, stalenesses);
  bool deterministic = curve.size() == replayed.size();
  for (size_t i = 0; deterministic && i < curve.size(); ++i) {
    deterministic = curve[i].staleness == replayed[i].staleness &&
                    curve[i].makespan_ratio == replayed[i].makespan_ratio;
  }

  const double tolerance = 0.05;
  const uint32_t recommended = RecommendPeriod(curve, tolerance);
  const uint32_t log2_default = std::bit_width(
      std::max(2u, rec.num_lps) - 1);  // The paper's ceil(log2 n).

  Table table({"staleness k", "makespan ratio", "inflation %"});
  for (const DriftReplayPoint& pt : curve) {
    table.Row({Fmt("%u", pt.staleness), Fmt("%.4f", pt.makespan_ratio),
               Fmt("%.2f", (pt.makespan_ratio - 1.0) * 100.0)});
  }
  table.Print();
  std::printf("  recommended period (tol %.0f%%): %u   ceil(log2 n): %u\n",
              tolerance * 100.0, recommended, log2_default);

  // The oracle is the freshest possible order, so the curve's baseline must
  // sit at ~1.0 and the replay must be a pure function of the recording.
  const bool pass = deterministic && !curve.empty() &&
                    curve[0].makespan_ratio >= 0.99 && recommended >= 1;

  FILE* out = std::fopen("BENCH_claim_drift.json", "w");
  if (out != nullptr) {
    std::fprintf(out,
                 "{\n  \"bench\": \"claim_drift\",\n  \"quick\": %s,\n"
                 "  \"rounds\": %llu,\n  \"lps\": %u,\n  \"workers\": %u,\n",
                 quick ? "true" : "false",
                 static_cast<unsigned long long>(rec.rounds), rec.num_lps,
                 workers);
    std::fprintf(out, "  \"curve\": [");
    for (size_t i = 0; i < curve.size(); ++i) {
      std::fprintf(out, "%s{\"staleness\": %u, \"ratio\": %.6f}",
                   i == 0 ? "" : ", ", curve[i].staleness,
                   curve[i].makespan_ratio);
    }
    std::fprintf(out, "],\n");
    std::fprintf(out,
                 "  \"tolerance\": %.3f,\n  \"recommended_period\": %u,\n"
                 "  \"log2_default\": %u,\n  \"deterministic\": %s,\n"
                 "  \"baseline_ratio\": %.6f,\n  \"pass\": %s\n}\n",
                 tolerance, recommended, log2_default,
                 deterministic ? "true" : "false",
                 curve.empty() ? 0.0 : curve[0].makespan_ratio,
                 pass ? "true" : "false");
    std::fclose(out);
    std::printf("wrote BENCH_claim_drift.json\n");
  }
  return pass ? 0 : 1;
}
