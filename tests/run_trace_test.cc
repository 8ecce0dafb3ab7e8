// Run-trace observability layer: RunSummary emission across kernels,
// per-round records, exporters, and trace-level determinism.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "src/stats/trace.h"
#include "tests/test_util.h"

namespace unison {
namespace {

struct TracedRun {
  RunSummary summary;
  std::vector<RoundTraceRecord> records;
  std::string json;
  std::string csv;
  uint64_t kernel_rounds = 0;
  uint64_t kernel_events = 0;
};

// RunFatTreeScenario with tracing on, returning the trace artifacts.
TracedRun RunTraced(const KernelConfig& kcfg, PartitionMode partition,
                    uint64_t seed = 1) {
  SimConfig cfg;
  cfg.kernel = kcfg;
  cfg.partition = partition;
  cfg.seed = seed;
  cfg.trace = true;
  Network net(cfg);
  FatTreeTopo topo = BuildFatTree(net, 4, 10000000000ULL, Time::Microseconds(3));
  if (partition == PartitionMode::kManual) {
    net.SetManualPartition(4, FatTreePodPartition(topo, net.num_nodes()));
  }
  net.Finalize();
  GeneratePermutation(net, topo.hosts, 200 * 1024, Time::Zero());
  net.Run(Time::Milliseconds(5));

  TracedRun out;
  out.summary = net.kernel().run_summary();
  out.records = net.run_trace().records();
  out.json = net.run_trace().ToJson();
  out.csv = net.run_trace().ToCsv();
  out.kernel_rounds = net.kernel().rounds();
  out.kernel_events = net.kernel().processed_events();
  return out;
}

void ExpectSummaryFilled(const TracedRun& run, const char* kernel,
                         uint32_t executors) {
  EXPECT_EQ(run.summary.kernel, kernel);
  EXPECT_EQ(run.summary.executors, executors);
  EXPECT_GT(run.summary.lps, 0u);
  EXPECT_EQ(run.summary.events, run.kernel_events);
  EXPECT_EQ(run.summary.rounds, run.kernel_rounds);
  EXPECT_GT(run.summary.events, 0u);
  EXPECT_GT(run.summary.wall_ns, 0u);
}

TEST(RunTraceKernels, SequentialEmitsSummary) {
  KernelConfig k;
  k.type = KernelType::kSequential;
  const TracedRun run = RunTraced(k, PartitionMode::kSingle);
  ExpectSummaryFilled(run, "sequential", 1);
  // No synchronization rounds: summary only, no per-round records.
  EXPECT_TRUE(run.records.empty());
}

TEST(RunTraceKernels, BarrierEmitsSummaryAndRounds) {
  KernelConfig k;
  k.type = KernelType::kBarrier;
  k.deterministic = true;
  const TracedRun run = RunTraced(k, PartitionMode::kManual);
  ExpectSummaryFilled(run, "barrier", 4);  // One rank per pod.
  ASSERT_EQ(run.records.size(), run.kernel_rounds);
  for (size_t i = 0; i < run.records.size(); ++i) {
    EXPECT_EQ(run.records[i].round, i);
    EXPECT_GT(run.records[i].window_ps, 0);
    EXPECT_LE(run.records[i].window_ps, run.records[i].lbts_ps);
  }
  // Ranks publish their event counters at every round barrier, so
  // events_before is a live cumulative count, not the hardcoded 0 of the
  // pre-engine kernel.
  for (size_t i = 1; i < run.records.size(); ++i) {
    EXPECT_GE(run.records[i].events_before, run.records[i - 1].events_before);
  }
  EXPECT_GT(run.records.back().events_before, 0u);
  EXPECT_LE(run.records.back().events_before, run.summary.events);
}

TEST(RunTraceKernels, NullMessageEmitsSummary) {
  KernelConfig k;
  k.type = KernelType::kNullMessage;
  k.deterministic = true;
  const TracedRun run = RunTraced(k, PartitionMode::kManual);
  ExpectSummaryFilled(run, "nullmsg", 4);
  // CMB has no shared rounds; the trace degenerates to the summary.
  EXPECT_TRUE(run.records.empty());
}

TEST(RunTraceKernels, UnisonEmitsSummaryAndRounds) {
  KernelConfig k;
  k.type = KernelType::kUnison;
  k.threads = 2;
  const TracedRun run = RunTraced(k, PartitionMode::kAuto);
  ExpectSummaryFilled(run, "unison", 2);
  ASSERT_EQ(run.records.size(), run.kernel_rounds);
  // The default metric re-sorts every period_ rounds starting at round 0,
  // so the first record carries a claim order covering every LP.
  ASSERT_FALSE(run.records.empty());
  EXPECT_TRUE(run.records[0].resorted);
  EXPECT_EQ(run.records[0].claim_order.size(), run.summary.lps);
  // Window monotonicity: LBTS never moves backwards.
  for (size_t i = 1; i < run.records.size(); ++i) {
    EXPECT_GE(run.records[i].lbts_ps, run.records[i - 1].lbts_ps);
  }
  // events_before is cumulative and consistent with the final total.
  for (size_t i = 1; i < run.records.size(); ++i) {
    EXPECT_GE(run.records[i].events_before, run.records[i - 1].events_before);
  }
  EXPECT_LE(run.records.back().events_before, run.summary.events);
}

TEST(RunTraceKernels, HybridEmitsSummaryAndRounds) {
  KernelConfig k;
  k.type = KernelType::kHybrid;
  k.ranks = 2;
  k.threads = 2;
  const TracedRun run = RunTraced(k, PartitionMode::kAuto);
  ExpectSummaryFilled(run, "hybrid", 4);
  ASSERT_EQ(run.records.size(), run.kernel_rounds);
  ASSERT_FALSE(run.records.empty());
  EXPECT_TRUE(run.records[0].resorted);
  EXPECT_EQ(run.records[0].claim_order.size(), run.summary.lps);
}

// Structure checks on the hand-rolled exporters. (CI additionally validates
// the JSON with a real parser via `python3 -m json.tool`.)
TEST(RunTraceExport, JsonIsBalancedAndCarriesSections) {
  KernelConfig k;
  k.type = KernelType::kUnison;
  k.threads = 2;
  const TracedRun run = RunTraced(k, PartitionMode::kAuto);

  const std::string& json = run.json;
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  int depth = 0;
  int array_depth = 0;
  for (char c : json) {
    depth += c == '{' ? 1 : c == '}' ? -1 : 0;
    array_depth += c == '[' ? 1 : c == ']' ? -1 : 0;
    ASSERT_GE(depth, 0);
    ASSERT_GE(array_depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_EQ(array_depth, 0);
  EXPECT_NE(json.find("\"summary\":"), std::string::npos);
  EXPECT_NE(json.find("\"kernel\":\"unison\""), std::string::npos);
  EXPECT_NE(json.find("\"per_executor\":["), std::string::npos);
  EXPECT_NE(json.find("\"rounds\":["), std::string::npos);
  // Round records carry the combining-barrier wait/park telemetry.
  EXPECT_NE(json.find("\"barrier_ns\":"), std::string::npos);
  EXPECT_NE(json.find("\"parked\":"), std::string::npos);
  // Recorded windows always keep per-round rows, so round records embed
  // P/S/M vectors.
  EXPECT_NE(json.find("\"p_ns\":["), std::string::npos);
  EXPECT_NE(json.find("\"s_ns\":["), std::string::npos);
  EXPECT_NE(json.find("\"m_ns\":["), std::string::npos);
  // Session keys: window count, session aggregate, archived segments.
  EXPECT_NE(json.find("\"windows\":1"), std::string::npos);
  EXPECT_NE(json.find("\"cumulative\":{"), std::string::npos);
  EXPECT_NE(json.find("\"segments\":["), std::string::npos);
  EXPECT_NE(json.find("\"reason\":\""), std::string::npos);
}

TEST(RunTraceExport, CsvHasHeaderAndOneLinePerRound) {
  KernelConfig k;
  k.type = KernelType::kUnison;
  k.threads = 2;
  const TracedRun run = RunTraced(k, PartitionMode::kAuto);

  size_t lines = 0;
  for (char c : run.csv) {
    lines += c == '\n' ? 1 : 0;
  }
  ASSERT_GT(lines, 1u);
  EXPECT_EQ(lines, 1 + run.records.size());
  EXPECT_EQ(run.csv.rfind("window,round,lbts_ps,window_ps,events_before,"
                          "resorted,p_total_ns,s_total_ns,m_total_ns,"
                          "barrier_ns,parked,tuning_epoch,spec_rounds,"
                          "spec_hits,spec_misses,rollback_ns,capture_ns,"
                          "capture_bytes,steals,messages\n",
                          0),
            0u);
  // Single-window session: every row belongs to window 0.
  for (size_t pos = run.csv.find('\n'); pos + 1 < run.csv.size();
       pos = run.csv.find('\n', pos + 1)) {
    EXPECT_EQ(run.csv[pos + 1], '0');
    EXPECT_EQ(run.csv[pos + 2], ',');
  }
}

TEST(RunTraceExport, WriteFilesRoundTrip) {
  KernelConfig k;
  k.type = KernelType::kUnison;
  k.threads = 2;
  SimConfig cfg;
  cfg.kernel = k;
  cfg.seed = 1;
  cfg.trace = true;
  Network net(cfg);
  FatTreeTopo topo = BuildFatTree(net, 4, 10000000000ULL, Time::Microseconds(3));
  net.Finalize();
  GeneratePermutation(net, topo.hosts, 50000, Time::Zero());
  net.Run(Time::Milliseconds(2));

  const std::string path = ::testing::TempDir() + "unison_run_trace_test.json";
  ASSERT_TRUE(net.run_trace().WriteJsonFile(path));
  FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string content;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    content.append(buf, n);
  }
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_EQ(content, net.run_trace().ToJson());
}

// Determinism at the trace level: two identical runs claim LPs in the same
// order every round. ByPendingEventCount makes the cost vector itself
// deterministic (event counts, not timings), so with the id tie-break the
// whole claim-order history must match exactly.
TEST(RunTraceDeterminism, IdenticalRunsProduceIdenticalClaimOrders) {
  KernelConfig k;
  k.type = KernelType::kUnison;
  k.threads = 2;
  k.metric = SchedulingMetric::kByPendingEventCount;
  k.deterministic = true;
  const TracedRun a = RunTraced(k, PartitionMode::kAuto);
  const TracedRun b = RunTraced(k, PartitionMode::kAuto);

  ASSERT_EQ(a.records.size(), b.records.size());
  ASSERT_FALSE(a.records.empty());
  size_t resorted = 0;
  for (size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].round, b.records[i].round);
    EXPECT_EQ(a.records[i].lbts_ps, b.records[i].lbts_ps);
    EXPECT_EQ(a.records[i].window_ps, b.records[i].window_ps);
    EXPECT_EQ(a.records[i].events_before, b.records[i].events_before);
    EXPECT_EQ(a.records[i].resorted, b.records[i].resorted);
    EXPECT_EQ(a.records[i].claim_order, b.records[i].claim_order) << "round " << i;
    resorted += a.records[i].resorted ? 1 : 0;
  }
  EXPECT_GT(resorted, 1u);  // The comparison actually exercised re-sorts.
  EXPECT_EQ(a.summary.events, b.summary.events);
  EXPECT_EQ(a.summary.rounds, b.summary.rounds);
}

TEST(RunTraceConfig, ClaimOrderRecordingCanBeDisabled) {
  KernelConfig k;
  k.type = KernelType::kUnison;
  k.threads = 2;
  SimConfig cfg;
  cfg.kernel = k;
  cfg.seed = 1;
  cfg.trace = true;
  cfg.trace_claim_order = false;
  Network net(cfg);
  FatTreeTopo topo = BuildFatTree(net, 4, 10000000000ULL, Time::Microseconds(3));
  net.Finalize();
  GeneratePermutation(net, topo.hosts, 50000, Time::Zero());
  net.Run(Time::Milliseconds(2));

  const auto& records = net.run_trace().records();
  ASSERT_FALSE(records.empty());
  size_t resorted = 0;
  for (const auto& r : records) {
    EXPECT_TRUE(r.claim_order.empty());
    resorted += r.resorted ? 1 : 0;
  }
  EXPECT_GT(resorted, 0u);  // The resorted flag still records scheduler activity.
}

// --- The recorder's contract ---

// A 2-thread Unison fat-tree session of 4 MiB permutation flows, which keep
// every host busy past 3 ms, advanced in 1 ms Run() windows; `observe` sees
// the network after each window.
template <typename Observe>
void RunUnisonSession(SimConfig cfg, uint32_t windows, Observe observe) {
  cfg.kernel.type = KernelType::kUnison;
  cfg.kernel.threads = 2;
  Network net(cfg);
  FatTreeTopo topo = BuildFatTree(net, 4, 10000000000ULL, Time::Microseconds(3));
  net.Finalize();
  GeneratePermutation(net, topo.hosts, 4 << 20, Time::Zero());
  for (uint32_t w = 1; w <= windows; ++w) {
    net.Run(Time::Milliseconds(w));
    observe(net, w - 1);
  }
}

// Untraced runs — the benchmark's end-to-end path — leave the recorder
// closed: with trace, tuning and profile_per_lp all off, no window is
// archived, no row exists, and the kernel's summary carries no P/S/M.
TEST(RunTraceConfig, NothingIsRecordedWhenOff) {
  SimConfig cfg;
  ASSERT_FALSE(cfg.trace);
  ASSERT_FALSE(cfg.profile_per_lp);
  ASSERT_EQ(cfg.tuning, TuningMode::kOff);
  RunUnisonSession(cfg, 3, [](Network& net, uint32_t w) {
    SCOPED_TRACE(w);
    EXPECT_GT(net.kernel().rounds(), 0u);
    const RunTrace& trace = net.run_trace();
    EXPECT_FALSE(trace.enabled);
    EXPECT_TRUE(trace.segments().empty());
    EXPECT_TRUE(trace.records().empty());
    EXPECT_TRUE(trace.executors().empty());
    EXPECT_TRUE(trace.round_processing_ns().empty());
    EXPECT_TRUE(trace.round_sync_ns().empty());
    EXPECT_TRUE(trace.round_messaging_ns().empty());
    EXPECT_TRUE(trace.lp_rounds().empty());
    const RunSummary& summary = net.kernel().run_summary();
    EXPECT_GT(summary.events, 0u);
    EXPECT_EQ(summary.processing_ns, 0u);
    EXPECT_EQ(summary.synchronization_ns, 0u);
    EXPECT_EQ(summary.messaging_ns, 0u);
    EXPECT_EQ(summary.imbalance, 0.0);
  });
}

// One summary per window: the kernel's run_summary() is the value the
// window's segment archives, imbalance included, and that imbalance is the
// mean over the segment's own per-round rows.
TEST(RunTraceSession, KernelSummaryIsTheSegmentSummary) {
  SimConfig cfg;
  cfg.trace = true;
  RunUnisonSession(cfg, 3, [](Network& net, uint32_t w) {
    SCOPED_TRACE(w);
    const RunTrace& trace = net.run_trace();
    ASSERT_EQ(trace.segments().size(), w + 1);
    const WindowTraceSegment& seg = trace.segments().back();
    const RunSummary& summary = net.kernel().run_summary();
    EXPECT_EQ(summary.ToJson(), seg.summary.ToJson());
    EXPECT_EQ(summary.imbalance, seg.summary.imbalance);
    EXPECT_GT(seg.summary.imbalance, 0.0);  // Two timed executors never tie.
    EXPECT_EQ(seg.summary.imbalance, MeanRoundImbalance(seg.round_p));
    EXPECT_EQ(summary.processing_ns, trace.summary().processing_ns);
  });
}

// The exported JSON's top level is the last window: its "summary" object is
// byte-equal to the last archived segment's.
TEST(RunTraceSession, JsonTopLevelIsTheLastSegment) {
  SimConfig cfg;
  cfg.trace = true;
  RunUnisonSession(cfg, 3, [](Network& net, uint32_t w) {
    SCOPED_TRACE(w);
    const std::string json = net.run_trace().ToJson();
    // A summary object holds no nested object, so it ends at the first '}'.
    auto summary_at = [&json](size_t key) {
      const size_t open = key + std::string("{\"summary\":").size();
      return json.substr(open, json.find('}', open) - open + 1);
    };
    const size_t last_segment = json.rfind("{\"summary\":");
    ASSERT_EQ(json.rfind("{\"summary\":", 0), 0u);
    ASSERT_GT(last_segment, json.find("\"segments\":["));
    EXPECT_EQ(summary_at(0), summary_at(last_segment));
    EXPECT_EQ(summary_at(0), net.run_trace().segments().back().summary.ToJson());
  });
}

}  // namespace
}  // namespace unison
