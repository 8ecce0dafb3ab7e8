// Windowed sessions: Finalize() yields a warm session on which Run(stop) is
// called repeatedly. The load-bearing invariant — K windowed runs are
// bit-identical to one monolithic run to the same stop time, for every
// kernel — plus the zero-respawn guarantee, RunResult/RunReason semantics,
// session accumulators, per-window trace segments, incremental traffic
// injection, and KernelConfig validation.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <algorithm>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "src/kernel/engine/executor_pool.h"
#include "src/kernel/round_kernel.h"
#include "src/net/model_events.h"
#include "src/net/session.h"
#include "src/net/udp.h"
#include "tests/test_util.h"

namespace unison {
namespace {

struct KernelCase {
  const char* name;
  KernelConfig config;
  PartitionMode partition;
};

std::vector<KernelCase> AllKernels() {
  std::vector<KernelCase> cases;
  {
    KernelConfig k;
    k.type = KernelType::kSequential;
    cases.push_back({"sequential", k, PartitionMode::kSingle});
  }
  {
    KernelConfig k;
    k.type = KernelType::kBarrier;
    k.deterministic = true;
    cases.push_back({"barrier", k, PartitionMode::kManual});
  }
  {
    KernelConfig k;
    k.type = KernelType::kNullMessage;
    k.deterministic = true;
    cases.push_back({"nullmsg", k, PartitionMode::kManual});
  }
  {
    KernelConfig k;
    k.type = KernelType::kUnison;
    k.threads = 2;
    cases.push_back({"unison", k, PartitionMode::kAuto});
  }
  {
    KernelConfig k;
    k.type = KernelType::kHybrid;
    k.ranks = 2;
    k.threads = 2;
    cases.push_back({"hybrid", k, PartitionMode::kAuto});
  }
  return cases;
}

class SessionWindowEquivalence
    : public ::testing::TestWithParam<std::tuple<int, uint32_t>> {};

// The tentpole invariant: splitting one run into K windows changes nothing —
// same flow-monitor fingerprint, same flow summary, same total event count.
TEST_P(SessionWindowEquivalence, WindowedMatchesMonolithic) {
  const int kernel_index = std::get<0>(GetParam());
  const uint32_t windows = std::get<1>(GetParam());
  const KernelCase kc = AllKernels()[kernel_index];
  SCOPED_TRACE(std::string(kc.name) + " x " + std::to_string(windows));

  const RunOutcome mono = RunFatTreeScenario(kc.config, kc.partition);
  uint64_t spawned_between = 0;
  const RunOutcome windowed = RunFatTreeScenarioWindowed(
      kc.config, kc.partition, windows, 4, 10, 5, 1, &spawned_between);

  EXPECT_EQ(windowed.fingerprint, mono.fingerprint);
  EXPECT_EQ(windowed.events, mono.events);
  EXPECT_EQ(windowed.summary.completed, mono.summary.completed);
  EXPECT_EQ(windowed.lps, mono.lps);
  // Satellite: the pool's threads park between windows — zero respawns after
  // the first window, for every kernel.
  EXPECT_EQ(spawned_between, 0u);
}

std::string SessionCaseName(
    const ::testing::TestParamInfo<std::tuple<int, uint32_t>>& info) {
  static const char* const names[5] = {"sequential", "barrier", "nullmsg",
                                       "unison", "hybrid"};
  return std::string(names[std::get<0>(info.param)]) + "_w" +
         std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    AllKernelsAllSplits, SessionWindowEquivalence,
    ::testing::Combine(::testing::Range(0, 5), ::testing::Values(1u, 2u, 5u)),
    SessionCaseName);

// RunResult semantics: a window that stops with work pending reports
// kWindowReached; once the workload drains, kExhausted; session accumulators
// sum the per-window results.
TEST(SessionResult, ReasonsAndAccumulators) {
  for (const KernelCase& kc : AllKernels()) {
    SCOPED_TRACE(kc.name);
    SimConfig cfg;
    cfg.kernel = kc.config;
    cfg.partition = kc.partition;
    Network net(cfg);
    FatTreeTopo topo =
        BuildFatTree(net, 4, 10000000000ULL, Time::Microseconds(3));
    if (kc.partition == PartitionMode::kManual) {
      net.SetManualPartition(4, FatTreePodPartition(topo, net.num_nodes()));
    }
    net.Finalize();
    GeneratePermutation(net, topo.hosts, 200 * 1024, Time::Zero());

    const RunResult first = net.Run(Time::Microseconds(100));
    EXPECT_EQ(first.reason, RunReason::kWindowReached);
    EXPECT_EQ(first.end, Time::Microseconds(100));
    EXPECT_GT(first.events, 0u);
    EXPECT_EQ(net.session_time(), Time::Microseconds(100));
    EXPECT_EQ(net.kernel().session_windows(), 1u);
    EXPECT_EQ(net.kernel().session_events(), first.events);

    const RunResult second = net.Run(Time::Milliseconds(1));
    EXPECT_NE(second.reason, RunReason::kStopRequested);
    EXPECT_GT(second.events, 0u);
    EXPECT_EQ(net.session_time(), Time::Milliseconds(1));
    EXPECT_EQ(net.kernel().session_windows(), 2u);
    EXPECT_EQ(net.kernel().session_events(), first.events + second.events);
    EXPECT_EQ(net.kernel().session_rounds(), first.rounds + second.rounds);

    // Genuine exhaustion — a horizon outliving every flow and timer — is
    // asserted on the sequential kernel only: retransmission-timer tails
    // stretch for simulated seconds, cheap to drain event-by-event but a
    // round-per-timestamp grind for the barrier-phase kernels. (engine_test
    // covers kExhausted for every parallel kernel on a small scenario.)
    if (kc.config.type == KernelType::kSequential) {
      const RunResult last = net.Run(Time::Seconds(60));
      EXPECT_EQ(last.reason, RunReason::kExhausted);
      EXPECT_EQ(net.kernel().session_windows(), 3u);
      EXPECT_EQ(net.kernel().session_events(),
                first.events + second.events + last.events);
    }
  }
}

// A stop request ends one window without poisoning the session: the next
// Run() continues, and the final state matches an uninterrupted session.
TEST(SessionResult, StopRequestEndsWindowNotSession) {
  KernelConfig k;
  k.type = KernelType::kUnison;
  k.threads = 2;
  SimConfig cfg;
  cfg.kernel = k;
  Network net(cfg);
  FatTreeTopo topo = BuildFatTree(net, 4, 10000000000ULL, Time::Microseconds(3));
  net.Finalize();
  GeneratePermutation(net, topo.hosts, 200 * 1024, Time::Zero());
  net.sim().ScheduleGlobal(Time::Microseconds(50), [&net] { net.sim().Stop(); });

  const RunResult stopped = net.Run(Time::Milliseconds(5));
  EXPECT_EQ(stopped.reason, RunReason::kStopRequested);
  // The aborted window does not advance the session clock.
  EXPECT_EQ(net.session_time(), Time::Zero());

  const RunResult resumed = net.Run(Time::Milliseconds(5));
  EXPECT_NE(resumed.reason, RunReason::kStopRequested);
  EXPECT_EQ(net.session_time(), Time::Milliseconds(5));
  EXPECT_GT(resumed.events, 0u);
  EXPECT_EQ(net.kernel().session_windows(), 2u);
}

// Trace segments: one archived segment per window, cumulative sums, and the
// CSV covering every window.
TEST(SessionTrace, SegmentsPerWindowAndCumulative) {
  KernelConfig k;
  k.type = KernelType::kUnison;
  k.threads = 2;
  SimConfig cfg;
  cfg.kernel = k;
  cfg.trace = true;
  Network net(cfg);
  FatTreeTopo topo = BuildFatTree(net, 4, 10000000000ULL, Time::Microseconds(3));
  net.Finalize();
  GeneratePermutation(net, topo.hosts, 200 * 1024, Time::Zero());

  // Boundaries inside the active phase of the workload, so both windows
  // execute rounds.
  const RunResult w0 = net.Run(Time::Microseconds(100));
  const RunResult w1 = net.Run(Time::Microseconds(200));

  const RunTrace& trace = net.run_trace();
  ASSERT_EQ(trace.segments().size(), 2u);
  EXPECT_EQ(trace.segments()[0].summary.window_index, 0u);
  EXPECT_EQ(trace.segments()[0].summary.events, w0.events);
  EXPECT_EQ(trace.segments()[0].summary.window_stop_ps,
            Time::Microseconds(100).ps());
  EXPECT_EQ(trace.segments()[1].summary.window_index, 1u);
  EXPECT_EQ(trace.segments()[1].summary.events, w1.events);
  EXPECT_EQ(trace.segments()[1].summary.window_start_ps,
            Time::Microseconds(100).ps());
  EXPECT_EQ(trace.segments()[0].summary.reason, "window");
  EXPECT_FALSE(trace.segments()[0].records.empty());
  EXPECT_FALSE(trace.segments()[1].records.empty());

  const RunSummary total = trace.Cumulative();
  EXPECT_EQ(total.events, w0.events + w1.events);
  EXPECT_EQ(total.rounds, w0.rounds + w1.rounds);
  EXPECT_EQ(total.window_start_ps, 0);
  EXPECT_EQ(total.window_stop_ps, Time::Microseconds(200).ps());

  const std::string json = trace.ToJson();
  EXPECT_NE(json.find("\"windows\":2"), std::string::npos);
  EXPECT_NE(json.find("\"segments\":[{"), std::string::npos);

  // The CSV carries rows for both windows.
  const std::string csv = trace.ToCsv();
  EXPECT_NE(csv.find("\n0,"), std::string::npos);
  EXPECT_NE(csv.find("\n1,"), std::string::npos);

  // A fresh Setup starts a fresh session: segments reset.
  net.kernel().Setup(net.graph(), net.partition());
  EXPECT_TRUE(net.run_trace().segments().empty());
  EXPECT_EQ(net.kernel().session_windows(), 0u);
}

// Incremental injection: flows added between windows re-anchor at the
// session time, and the result matches a monolithic run whose extra flows
// were installed up front at the same absolute time.
TEST(SessionInjection, MidSessionTrafficMatchesUpFrontInstall) {
  auto config = [] {
    SimConfig cfg;
    cfg.kernel.type = KernelType::kUnison;
    cfg.kernel.threads = 2;
    cfg.seed = 3;
    return cfg;
  };
  auto build = [](Network& net) {
    FatTreeTopo topo =
        BuildFatTree(net, 4, 10000000000ULL, Time::Microseconds(3));
    net.Finalize();
    GeneratePermutation(net, topo.hosts, 100 * 1024, Time::Zero());
    return topo;
  };
  auto burst = [](const FatTreeTopo& topo) {
    TrafficSpec spec;
    spec.hosts = topo.hosts;
    spec.bisection_bps = topo.bisection_bps;
    spec.load = 0.5;  // Dense enough that the 3ms window surely draws flows.
    spec.duration = Time::Milliseconds(3);
    spec.rng_stream = 700;
    return spec;
  };

  SimConfig cfg = config();
  Network windowed(cfg);
  const FatTreeTopo wt = build(windowed);
  windowed.Run(Time::Milliseconds(2));
  const GeneratedTraffic injected = InjectTraffic(windowed, burst(wt));
  ASSERT_FALSE(injected.flow_ids.empty());
  windowed.Run(Time::Milliseconds(8));

  Network mono(config());
  const FatTreeTopo mt = build(mono);
  TrafficSpec up_front = burst(mt);
  up_front.start = Time::Milliseconds(2);  // Same absolute arrival window.
  const GeneratedTraffic installed = GenerateTraffic(mono, up_front);
  ASSERT_EQ(installed.flow_ids.size(), injected.flow_ids.size());
  ASSERT_EQ(installed.total_bytes, injected.total_bytes);
  mono.Run(Time::Milliseconds(8));

  EXPECT_EQ(windowed.flow_monitor().Fingerprint(),
            mono.flow_monitor().Fingerprint());
  EXPECT_EQ(windowed.kernel().session_events(),
            mono.kernel().session_events());
}

// --- Snapshot/Fork ---

class ForkTransparency
    : public ::testing::TestWithParam<std::tuple<int, uint32_t, int>> {};

// The fork-transparency contract: Snapshot after k warm windows + Fork + Run
// to T is bit-identical to one monolithic run to T — FlowMonitor
// fingerprint, completion counts, and the session event accumulator — for
// every kernel and fork count. Forks borrow the parent's warm pool, so the
// whole sweep spawns zero new OS threads; and the snapshot itself is
// execution-neutral, so the parent still converges to the same state.
TEST_P(ForkTransparency, ForkedRunMatchesMonolithic) {
  const int kernel_index = std::get<0>(GetParam());
  const uint32_t snap_ms = std::get<1>(GetParam());
  const int forks = std::get<2>(GetParam());
  const KernelCase kc = AllKernels()[kernel_index];
  SCOPED_TRACE(std::string(kc.name) + " snap@" + std::to_string(snap_ms) +
               "ms x" + std::to_string(forks));

  const RunOutcome mono =
      RunFatTreeScenarioStreaming(kc.config, kc.partition, 1);

  FatTreeScenario parent =
      BuildFatTreeScenarioStreaming(kc.config, kc.partition);
  for (uint32_t w = 1; w <= snap_ms; ++w) {
    parent.net->Run(Time::Milliseconds(w));
  }
  Session session(parent.net.get());
  const SessionSnapshot snap = session.Snapshot();
  EXPECT_GT(snap.size_bytes(), 0u);

  const uint64_t spawned_before = ExecutorPool::TotalThreadsSpawned();
  for (int f = 0; f < forks; ++f) {
    std::unique_ptr<Network> branch = session.Fork(snap);
    branch->Run(Time::Milliseconds(5));
    EXPECT_EQ(branch->flow_monitor().Fingerprint(), mono.fingerprint);
    EXPECT_EQ(branch->kernel().session_events(), mono.events);
    EXPECT_EQ(branch->flow_monitor().Summarize().completed,
              mono.summary.completed);
    EXPECT_EQ(branch->kernel().num_lps(), mono.lps);
    // Lineage: every branch RunSummary names the snapshot it grew from.
    const std::string& lineage = branch->kernel().run_summary().forked_from;
    EXPECT_EQ(lineage.rfind("snap-", 0), 0u) << lineage;
    EXPECT_NE(lineage.find("@w" + std::to_string(snap_ms)), std::string::npos)
        << lineage;
  }
  EXPECT_EQ(ExecutorPool::TotalThreadsSpawned() - spawned_before, 0u);

  parent.net->Run(Time::Milliseconds(5));
  EXPECT_EQ(parent.net->flow_monitor().Fingerprint(), mono.fingerprint);
  EXPECT_EQ(parent.net->kernel().session_events(), mono.events);
  EXPECT_TRUE(parent.net->kernel().run_summary().forked_from.empty());
}

std::string ForkCaseName(
    const ::testing::TestParamInfo<std::tuple<int, uint32_t, int>>& info) {
  static const char* const names[5] = {"sequential", "barrier", "nullmsg",
                                       "unison", "hybrid"};
  return std::string(names[std::get<0>(info.param)]) + "_snap" +
         std::to_string(std::get<1>(info.param)) + "ms_x" +
         std::to_string(std::get<2>(info.param));
}

INSTANTIATE_TEST_SUITE_P(AllKernels, ForkTransparency,
                         ::testing::Combine(::testing::Range(0, 5),
                                            ::testing::Values(1u, 2u),
                                            ::testing::Values(1, 3)),
                         ForkCaseName);

// SaveTo/LoadFrom is the long-simulation resume format: the roundtrip is
// byte-exact, and a cold Restore in lieu of a warm Fork still satisfies the
// transparency contract.
TEST(SessionSnapshotIo, SaveLoadRoundtripAndColdRestore) {
  KernelConfig k;
  k.type = KernelType::kUnison;
  k.threads = 2;
  const RunOutcome mono = RunFatTreeScenarioStreaming(k, PartitionMode::kAuto, 1);

  FatTreeScenario parent = BuildFatTreeScenarioStreaming(k, PartitionMode::kAuto);
  parent.net->Run(Time::Milliseconds(2));
  Session session(parent.net.get());
  const SessionSnapshot snap = session.Snapshot();

  const std::string path = ::testing::TempDir() + "unison_fork_test.usnp";
  snap.SaveTo(path);
  const SessionSnapshot loaded = SessionSnapshot::LoadFrom(path);
  std::remove(path.c_str());
  EXPECT_EQ(loaded.bytes(), snap.bytes());
  EXPECT_EQ(loaded.Digest(), snap.Digest());

  std::unique_ptr<Network> resumed = Session::Restore(loaded);
  resumed->Run(Time::Milliseconds(5));
  EXPECT_EQ(resumed->flow_monitor().Fingerprint(), mono.fingerprint);
  EXPECT_EQ(resumed->kernel().session_events(), mono.events);
}

// SaveTo replaces the file atomically: saving over an existing file leaves
// exactly the new bytes, and the temp file it wrote is gone.
TEST(SessionSnapshotIo, SaveToReplacesExistingFileAtomically) {
  KernelConfig k;
  k.type = KernelType::kSequential;
  FatTreeScenario parent = BuildFatTreeScenarioStreaming(k, PartitionMode::kSingle);
  parent.net->Run(Time::Microseconds(100));
  const SessionSnapshot older = Session(parent.net.get()).Snapshot();
  parent.net->Run(Time::Microseconds(200));
  const SessionSnapshot newer = Session(parent.net.get()).Snapshot();
  ASSERT_NE(older.bytes(), newer.bytes());

  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "unison_save_atomic";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "session.usnp").string();
  older.SaveTo(path);
  newer.SaveTo(path);
  EXPECT_EQ(SessionSnapshot::LoadFrom(path).bytes(), newer.bytes());
  std::vector<std::string> entries;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    entries.push_back(entry.path().filename().string());
  }
  EXPECT_EQ(entries, std::vector<std::string>{"session.usnp"});
  std::filesystem::remove_all(dir);
}

void WriteFileBytes(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

// LoadFrom checks the digest trailer before parsing any field: a truncated
// file, or one with a single flipped bit anywhere — header, window-state
// section or trailer — is rejected as corrupt. FNV-1a's per-byte step is a
// bijection of the running hash, so no single-byte change can slip through.
TEST(SessionSnapshotIoDeathTest, CorruptFilesAreRejected) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  KernelConfig k;
  k.type = KernelType::kSequential;
  FatTreeScenario parent = BuildFatTreeScenarioStreaming(k, PartitionMode::kSingle);
  parent.net->Run(Time::Microseconds(100));
  const std::vector<uint8_t> good = Session(parent.net.get()).Snapshot().bytes();
  std::vector<uint8_t> section;
  ASSERT_TRUE(CaptureWindowCheckpoint(*parent.net, &section));
  const size_t trailer = good.size() - sizeof(uint64_t);
  const size_t header = trailer - section.size();
  ASSERT_GT(header, 8u);

  const std::string path = ::testing::TempDir() + "unison_corrupt_test.usnp";
  for (const size_t keep :
       {size_t{0}, size_t{4}, header / 2, header + section.size() / 2,
        good.size() - 1}) {
    SCOPED_TRACE("truncated to " + std::to_string(keep));
    WriteFileBytes(path, std::vector<uint8_t>(good.begin(), good.begin() + keep));
    EXPECT_DEATH(SessionSnapshot::LoadFrom(path), "corrupt snapshot");
  }
  std::mt19937_64 rng(13);
  const size_t regions[3][2] = {{0, header}, {header, trailer}, {trailer, good.size()}};
  for (const auto& [begin, end] : regions) {
    for (int flip = 0; flip < 2; ++flip) {
      const size_t offset = begin + rng() % (end - begin);
      SCOPED_TRACE("bit flip at " + std::to_string(offset));
      std::vector<uint8_t> bad = good;
      bad[offset] ^= static_cast<uint8_t>(1u << (rng() % 8));
      WriteFileBytes(path, bad);
      EXPECT_DEATH(SessionSnapshot::LoadFrom(path), "corrupt snapshot");
    }
  }
  std::remove(path.c_str());
}

// Restores `bytes` in this (death-test child) process and reports a clean
// return; a rejection dies inside Restore with its "Session:" diagnostic.
[[noreturn]] void RestoreAndExit(const std::vector<uint8_t>& bytes) {
  Session::Restore(SessionSnapshot(bytes));
  std::fprintf(stderr, "restore returned\n");
  std::_Exit(0);
}

// Overwrites the digest trailer so the parser, not the checksum, has to
// judge the mutated body.
void Retrail(std::vector<uint8_t>* bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (size_t i = 0; i + sizeof h < bytes->size(); ++i) {
    h ^= (*bytes)[i];
    h *= 0x100000001b3ULL;
  }
  std::memcpy(bytes->data() + bytes->size() - sizeof h, &h, sizeof h);
}

// Seeded mutations of a valid snapshot, each with a consistent trailer:
// huge values over count fields (the first LP's event count, the link and
// LP counts) and at random offsets, single-bit flips anywhere, and
// truncation at field boundaries. Restore must either return or die with a
// Session: diagnostic — never an uncaught allocation exception, a fatal from
// another layer, or a crash.
TEST(SessionSnapshotIoDeathTest, MutatedBuffersRestoreOrFailCleanly) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  KernelConfig k;
  k.type = KernelType::kSequential;
  FatTreeScenario parent = BuildFatTreeScenarioStreaming(k, PartitionMode::kSingle);
  parent.net->Run(Time::Microseconds(100));
  const std::vector<uint8_t> good = Session(parent.net.get()).Snapshot().bytes();
  std::vector<uint8_t> section;
  ASSERT_TRUE(CaptureWindowCheckpoint(*parent.net, &section));
  const size_t body = good.size() - sizeof(uint64_t);
  const size_t header = body - section.size();
  // The section opens with the link count and one (up, delay) per link, then
  // the LP count and the first LP's clock, two counters and event count.
  const size_t lp_count_at = header + 4 + parent.net->links().size() * 9;
  const size_t first_events_at = lp_count_at + 4 + 3 * 8;

  std::vector<std::pair<std::string, std::vector<uint8_t>>> mutants;
  auto overwrite = [&](const std::string& what, size_t at, const void* v,
                       size_t n) {
    std::vector<uint8_t> m(good.begin(), good.end());
    std::memcpy(m.data() + at, v, n);
    mutants.emplace_back(what + " at " + std::to_string(at), std::move(m));
  };
  for (const uint64_t huge : {uint64_t{1} << 40, uint64_t{1} << 62, ~uint64_t{0}}) {
    overwrite("huge event count", first_events_at, &huge, sizeof huge);
  }
  const uint32_t huge32 = 0xffffffffu;
  overwrite("huge link count", header, &huge32, sizeof huge32);
  overwrite("huge LP count", lp_count_at, &huge32, sizeof huge32);
  std::mt19937_64 rng(16);
  for (int i = 0; i < 10; ++i) {
    const uint32_t v = i % 2 == 0 ? huge32 : 0x7fffffffu;
    overwrite("huge u32", rng() % (body - sizeof v), &v, sizeof v);
  }
  for (int i = 0; i < 16; ++i) {
    std::vector<uint8_t> m(good.begin(), good.end());
    const size_t at = rng() % body;
    m[at] ^= static_cast<uint8_t>(1u << (rng() % 8));
    mutants.emplace_back("bit flip at " + std::to_string(at), std::move(m));
  }
  for (const size_t keep :
       {size_t{8}, header, header + 4, lp_count_at, lp_count_at + 4,
        first_events_at, first_events_at + 8, header + section.size() / 2}) {
    std::vector<uint8_t> m(good.begin(), good.begin() + keep);
    m.resize(keep + sizeof(uint64_t));  // Room for the trailer.
    mutants.emplace_back("truncated to " + std::to_string(keep), std::move(m));
  }
  ASSERT_GE(mutants.size(), 32u);
  for (auto& [what, bytes] : mutants) {
    SCOPED_TRACE(what);
    Retrail(&bytes);
    EXPECT_EXIT(RestoreAndExit(bytes),
                [](int status) {
                  return (WIFEXITED(status) && WEXITSTATUS(status) == 0) ||
                         (WIFSIGNALED(status) && WTERMSIG(status) == SIGABRT);
                },
                "Session: |restore returned");
  }
}

// PutPacket never writes a control packet (its payload is a handle into the
// routing protocol of the process that sent it), so GetPacket must refuse
// one: an in-flight packet re-stamped as kControl, with a consistent
// trailer, dies at the kind byte instead of restoring a packet whose payload
// names nothing.
TEST(SessionSnapshotIoDeathTest, ControlPacketKindIsRejected) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  KernelConfig k;
  k.type = KernelType::kSequential;
  FatTreeScenario parent = BuildFatTreeScenarioStreaming(k, PartitionMode::kSingle);
  parent.net->Run(Time::Microseconds(100));
  std::vector<uint8_t> bytes = Session(parent.net.get()).Snapshot().bytes();

  // The encoding of one pending packet delivery up to its packet's kind
  // byte: key, node, tag, peer (PutEvent), all little-endian.
  std::vector<uint8_t> prefix;
  uint8_t kind = 0xff;
  auto put = [&prefix](const void* v, size_t n) {
    const auto* b = static_cast<const uint8_t*>(v);
    prefix.insert(prefix.end(), b, b + n);
  };
  parent.net->kernel().lp(0)->fel().ForEach([&](Event& ev) {
    const auto* deliver = ev.fn.TryAs<PacketDeliverEvent>();
    if (deliver == nullptr || !prefix.empty()) {
      return;
    }
    const int64_t ts = ev.key.ts.ps();
    const int64_t sender_ts = ev.key.sender_ts.ps();
    const uint8_t tag = static_cast<uint8_t>(ModelEventTag::kPacketDeliver);
    put(&ts, sizeof ts);
    put(&sender_ts, sizeof sender_ts);
    put(&ev.key.sender_node, sizeof ev.key.sender_node);
    put(&ev.key.seq, sizeof ev.key.seq);
    put(&ev.node, sizeof ev.node);
    put(&tag, sizeof tag);
    put(&deliver->peer, sizeof deliver->peer);
    kind = static_cast<uint8_t>(deliver->pkt.kind);
  });
  ASSERT_FALSE(prefix.empty()) << "no packet in flight at the snapshot";
  const auto at = std::search(bytes.begin(), bytes.end(), prefix.begin(), prefix.end());
  ASSERT_NE(at, bytes.end());
  ASSERT_EQ(std::search(at + 1, bytes.end(), prefix.begin(), prefix.end()),
            bytes.end());
  const size_t kind_at = static_cast<size_t>(at - bytes.begin()) + prefix.size();
  ASSERT_EQ(bytes[kind_at], kind);
  bytes[kind_at] = static_cast<uint8_t>(PacketKind::kControl);
  Retrail(&bytes);
  EXPECT_DEATH(Session::Restore(SessionSnapshot(bytes)),
               "Session: enum value out of range");
}

// The version check still rejects an older layout: a buffer re-stamped as
// v4 with a consistent trailer passes LoadFrom's digest check and then fails
// at the version field.
TEST(SessionSnapshotIoDeathTest, OlderVersionIsRejected) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  KernelConfig k;
  k.type = KernelType::kSequential;
  FatTreeScenario parent = BuildFatTreeScenarioStreaming(k, PartitionMode::kSingle);
  parent.net->Run(Time::Microseconds(100));
  std::vector<uint8_t> bytes = Session(parent.net.get()).Snapshot().bytes();
  const uint32_t v4 = 4;
  std::memcpy(bytes.data() + 4, &v4, sizeof v4);
  uint64_t h = 0xcbf29ce484222325ULL;
  for (size_t i = 0; i + sizeof h < bytes.size(); ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ULL;
  }
  std::memcpy(bytes.data() + bytes.size() - sizeof h, &h, sizeof h);
  const std::string path = ::testing::TempDir() + "unison_v4_test.usnp";
  WriteFileBytes(path, bytes);
  const SessionSnapshot loaded = SessionSnapshot::LoadFrom(path);
  std::remove(path.c_str());
  EXPECT_DEATH(Session::Restore(loaded), "unsupported snapshot version 4");
}

// --- One state format ---

// Snapshot → Fork → Snapshot of the un-run fork is byte-stable. The parent
// runs on the manual pod partition, the mode every fork replays (under
// kAuto the fork would rewrite the partition-mode byte).
TEST(SessionStateFormat, ForkResnapshotIsByteStable) {
  KernelConfig k;
  k.type = KernelType::kUnison;
  k.threads = 2;
  FatTreeScenario parent =
      BuildFatTreeScenarioStreaming(k, PartitionMode::kManual);
  parent.net->Run(Time::Milliseconds(2));
  Session session(parent.net.get());
  const SessionSnapshot snap = session.Snapshot();
  std::unique_ptr<Network> fork = session.Fork(snap);
  const SessionSnapshot again = Session(fork.get()).Snapshot();
  EXPECT_EQ(again.bytes(), snap.bytes());
  EXPECT_EQ(again.Digest(), snap.Digest());
}

// The snapshot is header + window-state section + trailer, and the section
// is byte for byte what CaptureWindowCheckpoint writes at the same boundary.
TEST(SessionStateFormat, SnapshotEndsWithTheCheckpointSection) {
  KernelConfig k;
  k.type = KernelType::kUnison;
  k.threads = 2;
  FatTreeScenario parent = BuildFatTreeScenarioStreaming(k, PartitionMode::kAuto);
  parent.net->Run(Time::Milliseconds(2));
  const SessionSnapshot snap = Session(parent.net.get()).Snapshot();
  std::vector<uint8_t> section;
  ASSERT_TRUE(CaptureWindowCheckpoint(*parent.net, &section));
  const std::vector<uint8_t>& bytes = snap.bytes();
  ASSERT_GT(bytes.size(), section.size() + sizeof(uint64_t));
  const auto body_end = bytes.end() - sizeof(uint64_t);
  EXPECT_TRUE(std::equal(section.begin(), section.end(),
                         body_end - static_cast<ptrdiff_t>(section.size())));
}

// --- Declined captures ---

// A progress-report ticker is a lambda event the state format cannot hold.
// At such a boundary every capture declines: the auto-checkpoint writes no
// file, and Snapshot() dies naming the event.
std::unique_ptr<Network> TickerScenario(SimConfig cfg) {
  cfg.kernel.type = KernelType::kUnison;
  cfg.kernel.threads = 2;
  auto net = std::make_unique<Network>(cfg);
  FatTreeTopo topo =
      BuildFatTree(*net, 4, 10'000'000'000ULL, Time::Microseconds(3));
  net->Finalize();
  GeneratePermutation(*net, topo.hosts, 200 * 1024, Time::Zero());
  net->EnableProgressReport(Time::Microseconds(500), [](Time, uint64_t) {});
  return net;
}

TEST(SessionDecline, AutoCheckpointWritesNoFileWithALambdaPending) {
  const std::string path = ::testing::TempDir() + "unison_declined_ckpt.usnp";
  std::remove(path.c_str());
  SimConfig cfg;
  cfg.auto_checkpoint_path = path;
  std::unique_ptr<Network> net = TickerScenario(cfg);
  for (int w = 1; w <= 3; ++w) {
    net->Run(Time::Milliseconds(w));
  }
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(SessionDeclineDeathTest, SnapshotNamesTheLambdaEvent) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  std::unique_ptr<Network> net = TickerScenario(SimConfig{});
  net->Run(Time::Milliseconds(1));
  Session session(net.get());
  EXPECT_DEATH(session.Snapshot(), "not a named model event");
}

// Satellite: the injection-stream counter is session state. Sibling forks
// that inject the same spec draw the same derived rng stream — identical to
// each other and to the parent performing the same injection after the
// snapshot (transparency extends through the injection path).
TEST(SessionFork, SiblingForksDrawIdenticalInjections) {
  KernelConfig k;
  k.type = KernelType::kUnison;
  k.threads = 2;
  FatTreeScenario parent = BuildFatTreeScenarioStreaming(k, PartitionMode::kAuto);

  auto burst = [&parent](uint64_t stream) {
    TrafficSpec spec;
    spec.hosts = parent.topo.hosts;
    spec.bisection_bps = parent.topo.bisection_bps;
    spec.load = 0.3;
    spec.duration = Time::Milliseconds(2);
    spec.rng_stream = stream;
    return spec;
  };

  parent.net->Run(Time::Milliseconds(1));
  const GeneratedTraffic first = InjectTraffic(*parent.net, burst(700));
  ASSERT_FALSE(first.flow_ids.empty());
  parent.net->Run(Time::Milliseconds(2));
  ASSERT_EQ(parent.net->injection_epoch(), 1u);

  Session session(parent.net.get());
  const SessionSnapshot snap = session.Snapshot();

  auto branch = [&session, &burst, &snap](bool inject) {
    std::unique_ptr<Network> fork = session.Fork(snap);
    EXPECT_EQ(fork->injection_epoch(), 1u);
    if (inject) {
      const GeneratedTraffic injected = InjectTraffic(*fork, burst(900));
      EXPECT_FALSE(injected.flow_ids.empty());
    }
    fork->Run(Time::Milliseconds(5));
    return fork->flow_monitor().Fingerprint();
  };
  const uint64_t sibling_a = branch(true);
  const uint64_t sibling_b = branch(true);
  const uint64_t no_inject = branch(false);
  EXPECT_EQ(sibling_a, sibling_b);
  EXPECT_NE(sibling_a, no_inject);

  InjectTraffic(*parent.net, burst(900));
  parent.net->Run(Time::Milliseconds(5));
  EXPECT_EQ(parent.net->flow_monitor().Fingerprint(), sibling_a);
}

// Divergence knobs: FailLink and ForkOptions::mutate_queue steer a branch
// away from the baseline, and equally-configured branches stay bit-identical
// to each other — the what-if sweep is deterministic per scenario.
// (Null-message is excluded: runtime global events like the link-down are
// outside that baseline's protocol, which session_test documents elsewhere.)
TEST(SessionFork, FailLinkAndQueueMutationDivergeDeterministically) {
  KernelConfig k;
  k.type = KernelType::kUnison;
  k.threads = 2;
  // Load 0.5: enough post-snapshot traffic that every core link matters and
  // shallow queues actually drop.
  FatTreeScenario parent = BuildFatTreeScenarioStreaming(
      k, PartitionMode::kAuto, 4, 10, 5, 1, 0.5);
  parent.net->Run(Time::Milliseconds(2));
  Session session(parent.net.get());
  const SessionSnapshot snap = session.Snapshot();

  auto run_to_end = [](std::unique_ptr<Network> net) {
    net->Run(Time::Milliseconds(5));
    return net->flow_monitor().Fingerprint();
  };

  const uint64_t baseline = run_to_end(session.Fork(snap));

  const uint32_t victim = static_cast<uint32_t>(parent.net->links().size()) - 1;
  auto failed_branch = [&] {
    std::unique_ptr<Network> fork = session.Fork(snap);
    fork->FailLink(victim, Time::Microseconds(2200));
    return run_to_end(std::move(fork));
  };
  const uint64_t failed_a = failed_branch();
  const uint64_t failed_b = failed_branch();
  EXPECT_EQ(failed_a, failed_b);
  EXPECT_NE(failed_a, baseline);

  ForkOptions shallow;
  shallow.mutate_queue = [](QueueConfig& q) { q.capacity_bytes = 3000; };
  auto shallow_branch = [&] { return run_to_end(session.Fork(snap, shallow)); };
  const uint64_t shallow_a = shallow_branch();
  const uint64_t shallow_b = shallow_branch();
  EXPECT_EQ(shallow_a, shallow_b);
  EXPECT_NE(shallow_a, baseline);

  // A link that failed *before* the snapshot: the down state rides in the
  // window-state section, and the fork resumes with the link still down,
  // landing on its un-forked twin's digest.
  FatTreeScenario twin = BuildFatTreeScenarioStreaming(
      k, PartitionMode::kAuto, 4, 10, 5, 1, 0.5);
  twin.net->FailLink(victim, Time::Milliseconds(1));
  twin.net->Run(Time::Milliseconds(2));
  ASSERT_FALSE(twin.net->links()[victim].up);
  Session twin_session(twin.net.get());
  std::unique_ptr<Network> failed_fork =
      twin_session.Fork(twin_session.Snapshot());
  EXPECT_FALSE(failed_fork->links()[victim].up);
  failed_fork->Run(Time::Milliseconds(5));
  twin.net->Run(Time::Milliseconds(5));
  EXPECT_TRUE(DigestOf(*failed_fork) == DigestOf(*twin.net));
  EXPECT_EQ(failed_fork->flow_monitor().Fingerprint(),
            twin.net->flow_monitor().Fingerprint());
}

// --- Live tuning plane ---

class ControllerTransparency : public ::testing::TestWithParam<int> {};

// The controller-transparency matrix: every kernel, tuning off vs an
// aggressive kAuto controller (react after a single round; treat every
// window with observable sync time as shrink-worthy), produces bit-identical
// fingerprints and digests. The controller only ever changes *how fast* the
// session runs — party counts, re-sort cadence, window slicing — all of
// which are results-neutral by the session invariants this file pins.
TEST_P(ControllerTransparency, TunedRunMatchesStaticRun) {
  const KernelCase kc = AllKernels()[GetParam()];
  SCOPED_TRACE(kc.name);

  SimConfig off;
  off.kernel = kc.config;
  off.partition = kc.partition;
  RunDigest off_digest;
  const RunOutcome off_out =
      RunFatTreeScenarioConfigured(off, 1, 4, 10, 5, &off_digest);

  SimConfig tuned = off;
  tuned.tuning = TuningMode::kAuto;
  tuned.tuning_config.min_rounds = 1;
  tuned.tuning_config.ps_low = 1.0;
  tuned.tuning_config.min_window_ps = 500'000'000;  // Floor at 0.5 ms.
  RunDigest tuned_digest;
  const RunOutcome tuned_out =
      RunFatTreeScenarioConfigured(tuned, 1, 4, 10, 5, &tuned_digest);

  EXPECT_EQ(tuned_out.fingerprint, off_out.fingerprint);
  EXPECT_EQ(tuned_out.events, off_out.events);
  EXPECT_EQ(tuned_out.summary.completed, off_out.summary.completed);
  EXPECT_EQ(tuned_out.lps, off_out.lps);
  EXPECT_TRUE(tuned_digest == off_digest);
}

std::string ControllerCaseName(const ::testing::TestParamInfo<int>& info) {
  static const char* const names[5] = {"sequential", "barrier", "nullmsg",
                                       "unison", "hybrid"};
  return names[info.param];
}

INSTANTIATE_TEST_SUITE_P(AllKernels, ControllerTransparency,
                         ::testing::Range(0, 5), ControllerCaseName);

// Satellite: a snapshot no longer freezes the knobs. The tunable epoch and
// values ride in the USNP buffer, a fork resumes with the parent's learned
// settings, and parent and fork can then tune independently — while both
// still land bit-identical to the untouched run.
TEST(SessionFork, TuningStateSurvivesForkAndDivergesIndependently) {
  KernelConfig k;
  k.type = KernelType::kUnison;
  k.threads = 2;
  const RunOutcome mono = RunFatTreeScenarioStreaming(k, PartitionMode::kAuto);

  FatTreeScenario parent = BuildFatTreeScenarioStreaming(k, PartitionMode::kAuto);
  parent.net->Run(Time::Milliseconds(1));

  // "Learn" something before the snapshot: one published epoch.
  Tunables learned = parent.net->tunable_store().Get();
  learned.sched_period = 3;
  parent.net->tunable_store().Publish(learned);

  Session session(parent.net.get());
  const SessionSnapshot snap = session.Snapshot();

  std::unique_ptr<Network> fork = session.Fork(snap);
  // The fork resumes with the parent's learned settings, not config defaults.
  EXPECT_EQ(fork->tunable_store().epoch(), 1u);
  EXPECT_EQ(fork->tunable_store().Get().sched_period, 3u);

  // Post-fork the two stores diverge independently.
  Tunables parent_next = parent.net->tunable_store().Get();
  parent_next.sched_period = 7;
  parent.net->tunable_store().Publish(parent_next);
  Tunables fork_next = fork->tunable_store().Get();
  fork_next.sched_period = 2;
  fork->tunable_store().Publish(fork_next);
  EXPECT_EQ(parent.net->tunable_store().Get().sched_period, 7u);
  EXPECT_EQ(fork->tunable_store().Get().sched_period, 2u);

  fork->Run(Time::Milliseconds(5));
  EXPECT_EQ(fork->kernel().window_tuning().epoch, 2u);
  EXPECT_EQ(fork->kernel().window_tuning().sched_period, 2u);
  EXPECT_EQ(fork->flow_monitor().Fingerprint(), mono.fingerprint);
  EXPECT_EQ(fork->kernel().session_events(), mono.events);

  parent.net->Run(Time::Milliseconds(5));
  EXPECT_EQ(parent.net->kernel().window_tuning().sched_period, 7u);
  EXPECT_EQ(parent.net->flow_monitor().Fingerprint(), mono.fingerprint);
  EXPECT_EQ(parent.net->kernel().session_events(), mono.events);
}

// Every ControllerConfig field rides in the USNP header, so a fork or a
// restore rebuilds the controller with the source's thresholds rather than
// the defaults. Each field below differs from its default.
TEST(SessionFork, TuningConfigSurvivesForkAndRestore) {
  SimConfig cfg;
  cfg.kernel.type = KernelType::kUnison;
  cfg.kernel.threads = 2;
  cfg.tuning = TuningMode::kAuto;
  ControllerConfig& t = cfg.tuning_config;
  t.ps_low = 0.3;
  t.min_window_ps = 60'000'000;
  t.initial_window_ps = 700'000'000;
  t.parks_per_round_high = 2.5;
  t.min_rounds = 5;
  Network net(cfg);
  FatTreeTopo topo = BuildFatTree(net, 4, 10000000000ULL, Time::Microseconds(3));
  net.Finalize();
  GeneratePermutation(net, topo.hosts, 200 * 1024, Time::Zero());
  net.Run(Time::Milliseconds(1));

  auto expect_same_tuning = [&t](const Network& rebuilt) {
    const ControllerConfig& r = rebuilt.config().tuning_config;
    EXPECT_EQ(r.ps_low, t.ps_low);
    EXPECT_EQ(r.min_window_ps, t.min_window_ps);
    EXPECT_EQ(r.initial_window_ps, t.initial_window_ps);
    EXPECT_EQ(r.parks_per_round_high, t.parks_per_round_high);
    EXPECT_EQ(r.min_rounds, t.min_rounds);
  };
  Session session(&net);
  const SessionSnapshot snap = session.Snapshot();
  {
    SCOPED_TRACE("restore");
    expect_same_tuning(*Session::Restore(snap));
  }
  {
    SCOPED_TRACE("fork");
    expect_same_tuning(*session.Fork(snap));
  }
}

// --- A WAN ring ---

// A 4-site WAN ring: four hosts behind each site's router on 1 us links, the
// routers joined by `cut_delay` links, one LP per site when `partition` is
// manual. Until `until`, TCP flows inside and across sites start every
// 150 us, over streaming Poisson load. Returns the last ring link.
uint32_t BuildWanRing(Network& net, Time cut_delay, Time until,
                      PartitionMode partition) {
  constexpr uint32_t kSites = 4;
  constexpr uint32_t kHostsPerSite = 4;
  constexpr uint64_t kBps = 10'000'000'000ULL;
  std::vector<std::vector<NodeId>> hosts(kSites);  // [site][host]
  uint32_t ring_link = 0;
  std::vector<NodeId> routers;
  std::vector<NodeId> all_hosts;
  std::vector<LpId> lp_of_node;
  for (uint32_t s = 0; s < kSites; ++s) {
    routers.push_back(net.AddNode());
    lp_of_node.push_back(s);
    for (uint32_t h = 0; h < kHostsPerSite; ++h) {
      hosts[s].push_back(net.AddNode());
      all_hosts.push_back(hosts[s].back());
      lp_of_node.push_back(s);
      net.AddLink(hosts[s][h], routers[s], kBps, Time::Microseconds(1));
    }
  }
  for (uint32_t s = 0; s < kSites; ++s) {
    ring_link = net.AddLink(routers[s], routers[(s + 1) % kSites], kBps,
                            cut_delay);
  }
  if (partition == PartitionMode::kManual) {
    net.SetManualPartition(kSites, std::move(lp_of_node));
  }
  net.Finalize();

  FlowSpec flow;
  for (int64_t t = 0; t < until.ps(); t += Time::Microseconds(150).ps()) {
    for (uint32_t s = 0; s < kSites; ++s) {
      for (uint32_t h = 0; h < kHostsPerSite; ++h) {
        flow.src = hosts[s][h];
        flow.dst = h == 0 ? hosts[(s + 1) % kSites][1]
                          : hosts[s][(h + 1) % kHostsPerSite];
        flow.bytes = 16 * 1024 + 4096 * h;
        flow.start = Time::Picoseconds(t + 7000 * (s * kHostsPerSite + h));
        InstallFlow(net, flow);
      }
    }
  }
  TrafficSpec streaming;
  streaming.hosts = all_hosts;
  streaming.bisection_bps = kBps;
  streaming.load = 0.2;
  streaming.duration = until;
  InstallFlowSources(net, streaming);
  return ring_link;
}

// --- One worker: the step loop ---

struct StepCase {
  const char* name;
  bool wan;        // The 4-site WAN ring, one LP per site; else a k=4 fat-tree.
  Time cut_delay;  // WAN only: the delay of the inter-site ring links.
};

// Test listings print the case by name, not as bytes holding a pointer.
void PrintTo(const StepCase& c, std::ostream* os) { *os << c.name; }

struct StepRun {
  RunDigest digest;
  uint32_t crossings = 0;  // Parent and fork.
  uint32_t early_stops = 0;
};

// Six windows: a fork after the second, then on the fork a progress ticker
// (its first tick one interval past the fork), a FailLink in the fourth
// window and a Stop() in the fifth, which ends that window early; it is run
// again to its stop time.
StepRun RunStepScenario(const StepCase& c, const KernelConfig& kernel,
                        PartitionMode partition) {
  SimConfig cfg;
  cfg.kernel = kernel;
  cfg.partition = partition;
  cfg.seed = 11;
  Network net(cfg);
  Time total;
  uint32_t fail_link = 0;
  if (c.wan) {
    total = Time::Microseconds(900);
    fail_link = BuildWanRing(net, c.cut_delay, total, partition);
  } else {
    total = Time::Milliseconds(3);
    FatTreeTopo topo =
        BuildFatTree(net, 4, 10'000'000'000ULL, Time::Microseconds(3));
    net.Finalize();
    GeneratePermutation(net, topo.hosts, 200 * 1024, Time::Zero());
    TrafficSpec traffic;
    traffic.hosts = topo.hosts;
    traffic.bisection_bps = topo.bisection_bps;
    traffic.load = 0.3;
    traffic.duration = total;
    InstallFlowSources(net, traffic);
    fail_link = static_cast<uint32_t>(net.links().size()) - 1;  // A core link.
  }

  StepRun out;
  std::unique_ptr<Network> fork;
  Network* live = &net;
  for (int w = 1; w <= 6; ++w) {
    const Time stop = Time::Picoseconds(total.ps() * w / 6);
    while (live->Run(stop).reason == RunReason::kStopRequested) {
      ++out.early_stops;
    }
    if (w != 2) {
      continue;
    }
    Session session(&net);
    fork = session.Fork(session.Snapshot());
    live = fork.get();
    live->EnableProgressReport(Time::Picoseconds(total.ps() * 7 / 18),
                               [](Time, uint64_t) {});
    live->FailLink(fail_link, Time::Picoseconds(total.ps() * 5 / 9));
    live->sim().ScheduleGlobal(Time::Picoseconds(total.ps() * 3 / 4),
                               [live] { live->sim().Stop(); });
  }
  for (Network* n : {&net, live}) {
    if (auto* round_kernel = dynamic_cast<RoundKernel*>(&n->kernel())) {
      out.crossings += round_kernel->barrier_crossings();
      EXPECT_EQ(n->kernel().session_rounds(), 0u);
    }
  }
  EXPECT_FALSE(live->links()[fail_link].up);
  out.digest = DigestOf(*live);
  return out;
}

class StepLoop : public ::testing::TestWithParam<StepCase> {};

// One worker steps each LP to its own safe bound, with no round and no
// barrier crossing, and matches the sequential kernel across windows, a
// fork, globals, a topology change and an early stop. With a 1 ps cut link
// each step covers at most 2 ps past its LP's head.
TEST_P(StepLoop, OneWorkerMatchesSequentialWithNoRoundsOrCaptures) {
  const StepCase& c = GetParam();
  KernelConfig seq;
  seq.type = KernelType::kSequential;
  const StepRun want = RunStepScenario(c, seq, PartitionMode::kSingle);
  EXPECT_GT(want.digest.event_count, 10'000u);
  EXPECT_EQ(want.early_stops, 1u);

  KernelConfig unison;
  unison.type = KernelType::kUnison;
  unison.threads = 1;
  KernelConfig hybrid;
  hybrid.type = KernelType::kHybrid;
  hybrid.ranks = 1;
  hybrid.threads = 1;
  for (const KernelConfig& k : {unison, hybrid}) {
    SCOPED_TRACE(k.type == KernelType::kUnison ? "unison" : "hybrid");
    const StepRun got = RunStepScenario(
        c, k, c.wan ? PartitionMode::kManual : PartitionMode::kAuto);
    EXPECT_EQ(got.digest.flow_fingerprint, want.digest.flow_fingerprint);
    EXPECT_EQ(got.digest.event_count, want.digest.event_count);
    EXPECT_TRUE(got.digest == want.digest);
    EXPECT_EQ(got.early_stops, 1u);
    EXPECT_EQ(got.crossings, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, StepLoop,
    ::testing::Values(StepCase{"wan_100ns", true, Time::Nanoseconds(100)},
                      StepCase{"wan_1ps", true, Time::Picoseconds(1)},
                      StepCase{"fattree_k4", false, Time::Zero()}),
    [](const ::testing::TestParamInfo<StepCase>& info) {
      return std::string(info.param.name);
    });

// The bound's tight terms, on two LPs joined by one 10 us cut link: host A
// and host C behind switch S on LP 0, host B on LP 1. A local C -> A flow
// keeps LP 0 busy throughout. A sends B a short flow every 250 us, and B is
// idle in between, so when A starts one, LP 0 steps two lookaheads ahead:
// B's first ACK lands just past that, and a step that ran to 3L would have
// passed it. At 1.2 ms, while B is idle, a global starts a B -> A flow: the
// event it inserts lowers B's head, or LP 0 would run past B's first packet.
TEST(StepBound, RepliesAndGlobalInsertsLandPastTheStep) {
  const auto run = [](const KernelConfig& kernel, PartitionMode partition) {
    SimConfig cfg;
    cfg.kernel = kernel;
    cfg.partition = partition;
    Network net(cfg);
    constexpr uint64_t kBps = 100'000'000'000ULL;
    const NodeId s = net.AddNode();
    const NodeId a = net.AddNode();
    const NodeId c = net.AddNode();
    const NodeId b = net.AddNode();
    net.AddLink(a, s, kBps, Time::Microseconds(1));
    net.AddLink(c, s, kBps, Time::Microseconds(1));
    net.AddLink(s, b, kBps, Time::Microseconds(10));
    if (partition == PartitionMode::kManual) {
      net.SetManualPartition(2, {0, 0, 0, 1});
    }
    net.Finalize();
    InstallFlow(net, FlowSpec{c, a, 64 * 1024 * 1024, Time::Zero(), {}});
    for (int64_t us = 50; us < 2000; us += 250) {
      InstallFlow(net, FlowSpec{a, b, 16 * 1024, Time::Microseconds(us), {}});
    }
    const Time start = Time::Microseconds(1200);
    const uint32_t flow = net.flow_monitor().Register(b, a, 16 * 1024, start);
    Network* const n = &net;
    net.sim().ScheduleGlobal(start, [n, flow, a, b, start] {
      n->kernel().ScheduleOnNode(
          b, start, FlowStartEvent{n, flow, b, a, 16 * 1024, n->config().tcp});
    });
    net.Run(Time::Milliseconds(2));
    return DigestOf(net);
  };
  KernelConfig seq;
  seq.type = KernelType::kSequential;
  const RunDigest want = run(seq, PartitionMode::kSingle);
  KernelConfig unison;
  unison.type = KernelType::kUnison;
  unison.threads = 1;
  const RunDigest got = run(unison, PartitionMode::kManual);
  EXPECT_EQ(got.flow_fingerprint, want.flow_fingerprint);
  EXPECT_EQ(got.event_count, want.event_count);
  EXPECT_TRUE(got == want);
}

// --- Automatic resume checkpoints ---

// A non-empty auto_checkpoint_path saves the session at every window
// boundary mid-run; killing the process and resuming from the file
// (LoadFrom + Session::Restore) converges to the same end state as the
// uninterrupted run — and the periodic saves never perturb the parent.
TEST(SessionAutoCheckpoint, PeriodicSnapshotResumesBitIdentical) {
  KernelConfig k;
  k.type = KernelType::kUnison;
  k.threads = 2;
  const RunOutcome mono = RunFatTreeScenarioStreaming(k, PartitionMode::kAuto, 1);

  const std::string path = ::testing::TempDir() + "unison_auto_ckpt_test.usnp";
  SimConfig cfg;
  cfg.kernel = k;
  cfg.auto_checkpoint_path = path;
  cfg.seed = 1;
  Network net(cfg);
  FatTreeTopo topo =
      BuildFatTree(net, 4, 10'000'000'000ULL, Time::Microseconds(3));
  net.Finalize();
  GeneratePermutation(net, topo.hosts, 200 * 1024, Time::Zero());
  TrafficSpec traffic;
  traffic.hosts = topo.hosts;
  traffic.bisection_bps = topo.bisection_bps;
  traffic.load = 0.1;
  traffic.duration = Time::Milliseconds(5);
  InstallFlowSources(net, traffic);

  net.Run(Time::Milliseconds(1));
  net.Run(Time::Milliseconds(2));

  // "Crash" here: the latest auto-save holds the 2 ms boundary.
  const SessionSnapshot snap = SessionSnapshot::LoadFrom(path);
  std::remove(path.c_str());
  EXPECT_GT(snap.size_bytes(), 0u);
  std::unique_ptr<Network> resumed = Session::Restore(snap);
  resumed->Run(Time::Milliseconds(5));
  EXPECT_EQ(resumed->flow_monitor().Fingerprint(), mono.fingerprint);
  EXPECT_EQ(resumed->kernel().session_events(), mono.events);

  // The parent was never perturbed by its own periodic saves.
  net.Run(Time::Milliseconds(5));
  std::remove(path.c_str());  // Runs 3..5 saved again; clean up.
  EXPECT_EQ(net.flow_monitor().Fingerprint(), mono.fingerprint);
  EXPECT_EQ(net.kernel().session_events(), mono.events);
}

// Satellite: reading the session clock before Finalize is a configuration
// error with a diagnostic, not a null-kernel dereference.
TEST(SessionStateDeathTest, SessionTimeBeforeFinalizeIsFatal) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  SimConfig cfg;
  Network net(cfg);
  EXPECT_DEATH((void)net.session_time(), "session_time");
}

// Satellite: KernelConfig::Validate rejects nonsense with a clear message.
TEST(KernelConfigValidate, RejectsBadConfigs) {
  KernelConfig ok;
  ok.type = KernelType::kUnison;
  ok.threads = 4;
  EXPECT_TRUE(ok.Validate().empty());

  KernelConfig zero_threads = ok;
  zero_threads.threads = 0;
  EXPECT_NE(zero_threads.Validate().find("threads"), std::string::npos);

  KernelConfig bad_ranks;
  bad_ranks.type = KernelType::kHybrid;
  bad_ranks.ranks = 0;
  EXPECT_NE(bad_ranks.Validate().find("ranks"), std::string::npos);
}

}  // namespace
}  // namespace unison
