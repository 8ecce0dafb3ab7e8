// Cross-cutting integration details: digests, progress reports, device
// state changes mid-flight, statistics plumbing.
#include <gtest/gtest.h>

#include <sstream>

#include "src/net/app.h"
#include "src/net/network.h"
#include "src/stats/digest.h"
#include "src/topo/fat_tree.h"
#include "src/traffic/generator.h"

namespace unison {
namespace {

TEST(Misc, TimeStreamsAsPicoseconds) {
  std::ostringstream os;
  os << Time::Nanoseconds(2);
  EXPECT_EQ(os.str(), "2000ps");
}

TEST(Misc, RunDigestComparesEventCountAndFingerprint) {
  RunDigest a{100, 0xabc, 1.0, 2.0};
  RunDigest b{100, 0xabc, 9.0, 9.0};  // Derived metrics don't participate.
  RunDigest c{101, 0xabc, 1.0, 2.0};
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
}

TEST(Misc, ProgressReportFiresAtConfiguredInterval) {
  SimConfig cfg;
  cfg.kernel.type = KernelType::kUnison;
  cfg.kernel.threads = 2;
  Network net(cfg);
  FatTreeTopo topo = BuildFatTree(net, 4, 10000000000ULL, Time::Microseconds(3));
  net.Finalize();
  GeneratePermutation(net, topo.hosts, 200000, Time::Zero());
  std::vector<std::pair<Time, uint64_t>> reports;
  net.EnableProgressReport(Time::Milliseconds(1), [&reports](Time now, uint64_t events) {
    reports.emplace_back(now, events);
  });
  net.Run(Time::Milliseconds(5));
  // Reports at 1,2,3,4ms (5ms is >= stop).
  ASSERT_EQ(reports.size(), 4u);
  EXPECT_EQ(reports[0].first, Time::Milliseconds(1));
  EXPECT_EQ(reports[3].first, Time::Milliseconds(4));
  // Event counts are monotone and end below the final total.
  for (size_t i = 1; i < reports.size(); ++i) {
    EXPECT_GE(reports[i].second, reports[i - 1].second);
  }
  EXPECT_GT(reports[0].second, 0u);
  EXPECT_LE(reports.back().second, net.kernel().processed_events());
}

// A ticker enabled between windows starts one interval past the session
// time, and reports the session's events so far, not the window's.
TEST(Misc, ProgressReportEnabledMidSessionTicksFromTheSessionTime) {
  KernelConfig sequential;
  sequential.type = KernelType::kSequential;
  KernelConfig unison;
  unison.type = KernelType::kUnison;
  unison.threads = 2;
  for (const KernelConfig& k : {sequential, unison}) {
    SCOPED_TRACE(k.type == KernelType::kSequential ? "sequential" : "unison");
    SimConfig cfg;
    cfg.kernel = k;
    Network net(cfg);
    FatTreeTopo topo = BuildFatTree(net, 4, 10000000000ULL, Time::Microseconds(3));
    net.Finalize();
    TrafficSpec traffic;
    traffic.hosts = topo.hosts;
    traffic.bisection_bps = topo.bisection_bps;
    traffic.load = 0.2;
    traffic.duration = Time::Milliseconds(4);
    GenerateTraffic(net, traffic);
    net.Run(Time::Milliseconds(2));
    const uint64_t before = net.kernel().session_events();
    std::vector<std::pair<Time, uint64_t>> reports;
    net.EnableProgressReport(Time::Microseconds(500),
                             [&reports](Time now, uint64_t events) {
                               reports.emplace_back(now, events);
                             });
    net.Run(Time::Milliseconds(4));
    // Ticks at 2.5, 3 and 3.5 ms (4 ms is >= stop).
    ASSERT_EQ(reports.size(), 3u);
    EXPECT_EQ(reports[0].first, Time::Microseconds(2500));
    EXPECT_EQ(reports[1].first, Time::Microseconds(3000));
    EXPECT_EQ(reports[2].first, Time::Microseconds(3500));
    EXPECT_GE(reports[0].second, before);
    for (size_t i = 1; i < reports.size(); ++i) {
      EXPECT_GE(reports[i].second, reports[i - 1].second);
    }
    EXPECT_LE(reports.back().second, net.kernel().session_events());
  }
}

TEST(Misc, ProgressReportDoesNotPerturbResults) {
  auto run = [](bool report) {
    SimConfig cfg;
    cfg.kernel.type = KernelType::kUnison;
    cfg.kernel.threads = 2;
    Network net(cfg);
    FatTreeTopo topo = BuildFatTree(net, 4, 10000000000ULL, Time::Microseconds(3));
    net.Finalize();
    GeneratePermutation(net, topo.hosts, 200000, Time::Zero());
    if (report) {
      net.EnableProgressReport(Time::Milliseconds(1), [](Time, uint64_t) {});
    }
    net.Run(Time::Milliseconds(5));
    return net.flow_monitor().Fingerprint();
  };
  EXPECT_EQ(run(true), run(false));
}

TEST(Misc, LinkDownMidTransferStallsThenRecovers) {
  SimConfig cfg;
  cfg.kernel.type = KernelType::kSequential;
  cfg.tcp.min_rto = Time::Milliseconds(2);
  cfg.tcp.initial_rto = Time::Milliseconds(2);
  Network net(cfg);
  const NodeId a = net.AddNode();
  const NodeId b = net.AddNode();
  const uint32_t link = net.AddLink(a, b, 10000000ULL, Time::Microseconds(100));
  net.Finalize();
  InstallFlow(net, FlowSpec{a, b, 500000, Time::Zero(), {}});
  Network* netp = &net;
  net.sim().ScheduleGlobal(Time::Milliseconds(20),
                           [netp, link] { netp->SetLinkUp(link, false); });
  net.sim().ScheduleGlobal(Time::Milliseconds(120),
                           [netp, link] { netp->SetLinkUp(link, true); });
  net.Run(Time::Seconds(10));
  const FlowRecord& f = net.flow_monitor().flow(0);
  EXPECT_TRUE(f.completed);
  EXPECT_EQ(f.rx_bytes, 500000u);
  EXPECT_GT(f.retransmits, 0u);               // The outage forced RTOs.
  EXPECT_GT(f.fct, Time::Milliseconds(120));  // Could not finish before re-up.
}

TEST(Misc, DeviceStatsCountTransmissions) {
  SimConfig cfg;
  cfg.kernel.type = KernelType::kSequential;
  Network net(cfg);
  const NodeId a = net.AddNode();
  const NodeId b = net.AddNode();
  net.AddLink(a, b, 1000000000ULL, Time::Microseconds(10));
  net.Finalize();
  InstallFlow(net, FlowSpec{a, b, 10 * kMss, Time::Zero(), {}});
  net.Run(Time::Seconds(1));
  const DeviceStats& tx = net.node(a).device(0)->stats();
  EXPECT_EQ(tx.tx_packets, 10u);  // Ten full segments, no loss.
  EXPECT_EQ(tx.tx_bytes, 10u * (kMss + kHeaderBytes));
  const DeviceStats& ack = net.node(b).device(0)->stats();
  EXPECT_EQ(ack.tx_packets, 10u);  // One ack per segment.
  EXPECT_EQ(net.node(b).stats().delivered, 10u);
}

TEST(Misc, NoRouteCountsAndDoesNotCrash) {
  SimConfig cfg;
  cfg.kernel.type = KernelType::kSequential;
  Network net(cfg);
  const NodeId a = net.AddNode();
  const NodeId b = net.AddNode();
  net.AddNode();  // c: isolated.
  net.AddLink(a, b, 1000000000ULL, Time::Microseconds(10));
  net.Finalize();
  InstallFlow(net, FlowSpec{a, 2, 10000, Time::Zero(), {}});  // To the island.
  net.Run(Time::Milliseconds(50));
  EXPECT_FALSE(net.flow_monitor().flow(0).completed);
  EXPECT_GT(net.node(a).stats().no_route, 0u);
}

TEST(Misc, FlowSummaryPercentiles) {
  FlowMonitor fm;
  for (int i = 0; i < 100; ++i) {
    const uint32_t id = fm.Register(0, 1, 1000, Time::Zero());
    fm.Complete(id, Time::Milliseconds(i + 1));
  }
  const FlowSummary s = fm.Summarize();
  EXPECT_EQ(s.completed, 100u);
  EXPECT_NEAR(s.mean_fct_ms, 50.5, 1e-9);
  EXPECT_NEAR(s.p99_fct_ms, 99.0, 1.0);
}

TEST(Misc, GeneratorRedirectTargetsTailClusterOnly) {
  SimConfig cfg;
  cfg.kernel.type = KernelType::kSequential;
  Network net(cfg);
  FatTreeTopo topo = BuildFatTree(net, 4, 10000000000ULL, Time::Microseconds(3));
  net.Finalize();
  TrafficSpec spec;
  spec.hosts = topo.hosts;
  spec.bisection_bps = topo.bisection_bps;
  spec.load = 0.3;
  spec.duration = Time::Milliseconds(20);
  spec.redirect_prob = 1.0;
  spec.redirect_begin = 12;  // Last pod's hosts.
  GenerateTraffic(net, spec);
  net.flow_monitor().ForEachFlow([&](const FlowRecord& f) {
    bool in_tail = false;
    for (uint32_t i = 12; i < 16; ++i) {
      in_tail |= f.dst == topo.hosts[i];
    }
    EXPECT_TRUE(in_tail) << "flow " << f.id << " dst " << f.dst;
  });
}

}  // namespace
}  // namespace unison
