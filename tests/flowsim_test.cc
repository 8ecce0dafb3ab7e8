// Flow-level (max-min fluid) simulator: fairness properties and agreement
// with packet-level DES on workloads where the fluid assumptions hold.
#include <gtest/gtest.h>

#include "bench/flow_level.h"
#include "src/net/app.h"
#include "src/net/network.h"

namespace unison {
namespace {

TEST(MaxMin, SingleBottleneckSharedEqually) {
  // Three flows over one link of 9: each gets 3.
  const std::vector<std::vector<uint32_t>> paths = {{0}, {0}, {0}};
  const auto rates = FlowLevelSimulator::MaxMinRates(paths, {9.0});
  EXPECT_DOUBLE_EQ(rates[0], 3.0);
  EXPECT_DOUBLE_EQ(rates[1], 3.0);
  EXPECT_DOUBLE_EQ(rates[2], 3.0);
}

TEST(MaxMin, ClassicTwoLinkExample) {
  // Links: A (cap 10), B (cap 4). Flow 0 uses A+B, flow 1 uses A, flow 2
  // uses B. Max-min: B's fair share 2 fixes flows 0 and 2 at 2; flow 1 then
  // gets the rest of A: 8.
  const std::vector<std::vector<uint32_t>> paths = {{0, 1}, {0}, {1}};
  const auto rates = FlowLevelSimulator::MaxMinRates(paths, {10.0, 4.0});
  EXPECT_DOUBLE_EQ(rates[0], 2.0);
  EXPECT_DOUBLE_EQ(rates[1], 8.0);
  EXPECT_DOUBLE_EQ(rates[2], 2.0);
}

TEST(MaxMin, NoLinkOversubscribed) {
  Rng rng(41, 0);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t links = 3 + rng.NextU64Below(5);
    std::vector<double> cap(links);
    for (auto& c : cap) {
      c = 1.0 + static_cast<double>(rng.NextU64Below(100));
    }
    std::vector<std::vector<uint32_t>> paths(4 + rng.NextU64Below(8));
    for (auto& p : paths) {
      const size_t hops = 1 + rng.NextU64Below(links);
      for (size_t h = 0; h < hops; ++h) {
        p.push_back(static_cast<uint32_t>(rng.NextU64Below(links)));
      }
    }
    const auto rates = FlowLevelSimulator::MaxMinRates(paths, cap);
    std::vector<double> used(links, 0);
    for (size_t f = 0; f < paths.size(); ++f) {
      EXPECT_GT(rates[f], 0.0);
      for (uint32_t l : paths[f]) {
        used[l] += rates[f];
      }
    }
    for (size_t l = 0; l < links; ++l) {
      EXPECT_LE(used[l], cap[l] * (1 + 1e-9)) << "link " << l;
    }
  }
}

TEST(FlowLevel, MatchesAnalyticSingleLink) {
  SimConfig cfg;
  Network net(cfg);
  const NodeId a = net.AddNode();
  const NodeId b = net.AddNode();
  net.AddLink(a, b, 100000000ULL, Time::Microseconds(10));
  net.Finalize();
  FlowLevelSimulator fluid(net);
  // Two simultaneous 1MB flows on a 100Mb link: each at 50Mb until both end
  // at 2 * 8e6/1e8... they share: each 1MB at 50Mbps -> 0.16s.
  std::vector<FluidFlow> flows = {{a, b, 1000000, Time::Zero()},
                                  {a, b, 1000000, Time::Zero()}};
  const auto res = fluid.Run(flows, Time::Seconds(10));
  ASSERT_TRUE(res[0].completed);
  ASSERT_TRUE(res[1].completed);
  EXPECT_NEAR(res[0].fct.ToSeconds(), 0.16, 1e-6);
  EXPECT_NEAR(res[1].fct.ToSeconds(), 0.16, 1e-6);
}

TEST(FlowLevel, StaggeredArrivalSpeedsUpSurvivor) {
  SimConfig cfg;
  Network net(cfg);
  const NodeId a = net.AddNode();
  const NodeId b = net.AddNode();
  net.AddLink(a, b, 100000000ULL, Time::Microseconds(10));
  net.Finalize();
  FlowLevelSimulator fluid(net);
  // Each flow is 80Mb on a 100Mb link; flow 1 arrives at t=0.04.
  std::vector<FluidFlow> flows = {{a, b, 10000000, Time::Zero()},
                                  {a, b, 10000000, Time::Seconds(0.04)}};
  const auto res = fluid.Run(flows, Time::Seconds(10));
  // Flow 0: 4Mb alone, then 76Mb at 50Mbps -> FCT 0.04 + 1.52 = 1.56s.
  EXPECT_NEAR(res[0].fct.ToSeconds(), 1.56, 1e-6);
  // Flow 1: 76Mb shared (1.52s), final 4Mb alone at 100Mb (0.04s) -> 1.56s.
  EXPECT_NEAR(res[1].fct.ToSeconds(), 1.56, 1e-6);
  // The late arrival still finishes later in absolute time.
  EXPECT_LT(flows[0].start + res[0].fct, flows[1].start + res[1].fct);
}

TEST(FlowLevel, HorizonLeavesSlowFlowsIncomplete) {
  SimConfig cfg;
  Network net(cfg);
  const NodeId a = net.AddNode();
  const NodeId b = net.AddNode();
  net.AddLink(a, b, 1000000ULL, Time::Microseconds(10));
  net.Finalize();
  FlowLevelSimulator fluid(net);
  std::vector<FluidFlow> flows = {{a, b, 10000000, Time::Zero()}};  // 80s needed.
  const auto res = fluid.Run(flows, Time::Seconds(1));
  EXPECT_FALSE(res[0].completed);
}

TEST(FlowLevel, TracksPacketLevelForLongFlows) {
  // Long flows on a shared bottleneck: the fluid estimate should land within
  // ~25% of full packet-level DES when the transport sustains utilization
  // (DCTCP; NewReno's loss recovery would blur it much further — that gap is
  // exactly why the paper's community keeps packet-level DES as ground
  // truth).
  SimConfig cfg;
  cfg.kernel.type = KernelType::kSequential;
  cfg.tcp.min_rto = Time::Milliseconds(2);
  cfg.tcp.initial_rto = Time::Milliseconds(2);
  cfg.tcp.dctcp = true;
  cfg.queue.kind = QueueConfig::Kind::kDctcp;
  cfg.queue.red_min_th = 65 * 1500;
  Network net(cfg);
  const NodeId a = net.AddNode();
  const NodeId b = net.AddNode();
  const NodeId m = net.AddNode();
  net.AddLink(a, m, 1000000000ULL, Time::Microseconds(20));
  net.AddLink(b, m, 1000000000ULL, Time::Microseconds(20));
  const NodeId d = net.AddNode();
  net.AddLink(m, d, 1000000000ULL, Time::Microseconds(20));
  net.Finalize();

  std::vector<FluidFlow> flows = {{a, d, 20000000, Time::Zero()},
                                  {b, d, 20000000, Time::Zero()}};
  FlowLevelSimulator fluid(net);
  const auto est = fluid.Run(flows, Time::Seconds(10));

  for (const FluidFlow& f : flows) {
    InstallFlow(net, FlowSpec{f.src, f.dst, f.bytes, f.start, {}});
  }
  net.Run(Time::Seconds(10));

  for (size_t i = 0; i < flows.size(); ++i) {
    const FlowRecord& real = net.flow_monitor().flow(static_cast<uint32_t>(i));
    ASSERT_TRUE(real.completed);
    ASSERT_TRUE(est[i].completed);
    EXPECT_NEAR(est[i].fct.ToSeconds() / real.fct.ToSeconds(), 1.0, 0.25) << i;
  }
}

}  // namespace
}  // namespace unison
