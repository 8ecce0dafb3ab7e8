// Distance-vector routing: convergence, failure reaction, data delivery.
#include <gtest/gtest.h>

#include "src/net/app.h"
#include "src/net/network.h"
#include "src/net/routing.h"

namespace unison {
namespace {

// Square with a diagonal:  0 - 1
//                          |   |
//                          3 - 2   plus 0-2.
struct SquareNet {
  SimConfig cfg;
  std::unique_ptr<Network> net;
  uint32_t l01, l12, l23, l30, l02;

  explicit SquareNet(KernelType kernel = KernelType::kSequential) {
    cfg.kernel.type = kernel;
    cfg.kernel.threads = 2;
    net = std::make_unique<Network>(cfg);
    for (int i = 0; i < 4; ++i) {
      net->AddNode();
    }
    const uint64_t bps = 1000000000ULL;
    const Time d = Time::Milliseconds(1);
    l01 = net->AddLink(0, 1, bps, d);
    l12 = net->AddLink(1, 2, bps, d);
    l23 = net->AddLink(2, 3, bps, d);
    l30 = net->AddLink(3, 0, bps, d);
    l02 = net->AddLink(0, 2, bps, d);
    net->EnableDistanceVector(Time::Milliseconds(50));
    net->Finalize();
  }
};

TEST(DistanceVector, ConvergesToShortestPaths) {
  SquareNet s;
  s.net->Run(Time::Milliseconds(400));
  // Expected hop counts in the square-with-diagonal: every pair is adjacent
  // except (1, 3), which is two hops.
  const uint32_t expected[4][4] = {
      {0, 1, 1, 1},
      {1, 0, 1, 2},
      {1, 1, 0, 1},
      {1, 2, 1, 0},
  };
  for (NodeId n = 0; n < 4; ++n) {
    const DvState* dv = s.net->node(n).dv();
    ASSERT_NE(dv, nullptr);
    for (NodeId d = 0; d < 4; ++d) {
      EXPECT_EQ(dv->dist[d], expected[n][d]) << n << "->" << d;
    }
  }
}

TEST(DistanceVector, DataFlowsOnceConverged) {
  SquareNet s;
  // Give the protocol 200ms to converge, then start a flow 1 -> 3.
  InstallFlow(*s.net, FlowSpec{1, 3, 200000, Time::Milliseconds(200), {}});
  s.net->Run(Time::Seconds(3));
  const FlowRecord& f = s.net->flow_monitor().flow(0);
  EXPECT_TRUE(f.completed);
  EXPECT_EQ(f.rx_bytes, 200000u);
}

TEST(DistanceVector, ReroutesAroundLinkFailure) {
  SquareNet s;
  // Fail the diagonal 0-2 mid-run via a global event; 0 must re-learn a
  // 2-hop route to 2 and traffic started afterwards must still arrive.
  Network* net = s.net.get();
  const uint32_t diag = s.l02;
  net->sim().ScheduleGlobal(Time::Milliseconds(300),
                            [net, diag] { net->SetLinkUp(diag, false); });
  InstallFlow(*net, FlowSpec{0, 2, 150000, Time::Milliseconds(600), {}});
  net->Run(Time::Seconds(3));
  EXPECT_EQ(net->node(0).dv()->dist[2], 2u);
  const FlowRecord& f = net->flow_monitor().flow(0);
  EXPECT_TRUE(f.completed);
  EXPECT_EQ(f.rx_bytes, 150000u);
}

TEST(DistanceVector, WorksUnderUnisonKernel) {
  // The same protocol, unmodified, under the parallel kernel — the
  // user-transparency claim applied to a dynamic routing model. Mid-run the
  // diagonal fails while node 0's 100 ms advertisement to node 2 is still on
  // the wire (1 ms links): node 2 drops it on arrival, and the advertisement
  // it names crossed LPs as a handle the whole way.
  SquareNet seq(KernelType::kSequential);
  SquareNet par(KernelType::kUnison);
  for (SquareNet* s : {&seq, &par}) {
    InstallFlow(*s->net, FlowSpec{1, 3, 100000, Time::Milliseconds(200), {}});
    s->net->FailLink(s->l02, Time::Microseconds(100500));
    s->net->Run(Time::Seconds(2));
  }
  EXPECT_EQ(seq.net->kernel().processed_events(), par.net->kernel().processed_events());
  EXPECT_EQ(seq.net->flow_monitor().Fingerprint(), par.net->flow_monitor().Fingerprint());
  EXPECT_TRUE(par.net->flow_monitor().flow(0).completed);
  for (NodeId n = 0; n < 4; ++n) {
    EXPECT_EQ(seq.net->node(n).dv()->dist, par.net->node(n).dv()->dist) << n;
    EXPECT_EQ(seq.net->node(n).dv()->port, par.net->node(n).dv()->port) << n;
  }
  EXPECT_EQ(par.net->node(0).dv()->dist[2], 2u);  // Around the failed diagonal.
}

TEST(DistanceVector, CountsProtocolOverhead) {
  SquareNet s;
  s.net->Run(Time::Milliseconds(400));
  EXPECT_GT(s.net->dv_routing()->total_updates(), 4u * 4u);
}

}  // namespace
}  // namespace unison
