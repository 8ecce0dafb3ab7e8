// Fine-grained partition (Algorithm 1), the manual baselines, and the round
// kernel's setup placement (PartitionMap).
#include <gtest/gtest.h>

#include <set>

#include "src/net/network.h"
#include "src/partition/fine_grained.h"
#include "src/partition/manual.h"
#include "src/partition/partition_map.h"
#include "src/topo/bcube.h"
#include "src/topo/fat_tree.h"
#include "src/topo/torus.h"
#include "src/topo/wan.h"

namespace unison {
namespace {

TopoGraph Line(int n, Time delay) {
  TopoGraph g;
  g.num_nodes = n;
  for (int i = 0; i + 1 < n; ++i) {
    g.edges.push_back(TopoEdge{static_cast<NodeId>(i), static_cast<NodeId>(i + 1), delay, true});
  }
  return g;
}

TEST(MedianDelay, LowerMedianOfLinkDelays) {
  TopoGraph g;
  g.num_nodes = 5;
  g.edges = {
      TopoEdge{0, 1, Time::Microseconds(1), true},
      TopoEdge{1, 2, Time::Microseconds(5), true},
      TopoEdge{2, 3, Time::Microseconds(3), true},
      TopoEdge{3, 4, Time::Microseconds(9), true},
  };
  // Sorted: 1, 3, 5, 9 -> lower median is 3.
  EXPECT_EQ(MedianDelay(g), Time::Microseconds(3));
}

TEST(FineGrained, UniformDelaysCutEverything) {
  const TopoGraph g = Line(10, Time::Microseconds(3));
  const Partition p = FineGrainedPartition(g);
  EXPECT_EQ(p.num_lps, 10u);  // Median == every delay -> all links cut.
  EXPECT_EQ(p.lookahead, Time::Microseconds(3));
  EXPECT_TRUE(ValidatePartition(g, p));
  EXPECT_EQ(p.cut_edges.size(), 9u);
}

TEST(FineGrained, ShortLinksMergeNodes) {
  TopoGraph g;
  g.num_nodes = 4;
  g.edges = {
      TopoEdge{0, 1, Time::Nanoseconds(10), true},   // Below median: keep.
      TopoEdge{1, 2, Time::Microseconds(3), true},   // Cut.
      TopoEdge{2, 3, Time::Microseconds(3), true},   // Cut.
  };
  const Partition p = FineGrainedPartition(g);
  EXPECT_EQ(p.num_lps, 3u);
  EXPECT_EQ(p.lp_of_node[0], p.lp_of_node[1]);
  EXPECT_NE(p.lp_of_node[1], p.lp_of_node[2]);
  EXPECT_EQ(p.lookahead, Time::Microseconds(3));
}

TEST(FineGrained, ZeroDelayLinksNeverCut) {
  // Majority of links have zero delay: the median is zero, but cutting them
  // would collapse the lookahead, so they must merge instead.
  TopoGraph g;
  g.num_nodes = 4;
  g.edges = {
      TopoEdge{0, 1, Time::Zero(), true},
      TopoEdge{1, 2, Time::Zero(), true},
      TopoEdge{2, 3, Time::Microseconds(1), true},
  };
  const Partition p = FineGrainedPartition(g);
  EXPECT_EQ(p.num_lps, 2u);
  EXPECT_EQ(p.lookahead, Time::Microseconds(1));
  EXPECT_TRUE(ValidatePartition(g, p));
}

TEST(FineGrained, StatefulLinksNeverCut) {
  TopoGraph g;
  g.num_nodes = 3;
  g.edges = {
      TopoEdge{0, 1, Time::Microseconds(3), false},  // Stateful: keep.
      TopoEdge{1, 2, Time::Microseconds(3), true},
  };
  const Partition p = FineGrainedPartition(g);
  EXPECT_EQ(p.num_lps, 2u);
  EXPECT_EQ(p.lp_of_node[0], p.lp_of_node[1]);
}

TEST(FineGrained, LookaheadIsMinimumCutDelay) {
  TopoGraph g;
  g.num_nodes = 3;
  g.edges = {
      TopoEdge{0, 1, Time::Microseconds(3), true},
      TopoEdge{1, 2, Time::Microseconds(7), true},
  };
  const Partition p = FineGrainedPartition(g);
  EXPECT_EQ(p.num_lps, 3u);
  EXPECT_EQ(p.lookahead, Time::Microseconds(3));
  // Per-LP lookahead: LP of node 2 only touches the 7us edge.
  EXPECT_EQ(p.lp_lookahead[p.lp_of_node[2]], Time::Microseconds(7));
}

class TopologyPartitionTest : public ::testing::TestWithParam<int> {};

TEST_P(TopologyPartitionTest, AutoPartitionIsValidAndFine) {
  SimConfig cfg;
  Network net(cfg);
  switch (GetParam()) {
    case 0:
      BuildFatTree(net, 4, 10000000000ULL, Time::Microseconds(3));
      break;
    case 1:
      BuildTorus2D(net, 6, 6, 10000000000ULL, Time::Microseconds(30));
      break;
    case 2:
      BuildBCube(net, 4, 2, 10000000000ULL, Time::Microseconds(3));
      break;
    case 3:
      BuildWan(net, WanName::kGeant, 1000000000ULL, Time::Microseconds(100));
      break;
    case 4:
      BuildWan(net, WanName::kChinaNet, 1000000000ULL, Time::Microseconds(100));
      break;
  }
  TopoGraph g;
  g.num_nodes = net.num_nodes();
  for (const auto& l : net.links()) {
    g.edges.push_back(TopoEdge{l.a, l.b, l.delay, true});
  }
  const Partition p = FineGrainedPartition(g);
  EXPECT_TRUE(ValidatePartition(g, p));
  // Fine granularity: strictly more LPs than a typical manual partition.
  EXPECT_GT(p.num_lps, 4u);
  EXPECT_FALSE(p.lookahead.IsZero());
  // At least half of the links cut (the median rule), unless zero-delay
  // links forced merges (none of these topologies has zero-delay links).
  EXPECT_GE(p.cut_edges.size() * 2, g.edges.size());
}

INSTANTIATE_TEST_SUITE_P(AllTopologies, TopologyPartitionTest, ::testing::Range(0, 5));

TEST(ManualPartition, RangePartitionCoversAllLps) {
  const TopoGraph g = Line(10, Time::Microseconds(1));
  const Partition p = RangePartition(g, 3);
  EXPECT_EQ(p.num_lps, 3u);
  std::set<LpId> used(p.lp_of_node.begin(), p.lp_of_node.end());
  EXPECT_EQ(used.size(), 3u);
  EXPECT_TRUE(ValidatePartition(g, p));
}

TEST(ManualPartition, SingleLpHasNoCutEdges) {
  const TopoGraph g = Line(5, Time::Microseconds(1));
  const Partition p = SingleLpPartition(g);
  EXPECT_EQ(p.num_lps, 1u);
  EXPECT_TRUE(p.cut_edges.empty());
  EXPECT_TRUE(p.lookahead.IsMax());
}

TEST(ManualPartition, FatTreePodPartitionIsValid) {
  SimConfig cfg;
  Network net(cfg);
  FatTreeTopo topo = BuildFatTree(net, 4, 10000000000ULL, Time::Microseconds(3));
  TopoGraph g;
  g.num_nodes = net.num_nodes();
  for (const auto& l : net.links()) {
    g.edges.push_back(TopoEdge{l.a, l.b, l.delay, true});
  }
  const Partition p = ManualPartition(g, 4, FatTreePodPartition(topo, net.num_nodes()));
  EXPECT_EQ(p.num_lps, 4u);
  EXPECT_TRUE(ValidatePartition(g, p));
  EXPECT_EQ(p.lookahead, Time::Microseconds(3));
}

TEST(FinalizePartition, RecomputesLookaheadAfterDelayChange) {
  TopoGraph g = Line(3, Time::Microseconds(3));
  Partition p = FineGrainedPartition(g);
  ASSERT_EQ(p.num_lps, 3u);
  g.edges[0].delay = Time::Microseconds(1);
  FinalizePartition(g, &p);
  EXPECT_EQ(p.lookahead, Time::Microseconds(1));
}

TEST(ValidatePartition, DetectsSplitLp) {
  // Nodes 0 and 2 in one LP but not connected within it: invalid.
  const TopoGraph g = Line(3, Time::Microseconds(1));
  Partition p;
  p.num_lps = 2;
  p.lp_of_node = {0, 1, 0};
  FinalizePartition(g, &p);
  EXPECT_FALSE(ValidatePartition(g, p));
}

TEST(PartitionMap, ResetStridedAssignsRoundRobinAtEpochZero) {
  PartitionMap map;
  map.ResetStrided(6, 2);
  EXPECT_EQ(map.num_lps(), 6u);
  EXPECT_EQ(map.num_executors(), 2u);
  EXPECT_EQ(map.owners(), (std::vector<uint32_t>{0, 1, 0, 1, 0, 1}));
  EXPECT_EQ(map.owned(0), (std::vector<uint32_t>{0, 2, 4}));
  EXPECT_EQ(map.owned(1), (std::vector<uint32_t>{1, 3, 5}));
}

}  // namespace
}  // namespace unison
