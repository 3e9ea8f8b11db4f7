// Tests for topologies and the network transfer model.
#include <gtest/gtest.h>

#include "arch/calibration.h"
#include "arch/configs.h"
#include "net/network.h"
#include "net/topology.h"

namespace ctesim::net {
namespace {

TEST(Torus, CoordinateRoundTrip) {
  TorusTopology t({4, 2, 2, 2, 3, 2});
  EXPECT_EQ(t.num_nodes(), 192);
  for (int n = 0; n < t.num_nodes(); ++n) {
    EXPECT_EQ(t.node_at(t.coordinates(n)), n);
  }
}

TEST(Torus, HopsAreShortestWithWraparound) {
  TorusTopology t({4});
  EXPECT_EQ(t.hops(0, 1), 1);
  EXPECT_EQ(t.hops(0, 2), 2);
  EXPECT_EQ(t.hops(0, 3), 1);  // wraps around
  TorusTopology t5({5});
  EXPECT_EQ(t5.hops(0, 3), 2);  // wrap shorter than direct
}

TEST(Torus, HopsMetricProperties) {
  TorusTopology t({4, 3, 2});
  for (int a = 0; a < t.num_nodes(); ++a) {
    EXPECT_EQ(t.hops(a, a), 0);
    for (int b = 0; b < t.num_nodes(); ++b) {
      EXPECT_EQ(t.hops(a, b), t.hops(b, a));  // symmetry
      if (a != b) {
        EXPECT_GE(t.hops(a, b), 1);
      }
    }
  }
  // Triangle inequality on a sample.
  for (int a = 0; a < 8; ++a) {
    for (int b = 0; b < 8; ++b) {
      for (int c = 0; c < 8; ++c) {
        EXPECT_LE(t.hops(a, c), t.hops(a, b) + t.hops(b, c));
      }
    }
  }
}

TEST(Torus, MaxHopsIsSumOfHalfDims) {
  TorusTopology t({4, 2, 2, 2, 3, 2});
  int max_hops = 0;
  for (int b = 1; b < t.num_nodes(); ++b) {
    max_hops = std::max(max_hops, t.hops(0, b));
  }
  EXPECT_EQ(max_hops, 2 + 1 + 1 + 1 + 1 + 1);
}

TEST(FatTree, HopsBySwitchLocality) {
  FatTreeTopology t(128, 32);
  EXPECT_EQ(t.hops(0, 0), 0);
  EXPECT_EQ(t.hops(0, 31), 1);   // same edge switch
  EXPECT_EQ(t.hops(0, 32), 3);   // via core
  EXPECT_EQ(t.hops(33, 34), 1);
}

Network cte_network() {
  return Network(arch::cte_arm().interconnect, 192);
}

TEST(Transfer, LatencyGrowsWithHops) {
  auto net = cte_network();
  net.set_jitter(0.0);
  const auto near = net.transfer(0, 1, 256);
  // Find a distant pair.
  int far_node = 1;
  for (int n = 1; n < 192; ++n) {
    if (net.topology().hops(0, n) > net.topology().hops(0, far_node)) {
      far_node = n;
    }
  }
  const auto far = net.transfer(0, far_node, 256);
  EXPECT_GT(far.hops, near.hops);
  EXPECT_GT(far.latency_s, near.latency_s);
  EXPECT_LT(far.bandwidth, near.bandwidth);
}

TEST(Transfer, BandwidthApproachesLinkPeakForLargeMessages) {
  auto net = cte_network();
  net.set_jitter(0.0);
  const auto t = net.transfer(0, 1, 64ull << 20);  // 64 MiB
  EXPECT_GT(t.bandwidth, 0.8 * 6.8e9);
  EXPECT_LE(t.bandwidth, 6.8e9);
}

TEST(Transfer, EagerRendezvousSwitch) {
  auto net = cte_network();
  const auto small = net.transfer(0, 1, 1024);
  const auto large = net.transfer(0, 1, 1 << 20);
  EXPECT_FALSE(small.rendezvous);
  EXPECT_TRUE(large.rendezvous);
}

TEST(Transfer, TimeMonotoneInSize) {
  auto net = cte_network();
  double prev = 0.0;
  for (std::uint64_t size = 1; size <= (1ull << 24); size <<= 1) {
    const auto t = net.transfer(3, 77, size);
    EXPECT_GE(t.time_s, prev);
    prev = t.time_s;
  }
}

TEST(Transfer, DeterministicJitterIsBounded) {
  auto net = cte_network();
  net.set_jitter(0.03);
  const auto a = net.transfer(5, 9, 4096);
  const auto b = net.transfer(5, 9, 4096);
  EXPECT_DOUBLE_EQ(a.time_s, b.time_s);  // same pair: same jitter
  // All pairs within +-3% of the no-jitter bandwidth for large messages.
  auto clean = cte_network();
  clean.set_jitter(0.0);
  for (int dst : {1, 17, 63, 101, 190}) {
    const auto j = net.transfer(0, dst, 16 << 20);
    const auto c = clean.transfer(0, dst, 16 << 20);
    EXPECT_NEAR(j.bandwidth / c.bandwidth, 1.0, 0.035);
  }
}

TEST(Fault, ReceiverDegradationIsAsymmetric) {
  auto net = cte_network();
  net.set_jitter(0.0);
  const int weak = arch::calib::kWeakNodeIndex;
  const auto before = net.transfer(0, weak, 1 << 20);
  net.add_recv_degradation(weak, arch::calib::kWeakNodeRecvFactor);
  const auto as_receiver = net.transfer(0, weak, 1 << 20);
  const auto as_sender = net.transfer(weak, 0, 1 << 20);
  // Receiving into the weak node is slow; sending from it is unaffected —
  // exactly the arms0b1-11c behaviour in Fig. 4.
  EXPECT_LT(as_receiver.bandwidth, 0.5 * before.bandwidth);
  EXPECT_NEAR(as_sender.bandwidth, before.bandwidth, 1e-3 * before.bandwidth);
  net.clear_faults();
  const auto after = net.transfer(0, weak, 1 << 20);
  EXPECT_DOUBLE_EQ(after.time_s, before.time_s);
}

TEST(Network, RejectsSelfTransfer) {
  auto net = cte_network();
  EXPECT_THROW(net.transfer(3, 3, 100), ContractError);
}

TEST(Network, OmniPathHasUniformishLatency) {
  Network net(arch::marenostrum4().interconnect, 192);
  net.set_jitter(0.0);
  // Across edge switches everything is 3 hops: equal latency.
  const auto a = net.transfer(0, 64, 256);
  const auto b = net.transfer(0, 191, 256);
  EXPECT_DOUBLE_EQ(a.latency_s, b.latency_s);
}

}  // namespace
}  // namespace ctesim::net
