// Fig. 4: bandwidth of all node pairs of CTE-Arm, OSU-style sendrecv loop
// with 256-byte messages, including the degraded receiver node
// ("arms0b1-11c"). The diagonal banding comes from the index->torus
// coordinate mapping; the weak node shows as one dark row (receiver) but a
// normal column (sender).
#include <cstdio>
#include <iostream>

#include "arch/calibration.h"
#include "arch/configs.h"
#include "bench_common.h"
#include "net/network.h"
#include "report/plot.h"
#include "util/stats.h"

using namespace ctesim;

int main(int argc, char** argv) {
  std::string csv_path;
  Cli cli("fig4_pair_bandwidth", "all-pairs point-to-point bandwidth");
  std::int64_t msg_size = 256;
  cli.option("msg-size", &msg_size, "message size in bytes");
  if (!bench::parse_harness(argc, argv, "fig4_pair_bandwidth",
                            "all-pairs bandwidth", &csv_path, &cli)) {
    return 0;
  }
  bench::banner("Fig. 4", "bandwidth of all node-pairs of CTE-Arm");

  const auto machine = arch::cte_arm();
  net::Network network(machine.interconnect, machine.num_nodes);
  network.add_recv_degradation(arch::calib::kWeakNodeIndex,
                               arch::calib::kWeakNodeRecvFactor);

  const int n = machine.num_nodes;
  report::Heatmap map("sender (rows) x receiver (cols), MB/s",
                      static_cast<std::size_t>(n),
                      static_cast<std::size_t>(n));
  RunningStats all;
  RunningStats weak_as_receiver;
  RunningStats weak_as_sender;
  std::unique_ptr<CsvWriter> csv;
  if (!csv_path.empty()) {
    csv = std::make_unique<CsvWriter>(
        csv_path, std::vector<std::string>{"src", "dst", "mbps"});
  }
  for (int src = 0; src < n; ++src) {
    for (int dst = 0; dst < n; ++dst) {
      if (src == dst) continue;
      const auto t = network.transfer(src, dst,
                                      static_cast<std::uint64_t>(msg_size));
      const double mbps = t.bandwidth / 1e6;
      map.set(static_cast<std::size_t>(src), static_cast<std::size_t>(dst),
              mbps);
      all.add(mbps);
      if (dst == arch::calib::kWeakNodeIndex) weak_as_receiver.add(mbps);
      if (src == arch::calib::kWeakNodeIndex) weak_as_sender.add(mbps);
      if (csv) {
        csv->row(std::vector<double>{static_cast<double>(src),
                                     static_cast<double>(dst), mbps});
      }
    }
  }
  map.print(std::cout, 96);

  std::printf("\nmsg size: %lld B; %d nodes; %s\n",
              static_cast<long long>(msg_size), n,
              network.topology().describe().c_str());
  std::printf("bandwidth over all pairs: mean %.1f MB/s, min %.1f, max %.1f\n",
              all.mean(), all.min(), all.max());
  std::printf(
      "weak node %d: as receiver %.1f MB/s (dark row), as sender %.1f MB/s "
      "(normal) — the asymmetry of arms0b1-11c in the paper\n",
      arch::calib::kWeakNodeIndex, weak_as_receiver.mean(),
      weak_as_sender.mean());
  return 0;
}
