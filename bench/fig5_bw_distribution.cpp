// Fig. 5: distribution of the point-to-point bandwidth over all node pairs
// of CTE-Arm as a function of message size (2^0 .. 2^24 bytes). Shows the
// bimodality at mid sizes (discrete hop-count groups + the eager/
// rendezvous switch) and the spread above 1 MB (distance-dependent
// bandwidth).
#include <cmath>
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
  if (!bench::parse_harness(argc, argv, "fig5_bw_distribution",
                            "bandwidth distribution vs message size",
                            &csv_path)) {
    return 0;
  }
  bench::banner("Fig. 5", "bandwidth distribution over all node pairs");

  const auto machine = arch::cte_arm();
  net::Network network(machine.interconnect, machine.num_nodes);
  network.add_recv_degradation(arch::calib::kWeakNodeIndex,
                               arch::calib::kWeakNodeRecvFactor);
  const int n = machine.num_nodes;

  constexpr int kMaxPow = 24;
  constexpr int kBwBins = 64;
  // Bandwidth axis: log10 MB/s from 10^1.5 to 10^4 (30 MB/s .. 10 GB/s).
  const double lo = 1.0;
  const double hi = 4.0;
  report::Heatmap density("message size 2^p B (rows, top=2^0) vs log10 "
                          "bandwidth [MB/s] (cols): occurrence count",
                          kMaxPow + 1, kBwBins);
  std::unique_ptr<CsvWriter> csv;
  if (!csv_path.empty()) {
    csv = std::make_unique<CsvWriter>(
        csv_path,
        std::vector<std::string>{"pow2", "p10_mbps", "p50_mbps", "p90_mbps",
                                 "modes"});
  }
  std::printf("per-size summary (all %d x %d pairs):\n", n, n - 1);
  std::printf("%6s %12s %12s %12s %7s\n", "size", "p10 MB/s", "median",
              "p90 MB/s", "modes");
  for (int p = 0; p <= kMaxPow; ++p) {
    const std::uint64_t size = 1ull << p;
    Histogram hist(lo, hi, kBwBins);
    std::vector<double> sample;
    sample.reserve(static_cast<std::size_t>(n) * (n - 1));
    for (int src = 0; src < n; ++src) {
      for (int dst = 0; dst < n; ++dst) {
        if (src == dst) continue;
        const auto t = network.transfer(src, dst, size);
        const double mbps = t.bandwidth / 1e6;
        hist.add(std::log10(mbps));
        sample.push_back(mbps);
      }
    }
    for (int b = 0; b < kBwBins; ++b) {
      density.set(static_cast<std::size_t>(p), static_cast<std::size_t>(b),
                  static_cast<double>(hist.count(static_cast<std::size_t>(b))));
    }
    const int modes = hist.modes(0.05);
    std::printf("%6llu %12.1f %12.1f %12.1f %7d\n",
                static_cast<unsigned long long>(size),
                percentile(sample, 0.10), percentile(sample, 0.50),
                percentile(sample, 0.90), modes);
    if (csv) {
      csv->row(std::vector<double>{static_cast<double>(p),
                                   percentile(sample, 0.10),
                                   percentile(sample, 0.50),
                                   percentile(sample, 0.90),
                                   static_cast<double>(modes)});
    }
  }
  std::printf("\n");
  density.print(std::cout, 96);
  std::printf(
      "\nExpected shape (paper): multi-modal bandwidth between ~1 kB and\n"
      "256 kB (hop-count groups + protocol switch), widening spread above\n"
      "1 MB (distance-dependent effective bandwidth).\n");
  return 0;
}
