// Fig. 15: OpenIFS (TC0511L91) scalability across nodes; needs >= 32
// CTE-Arm nodes for memory.
#include <cstdio>
#include <iostream>
#include <map>

#include "apps/openifs.h"
#include "arch/configs.h"
#include "bench_common.h"
#include "report/plot.h"
#include "report/table.h"

using namespace ctesim;

int main(int argc, char** argv) {
  std::string csv_path;
  if (!bench::parse_harness(argc, argv, "fig15_openifs_multi",
                            "OpenIFS multi-node scalability", &csv_path)) {
    return 0;
  }
  bench::banner("Fig. 15", "OpenIFS: scalability across nodes (TC0511L91)");

  const auto cte = arch::cte_arm();
  const auto mn4 = arch::marenostrum4();
  apps::OpenIfsConfig config;
  config.input = apps::tc0511l91();
  std::printf("memory minimum: %d CTE-Arm nodes (paper: 32)\n\n",
              apps::openifs_min_nodes(cte, config));

  report::Table table("seconds per forecast day",
                      {"nodes", "CTE-Arm", "MareNostrum 4", "slowdown"});
  std::vector<double> cx, cy, mx, my;
  std::unique_ptr<CsvWriter> csv;
  if (!csv_path.empty()) {
    csv = std::make_unique<CsvWriter>(
        csv_path, std::vector<std::string>{"nodes", "cte_s", "mn4_s"});
  }
  std::map<int, double> slowdown_at;  // CTE/MN4 s/day, by nodes
  for (int nodes : {8, 16, 32, 48, 64, 96, 128}) {
    const auto a = apps::run_openifs_nodes(cte, nodes, config);
    const auto b = apps::run_openifs_nodes(mn4, nodes, config);
    slowdown_at[nodes] = a.seconds_per_day / b.seconds_per_day;
    table.row(
        {std::to_string(nodes),
         a.fits_memory ? report::fixed(a.seconds_per_day, 2) : "NP",
         b.fits_memory ? report::fixed(b.seconds_per_day, 2) : "NP",
         (a.fits_memory && b.fits_memory)
             ? report::fixed(a.seconds_per_day / b.seconds_per_day, 2)
             : "-"});
    if (a.fits_memory) {
      cx.push_back(nodes);
      cy.push_back(a.seconds_per_day);
    }
    if (b.fits_memory) {
      mx.push_back(nodes);
      my.push_back(b.seconds_per_day);
    }
    if (csv && a.fits_memory && b.fits_memory) {
      csv->row(std::vector<double>{static_cast<double>(nodes),
                                   a.seconds_per_day, b.seconds_per_day});
    }
  }
  table.print(std::cout);

  report::LineChart chart("OpenIFS, multi-node", 72, 16);
  chart.set_log_x(true);
  chart.set_log_y(true);
  chart.set_axis_labels("nodes", "s/day");
  chart.series("CTE-Arm", cx, cy);
  chart.series("MareNostrum 4", mx, my);
  std::printf("\n");
  chart.print(std::cout);

  const double r32 = slowdown_at.at(32);
  const double r128 = slowdown_at.at(128);
  std::printf(
      "\nheadline: @32 nodes %.2fx slower (paper 3.55x); @128 nodes %.2fx "
      "(paper 2.56x)\n",
      r32, r128);
  return 0;
}
