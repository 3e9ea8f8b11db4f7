// Cross-module integration tests: end-to-end properties of the whole
// simulator that no single module test covers.
#include <gtest/gtest.h>

#include <cmath>

#include "apps/alya.h"
#include "apps/wrf.h"
#include "arch/configs.h"
#include "arch/machine_io.h"
#include "hpcb/hpl.h"
#include "mem/stream_sim.h"
#include "roofline/kernel_library.h"
#include "simmpi/world.h"

namespace ctesim {
namespace {

TEST(Integration, MachineFileRoundTripPreservesExperimentResults) {
  // A machine serialized to text and parsed back must produce bit-equal
  // results in every layer that consumes it.
  const auto original = arch::cte_arm();
  const auto reloaded =
      arch::parse_machine_string(arch::machine_to_string(original));

  const mem::StreamSimulator s1(original);
  const mem::StreamSimulator s2(reloaded);
  EXPECT_DOUBLE_EQ(
      s1.omp_bandwidth(mem::StreamKernel::kTriad, 24, arch::Language::kC).value(),
      s2.omp_bandwidth(mem::StreamKernel::kTriad, 24, arch::Language::kC).value());

  hpcb::HplModel h1(original, hpcb::hpl_config_for(original));
  hpcb::HplModel h2(reloaded, hpcb::hpl_config_for(reloaded));
  EXPECT_DOUBLE_EQ(h1.run(16).gflops, h2.run(16).gflops);

  EXPECT_DOUBLE_EQ(apps::run_alya(original, 16).time_per_step,
                   apps::run_alya(reloaded, 16).time_per_step);
}

TEST(Integration, SimulatedCollectiveMatchesAnalyticRing) {
  // An allgather ring of P-1 uniform steps on identical links must take
  // P-1 times one sendrecv of the same size (zero jitter, uniform hops).
  mpi::WorldOptions options;
  options.machine = arch::marenostrum4();  // fat-tree: uniform 3-hop links
  options.network_jitter = 0.0;
  const int p = 5;
  mpi::World world(std::move(options),
                   mpi::Placement::per_node(arch::marenostrum4().node, p));
  const std::uint64_t bytes = 100 * 1024;
  const double t_ring = world.run([&](mpi::Rank& r) -> sim::Task<> {
    co_await r.allgather(bytes);
  });

  mpi::WorldOptions options2;
  options2.machine = arch::marenostrum4();
  options2.network_jitter = 0.0;
  mpi::World pair(std::move(options2),
                  mpi::Placement::per_node(arch::marenostrum4().node, p));
  const double t_one = pair.run([&](mpi::Rank& r) -> sim::Task<> {
    const int right = (r.id() + 1) % r.size();
    const int left = (r.id() - 1 + r.size()) % r.size();
    co_await r.sendrecv(right, bytes, left);
  });
  EXPECT_NEAR(t_ring, (p - 1) * t_one, 0.05 * t_ring);
}

TEST(Integration, PlacementGranularityPreservesComputeTotals) {
  // The same aggregate work split over per-node vs per-domain actors must
  // produce nearly the same makespan for a pure-compute workload (the
  // bandwidth-share model is granularity-consistent by design).
  const auto machine = arch::cte_arm();
  const double total_elems = 4.8e8;

  auto run_with = [&](mpi::Placement placement) {
    mpi::WorldOptions options;
    options.machine = machine;
    options.network_jitter = 0.0;
    const double elems = total_elems / placement.num_ranks();
    mpi::World world(std::move(options), std::move(placement));
    return world.run([elems](mpi::Rank& r) -> sim::Task<> {
      co_await r.compute(roofline::kernels::stream_triad(), elems);
    });
  };
  const double per_node = run_with(mpi::Placement::per_node(machine.node, 4));
  const double per_domain =
      run_with(mpi::Placement::per_domain(machine.node, 4));
  EXPECT_NEAR(per_node, per_domain, 0.02 * per_node);
}

TEST(Integration, JitterChangesSeedChangesTimings) {
  auto run_seeded = [&](std::uint64_t seed) {
    mpi::WorldOptions options;
    options.machine = arch::cte_arm();
    options.compute_jitter = 0.05;
    options.seed = seed;
    mpi::World world(std::move(options),
                     mpi::Placement::per_node(arch::cte_arm().node, 8));
    return world.run([](mpi::Rank& r) -> sim::Task<> {
      co_await r.compute(roofline::kernels::stream_triad(), 1e7);
      co_await r.barrier();
    });
  };
  EXPECT_NE(run_seeded(1), run_seeded(2));
  EXPECT_DOUBLE_EQ(run_seeded(3), run_seeded(3));
}

TEST(Integration, WeakNodeSlowsApplicationsPlacedOnIt) {
  // Fault injection must propagate through the MPI layer into workload
  // makespans: a run whose communication partner has a degraded receive
  // path finishes later.
  auto run_with_fault = [&](bool inject) {
    mpi::WorldOptions options;
    options.machine = arch::cte_arm();
    options.network_jitter = 0.0;
    mpi::World world(std::move(options),
                     mpi::Placement::per_node(arch::cte_arm().node, 2));
    if (inject) world.network().add_recv_degradation(1, 0.1);
    return world.run([](mpi::Rank& r) -> sim::Task<> {
      if (r.id() == 0) {
        co_await r.send(1, 8 << 20);
      } else {
        co_await r.recv(0);
      }
    });
  };
  EXPECT_GT(run_with_fault(true), 3.0 * run_with_fault(false));
}

TEST(Integration, TableIVOrderingHolds) {
  // The qualitative ranking of Table IV at 16 nodes: LINPACK favours
  // CTE-Arm; every application favours MN4; NEMO is the mildest app
  // slowdown and Alya the worst.
  const auto cte = arch::cte_arm();
  const auto mn4 = arch::marenostrum4();
  hpcb::HplModel hpl_cte(cte, hpcb::hpl_config_for(cte));
  hpcb::HplModel hpl_mn4(mn4, hpcb::hpl_config_for(mn4));
  EXPECT_GT(hpl_cte.run(16).gflops, hpl_mn4.run(16).gflops);

  const double alya = apps::run_alya(mn4, 16).time_per_step /
                      apps::run_alya(cte, 16).time_per_step;
  const double wrf =
      apps::run_wrf(mn4, 16).total_time / apps::run_wrf(cte, 16).total_time;
  EXPECT_LT(alya, 1.0);  // CTE slower
  EXPECT_LT(wrf, 1.0);
  EXPECT_LT(alya, wrf);  // Alya hit hardest, WRF milder (paper: 0.30 vs 0.46)
}

}  // namespace
}  // namespace ctesim
