// Tests for the fault-injection & resilience subsystem: timeline
// generation and validation, MTBF distributions, checkpoint/restart math
// (Young/Daly), allocator drain/return bookkeeping, the self-healing batch
// runtime, and trace determinism under failures.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <vector>

#include "arch/configs.h"
#include "batch/cluster.h"
#include "batch/metrics.h"
#include "fault/checkpoint.h"
#include "fault/fault.h"
#include "fault/mtbf.h"
#include "io/filesystem.h"
#include "net/network.h"
#include "sched/allocator.h"
#include "trace/chrome.h"
#include "trace/recorder.h"
#include "util/check.h"
#include "util/rng.h"

namespace ctesim {
namespace {

arch::MachineModel tiny_machine() {
  arch::MachineModel m = arch::cte_arm();
  m.num_nodes = 4;
  m.interconnect.dims = {2, 2};
  return m;
}

batch::Job fixed_job(int id, double arrival, int nodes, double walltime,
                     double runtime, double comm_fraction = 0.0) {
  batch::Job job;
  job.id = id;
  job.arrival_s = arrival;
  job.nodes = nodes;
  job.walltime_s = walltime;
  job.fixed_runtime_s = runtime;
  job.profile = batch::JobProfile{"fixed", {}, 0.0, 1, comm_fraction};
  return job;
}

// --- timeline generation & validation --------------------------------------

TEST(FaultTimeline, GenerationIsDeterministicPerSeed) {
  fault::FaultModel model;
  model.node_failure.mtbf_s = 3600.0;
  model.node_failure.mean_repair_s = 600.0;
  model.link_degradation.mtbd_s = 7200.0;
  model.link_degradation.mean_duration_s = 900.0;
  const auto a = fault::generate_timeline(model, 32, 24 * 3600.0, 7);
  const auto b = fault::generate_timeline(model, 32, 24 * 3600.0, 7);
  ASSERT_EQ(a.events().size(), b.events().size());
  EXPECT_FALSE(a.events().empty());
  for (std::size_t i = 0; i < a.events().size(); ++i) {
    EXPECT_EQ(a.events()[i].time_s, b.events()[i].time_s) << i;
    EXPECT_EQ(a.events()[i].kind, b.events()[i].kind) << i;
    EXPECT_EQ(a.events()[i].node, b.events()[i].node) << i;
    EXPECT_EQ(a.events()[i].factor, b.events()[i].factor) << i;
  }
  const auto c = fault::generate_timeline(model, 32, 24 * 3600.0, 8);
  bool different = a.events().size() != c.events().size();
  for (std::size_t i = 0; !different && i < a.events().size(); ++i) {
    different = a.events()[i].time_s != c.events()[i].time_s;
  }
  EXPECT_TRUE(different);
  EXPECT_TRUE(a.validate(32).empty());
}

TEST(FaultTimeline, EventsSortedByTime) {
  fault::FaultTimeline t;
  t.fail(50.0, 1);
  t.degrade_recv(10.0, 20.0, 0, 0.5);
  t.repair(60.0, 1);
  double prev = 0.0;
  for (const auto& e : t.events()) {
    EXPECT_GE(e.time_s, prev);
    prev = e.time_s;
  }
  EXPECT_EQ(t.events().size(), 4u);
}

TEST(FaultTimeline, ValidateCatchesScriptDrift) {
  {
    fault::FaultTimeline t;  // double failure without repair
    t.fail(10.0, 0);
    t.fail(20.0, 0);
    EXPECT_FALSE(t.validate(4).empty());
  }
  {
    fault::FaultTimeline t;  // repair of a healthy node
    t.repair(10.0, 1);
    EXPECT_FALSE(t.validate(4).empty());
  }
  {
    fault::FaultTimeline t;  // node outside the machine
    t.fail(10.0, 9);
    EXPECT_FALSE(t.validate(4).empty());
    EXPECT_THROW(t.validate_or_throw(4), std::invalid_argument);
  }
  {
    fault::FaultTimeline t;  // degradation factor must be in (0, 1]
    EXPECT_THROW(t.degrade_recv(0.0, 10.0, 0, 0.0), ContractError);
  }
  {
    fault::FaultTimeline t;  // a clean script validates
    t.fail(10.0, 0);
    t.repair(30.0, 0);
    t.degrade_recv(5.0, 15.0, 2, 0.5);
    EXPECT_TRUE(t.validate(4).empty());
  }
}

// --- time-windowed network degradations ------------------------------------

TEST(NetworkWindows, DegradationAppliesOnlyInsideItsWindow) {
  const auto machine = tiny_machine();
  net::Network network(machine.interconnect, machine.num_nodes);
  const std::uint64_t bytes = 1 << 20;
  const double clean = network.transfer(1, 0, bytes).bandwidth;
  network.add_recv_degradation(0, 0.5, 10.0, 20.0);
  // Before, inside (half-open: the start is in, the end is out), after.
  EXPECT_NEAR(network.transfer(1, 0, bytes, 5.0).bandwidth, clean, 1e-6);
  EXPECT_NEAR(network.transfer(1, 0, bytes, 10.0).bandwidth, 0.5 * clean,
              1e-6);
  EXPECT_NEAR(network.transfer(1, 0, bytes, 19.9).bandwidth, 0.5 * clean,
              1e-6);
  EXPECT_NEAR(network.transfer(1, 0, bytes, 20.0).bandwidth, clean, 1e-6);
  // Only the receiver's path is degraded (the asymmetric signature) and
  // other nodes are untouched. Per-pair jitter makes each pair's healthy
  // bandwidth its own baseline.
  EXPECT_NEAR(network.transfer(0, 1, bytes, 15.0).bandwidth,
              network.transfer(0, 1, bytes).bandwidth, 1e-6);
  EXPECT_NEAR(network.transfer(2, 3, bytes, 15.0).bandwidth,
              network.transfer(2, 3, bytes).bandwidth, 1e-6);
}

TEST(NetworkWindows, OverlappingWindowsStackMultiplicatively) {
  const auto machine = tiny_machine();
  net::Network network(machine.interconnect, machine.num_nodes);
  const std::uint64_t bytes = 1 << 20;
  const double clean = network.transfer(1, 0, bytes).bandwidth;
  network.add_recv_degradation(0, 0.5, 0.0, 100.0);
  network.add_recv_degradation(0, 0.8, 50.0, 100.0);
  EXPECT_NEAR(network.transfer(1, 0, bytes, 25.0).bandwidth, 0.5 * clean,
              1e-6);
  EXPECT_NEAR(network.transfer(1, 0, bytes, 75.0).bandwidth,
              0.5 * 0.8 * clean, 1e-6);
}

TEST(NetworkWindows, OpenEndedWindowIsAlwaysActive) {
  const auto machine = tiny_machine();
  net::Network network(machine.interconnect, machine.num_nodes);
  const std::uint64_t bytes = 1 << 20;
  const double clean = network.transfer(1, 0, bytes).bandwidth;
  network.add_recv_degradation(0, 0.25);
  EXPECT_NEAR(network.transfer(1, 0, bytes).bandwidth, 0.25 * clean, 1e-6);
  EXPECT_NEAR(network.transfer(1, 0, bytes, 1e9).bandwidth, 0.25 * clean,
              1e-6);
  // Windows stack; clearing the faults restores the healthy node.
  network.clear_faults();
  network.add_recv_degradation(0, 1.0);
  EXPECT_NEAR(network.transfer(1, 0, bytes, 50.0).bandwidth, clean, 1e-6);
}

TEST(NetworkWindows, ApplyTimelineInstallsWindows) {
  const auto machine = tiny_machine();
  net::Network network(machine.interconnect, machine.num_nodes);
  const std::uint64_t bytes = 1 << 20;
  const double clean = network.transfer(1, 0, bytes).bandwidth;
  fault::FaultTimeline timeline;
  timeline.degrade_recv(10.0, 20.0, 0, 0.5);
  fault::apply_recv_degradations(timeline, &network);
  EXPECT_NEAR(network.transfer(1, 0, bytes, 15.0).bandwidth, 0.5 * clean,
              1e-6);
  EXPECT_NEAR(network.transfer(1, 0, bytes, 25.0).bandwidth, clean, 1e-6);
}

// --- MTBF distributions ----------------------------------------------------

TEST(Mtbf, ExponentialSampleMeanMatchesMtbf) {
  fault::FailureSpec spec;
  spec.mtbf_s = 1000.0;
  Rng rng(11);
  double sum = 0.0;
  const int n = 40000;
  for (int i = 0; i < n; ++i) {
    const double t = fault::sample_time_to_failure(spec, rng);
    EXPECT_GT(t, 0.0);
    sum += t;
  }
  EXPECT_NEAR(sum / n, spec.mtbf_s, 0.03 * spec.mtbf_s);
}

TEST(Mtbf, WeibullIsMeanPreserving) {
  fault::FailureSpec spec;
  spec.dist = fault::FailureSpec::Dist::kWeibull;
  spec.mtbf_s = 1000.0;
  spec.weibull_shape = 2.0;  // wear-out regime
  Rng rng(12);
  double sum = 0.0;
  const int n = 40000;
  for (int i = 0; i < n; ++i) sum += fault::sample_time_to_failure(spec, rng);
  EXPECT_NEAR(sum / n, spec.mtbf_s, 0.03 * spec.mtbf_s);
}

// --- checkpoint/restart math -----------------------------------------------

TEST(Checkpoint, YoungDalyMinimizesFirstOrderWaste) {
  const double write_s = 60.0;
  const double mtbf_s = 8.0 * 3600.0;
  const double opt = fault::young_daly_interval(write_s, mtbf_s);
  EXPECT_NEAR(opt, std::sqrt(2.0 * write_s * mtbf_s), 1e-9);
  // First-order waste per unit work: C/T (writes) + T/(2M) (lost work).
  const auto waste = [&](double t) {
    return write_s / t + t / (2.0 * mtbf_s);
  };
  EXPECT_LT(waste(opt), waste(opt / 2.0));
  EXPECT_LT(waste(opt), waste(opt * 2.0));
  EXPECT_LT(waste(opt), waste(opt * 0.9));
  EXPECT_LT(waste(opt), waste(opt * 1.1));
}

TEST(Checkpoint, AttemptDurationAndPreservedWorkHandChecked) {
  fault::CheckpointCost cost;
  cost.interval_s = 20.0;
  cost.write_s = 1.0;
  cost.restart_s = 5.0;
  // 100 s of work crosses 4 checkpoints (the 5th would coincide with the
  // end); a fresh attempt pays no restart.
  EXPECT_EQ(fault::checkpoints_for(100.0, cost), 4);
  EXPECT_NEAR(fault::attempt_duration(100.0, cost, false), 104.0, 1e-12);
  EXPECT_NEAR(fault::attempt_duration(100.0, cost, true), 109.0, 1e-12);
  // Die 30 s into a fresh attempt: one full interval+write behind us.
  EXPECT_NEAR(fault::preserved_work(30.0, 100.0, cost, false), 20.0, 1e-12);
  // Die 10 s in: before the first checkpoint completed — nothing kept.
  EXPECT_NEAR(fault::preserved_work(10.0, 100.0, cost, false), 0.0, 1e-12);
  // A restarting attempt shifts everything by the restart overhead.
  EXPECT_NEAR(fault::preserved_work(25.0 + 5.0, 100.0, cost, true), 20.0,
              1e-12);
  // Preserved work never exceeds the work itself.
  EXPECT_LE(fault::preserved_work(1e9, 100.0, cost, false), 100.0);
  // Without checkpointing nothing is preserved.
  EXPECT_EQ(fault::preserved_work(50.0, 100.0, fault::CheckpointCost{},
                                  false),
            0.0);
}

TEST(Checkpoint, ResolveDisabledPolicyIsInert) {
  const auto machine = tiny_machine();
  const auto fs = io::production_filesystem(machine);
  const auto cost = fault::resolve(fault::CheckpointPolicy{}, fs, 2);
  EXPECT_FALSE(cost.enabled());
  EXPECT_EQ(fault::checkpoints_for(1e6, cost), 0);
  EXPECT_NEAR(fault::attempt_duration(123.0, cost, true), 123.0, 1e-12);
}

// --- allocator drain/return ------------------------------------------------

TEST(Allocator, DrainRemovesNodeFromService) {
  const net::TorusTopology topo({2, 2});
  sched::Allocator alloc(topo);
  EXPECT_EQ(alloc.free_nodes(), 4);
  alloc.drain(0);
  EXPECT_TRUE(alloc.is_drained(0));
  EXPECT_EQ(alloc.drained_count(), 1);
  EXPECT_EQ(alloc.in_service_nodes(), 3);
  EXPECT_EQ(alloc.free_nodes(), 3);
  // The drained node is never allocated.
  const auto nodes = alloc.allocate(3, sched::Policy::kLinear);
  EXPECT_EQ(nodes, (std::vector<int>{1, 2, 3}));
  alloc.release(nodes);
  alloc.return_to_service(0);
  EXPECT_EQ(alloc.free_nodes(), 4);
  EXPECT_FALSE(alloc.is_drained(0));
}

#if CTESIM_CHECKS_ENABLED
TEST(Allocator, DrainBookkeepingDriftIsCaught) {
  const net::TorusTopology topo({2, 2});
  sched::Allocator alloc(topo);
  alloc.drain(2);
  EXPECT_THROW(alloc.drain(2), ContractError);        // double drain
  EXPECT_THROW(alloc.return_to_service(1), ContractError);  // no drain
  alloc.return_to_service(2);
  EXPECT_THROW(alloc.return_to_service(2), ContractError);  // double return
}
#endif  // CTESIM_CHECKS_ENABLED

// --- the self-healing batch runtime ----------------------------------------

TEST(Resilience, InterruptedJobRequeuesAndCompletes) {
  const batch::RuntimeModel model(tiny_machine());
  // One whole-machine job; node 0 dies 30 s in and is repaired at 100 s.
  // No checkpointing: the restarted attempt redoes all 100 s of work.
  const std::vector<batch::Job> jobs = {fixed_job(0, 0.0, 4, 500.0, 100.0)};
  fault::FaultTimeline faults;
  faults.fail(30.0, 0);
  faults.repair(100.0, 0);
  batch::ClusterOptions options;
  options.faults = &faults;
  options.requeue_backoff_s = 10.0;
  const auto result = batch::run_cluster(model, jobs, options);
  ASSERT_EQ(result.records.size(), 1u);
  const auto& r = result.records[0];
  EXPECT_EQ(r.end_reason, batch::EndReason::kCompleted);
  EXPECT_EQ(r.attempts, 2);
  EXPECT_EQ(r.interruptions, 1);
  EXPECT_NEAR(r.first_start_s, 0.0, 1e-9);
  // Requeued at 40 s but the machine is 3/4 until the repair at 100 s.
  EXPECT_NEAR(r.start_s, 100.0, 1e-9);
  EXPECT_NEAR(r.end_s, 200.0, 1e-9);
  EXPECT_NEAR(r.busy_node_s, 30.0 * 4 + 100.0 * 4, 1e-6);
  EXPECT_NEAR(r.useful_node_s, 100.0 * 4, 1e-6);
  EXPECT_NEAR(r.wasted_node_s, 30.0 * 4, 1e-6);

  const auto m = batch::summarize(result, 4);
  EXPECT_EQ(m.interrupted, 1);
  EXPECT_EQ(m.failed, 0);
  EXPECT_LT(m.goodput, m.utilization);
  EXPECT_LT(m.availability, 1.0);
  EXPECT_NEAR(m.wasted_node_h, 120.0 / 3600.0, 1e-6);
}

TEST(Resilience, CheckpointRestartPreservesWork) {
  const batch::RuntimeModel model(tiny_machine());
  const std::vector<batch::Job> jobs = {fixed_job(0, 0.0, 4, 500.0, 100.0)};
  fault::FaultTimeline faults;
  faults.fail(30.0, 0);
  faults.repair(50.0, 0);
  batch::ClusterOptions options;
  options.faults = &faults;
  options.requeue_backoff_s = 10.0;
  // Checkpoint every 20 s of work; each write costs exactly 1 s through
  // the overridden aggregate bandwidth (4 nodes x 1e9 B / 4e9 B/s),
  // restart replay costs 5 s.
  options.checkpoint.interval_s = 20.0;
  options.checkpoint.state_bytes_per_node = 1e9;
  options.checkpoint.write_bw = 4e9;
  options.checkpoint.restart_s = 5.0;
  const auto result = batch::run_cluster(model, jobs, options);
  ASSERT_EQ(result.records.size(), 1u);
  const auto& r = result.records[0];
  EXPECT_EQ(r.end_reason, batch::EndReason::kCompleted);
  EXPECT_EQ(r.attempts, 2);
  // Death 30 s into the attempt: one interval (20 s) + its write (1 s) are
  // behind us, so 20 s of work survive to the restart.
  EXPECT_NEAR(r.useful_node_s - 100.0 * 4, 0.0, 1e-6);
  EXPECT_NEAR(r.wasted_node_s, (30.0 - 20.0) * 4, 1e-6);
  // Second attempt (from 50 s): 5 s restart + 80 s work + 3 writes = 88 s.
  EXPECT_NEAR(r.start_s, 50.0, 1e-9);
  EXPECT_NEAR(r.end_s, 138.0, 1e-9);
}

TEST(Resilience, RetryLimitEndsInNodeFailure) {
  const batch::RuntimeModel model(tiny_machine());
  const std::vector<batch::Job> jobs = {fixed_job(0, 0.0, 4, 500.0, 100.0)};
  fault::FaultTimeline faults;
  faults.fail(30.0, 0);
  faults.repair(50.0, 0);
  batch::ClusterOptions options;
  options.faults = &faults;
  options.max_retries = 0;  // one strike and out
  const auto result = batch::run_cluster(model, jobs, options);
  ASSERT_EQ(result.records.size(), 1u);
  const auto& r = result.records[0];
  EXPECT_EQ(r.end_reason, batch::EndReason::kNodeFailure);
  EXPECT_EQ(r.attempts, 1);
  EXPECT_EQ(r.interruptions, 1);
  EXPECT_NEAR(r.end_s, 30.0, 1e-9);
  EXPECT_EQ(batch::summarize(result, 4).failed, 1);
}

TEST(Resilience, UnrunnableJobsFinalizeAfterPermanentShrink) {
  const batch::RuntimeModel model(tiny_machine());
  // Node 0 dies and never comes back; the 4-node job can never run again.
  const std::vector<batch::Job> jobs = {fixed_job(0, 0.0, 4, 500.0, 100.0)};
  fault::FaultTimeline faults;
  faults.fail(30.0, 0);
  batch::ClusterOptions options;
  options.faults = &faults;
  const auto result = batch::run_cluster(model, jobs, options);
  ASSERT_EQ(result.records.size(), 1u);
  EXPECT_EQ(result.records[0].end_reason, batch::EndReason::kNodeFailure);
}

TEST(Resilience, DegradationWindowSlowsCommunicationShare) {
  const batch::RuntimeModel model(tiny_machine());
  // One 1-node job (node 0, the contiguous pick) that communicates half
  // its time. A factor-0.5 receive degradation over [20 s, 70 s) drops the
  // progress rate to 1/(1 + 0.5*(1/0.5-1)) = 2/3 for those 50 s:
  // 20 + 50*(2/3) = 53.33 s of progress by 70 s, the remaining 46.67 s run
  // at full rate -> completion at 116.67 s.
  const std::vector<batch::Job> jobs =
      {fixed_job(0, 0.0, 1, 500.0, 100.0, 0.5)};
  fault::FaultTimeline faults;
  faults.degrade_recv(20.0, 70.0, 0, 0.5);
  batch::ClusterOptions options;
  options.faults = &faults;
  const auto result = batch::run_cluster(model, jobs, options);
  ASSERT_EQ(result.records.size(), 1u);
  const auto& r = result.records[0];
  EXPECT_EQ(r.end_reason, batch::EndReason::kCompleted);
  EXPECT_NEAR(r.end_s, 20.0 + 50.0 + (100.0 - 20.0 - 50.0 * 2.0 / 3.0),
              1e-6);
}

TEST(Resilience, FaultFreeRunMatchesPlainCluster) {
  const batch::RuntimeModel model(tiny_machine());
  const std::vector<batch::Job> jobs = {
      fixed_job(0, 0.0, 2, 300.0, 100.0), fixed_job(1, 5.0, 2, 300.0, 80.0),
      fixed_job(2, 10.0, 4, 300.0, 50.0)};
  batch::ClusterOptions plain;
  fault::FaultTimeline empty;
  batch::ClusterOptions with_empty_faults;
  with_empty_faults.faults = &empty;
  const auto a = batch::run_cluster(model, jobs, plain);
  const auto b = batch::run_cluster(model, jobs, with_empty_faults);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].start_s, b.records[i].start_s) << i;
    EXPECT_EQ(a.records[i].end_s, b.records[i].end_s) << i;
    EXPECT_EQ(a.records[i].alloc_nodes, b.records[i].alloc_nodes) << i;
    EXPECT_EQ(a.records[i].attempts, 1) << i;
  }
}

TEST(Resilience, TraceExportIsByteIdenticalUnderFaults) {
  const batch::RuntimeModel model(tiny_machine());
  std::vector<batch::Job> jobs;
  for (int i = 0; i < 8; ++i) {
    jobs.push_back(fixed_job(i, 10.0 * i, 1 + i % 3, 400.0, 60.0 + 5.0 * i,
                             0.3));
  }
  fault::FaultTimeline faults;
  faults.fail(45.0, 1);
  faults.repair(120.0, 1);
  faults.fail(200.0, 3);
  faults.repair(260.0, 3);
  faults.degrade_recv(30.0, 90.0, 2, 0.5);
  batch::ClusterOptions options;
  options.faults = &faults;
  options.checkpoint.interval_s = 25.0;
  options.checkpoint.state_bytes_per_node = 1e9;
  options.checkpoint.write_bw = 1e9;

  const auto run_once = [&] {
    trace::Recorder recorder(true);
    batch::ClusterOptions opts = options;
    opts.recorder = &recorder;
    const auto result = batch::run_cluster(model, jobs, opts);
    std::ostringstream os;
    trace::write_chrome_trace(recorder, os);
    return std::pair<std::string, double>(os.str(), result.makespan_s);
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_FALSE(a.first.empty());
  EXPECT_EQ(a.first, b.first);  // byte-identical Chrome trace
  EXPECT_EQ(a.second, b.second);
}

}  // namespace
}  // namespace ctesim
