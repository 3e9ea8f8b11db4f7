// Tests for the batch-queue subsystem: workload generation, trace replay,
// queue policies (FCFS / EASY backfill) and hand-checked cluster metrics.
#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

#include "arch/configs.h"
#include "batch/cluster.h"
#include "batch/metrics.h"
#include "batch/queue.h"
#include "batch/workload.h"
#include "fault/mtbf.h"
#include "power/power_model.h"
#include "trace/chrome.h"
#include "trace/recorder.h"
#include "util/check.h"
#include "util/hash.h"

namespace ctesim::batch {
namespace {

// A 4-node toy machine (2x2 torus) with CTE-Arm nodes, for hand-checked
// scenarios.
arch::MachineModel tiny_machine() {
  arch::MachineModel m = arch::cte_arm();
  m.num_nodes = 4;
  m.interconnect.dims = {2, 2};
  return m;
}

// Fixed-runtime job: bypasses the roofline model entirely and (with
// comm_fraction 0) ignores placement, so timelines are exact.
Job fixed_job(int id, double arrival, int nodes, double walltime,
              double runtime) {
  Job job;
  job.id = id;
  job.arrival_s = arrival;
  job.nodes = nodes;
  job.walltime_s = walltime;
  job.fixed_runtime_s = runtime;
  job.profile = JobProfile{"fixed", {}, 0.0, 1, 0.0};
  return job;
}

TEST(Workload, DeterministicForFixedSeed) {
  const RuntimeModel model(arch::cte_arm());
  WorkloadConfig config;
  config.num_jobs = 64;
  config.burst_fraction = 0.3;
  const auto a = generate(config, model, 42);
  const auto b = generate(config, model, 42);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].arrival_s, b[i].arrival_s) << i;
    EXPECT_EQ(a[i].nodes, b[i].nodes) << i;
    EXPECT_EQ(a[i].walltime_s, b[i].walltime_s) << i;
    EXPECT_EQ(a[i].profile.iterations, b[i].profile.iterations) << i;
    EXPECT_STREQ(a[i].profile.name, b[i].profile.name) << i;
  }
  // A different seed gives a different stream.
  const auto c = generate(config, model, 43);
  bool any_different = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    any_different = any_different || a[i].arrival_s != c[i].arrival_s ||
                    a[i].nodes != c[i].nodes;
  }
  EXPECT_TRUE(any_different);
}

TEST(Workload, RespectsConfigBounds) {
  const RuntimeModel model(arch::cte_arm());
  WorkloadConfig config;
  config.num_jobs = 128;
  config.min_nodes = 2;
  config.max_nodes = 24;
  const auto jobs = generate(config, model, 7);
  double prev_arrival = 0.0;
  for (const Job& job : jobs) {
    EXPECT_GE(job.arrival_s, prev_arrival);
    prev_arrival = job.arrival_s;
    EXPECT_GE(job.nodes, config.min_nodes);
    EXPECT_LE(job.nodes, config.max_nodes);
    // The wall-time request pads the modeled runtime, never undercuts it.
    EXPECT_GE(job.walltime_s,
              model.reference_runtime(job) * config.walltime_pad_min * 0.999);
  }
}

TEST(Workload, TraceRoundTrips) {
  const RuntimeModel model(arch::cte_arm());
  WorkloadConfig config;
  config.num_jobs = 20;
  const auto jobs = generate(config, model, 11);
  const std::string path = "test_batch_trace.csv";
  write_trace(jobs, model, path);
  const auto replayed = load_trace(path);
  std::remove(path.c_str());
  ASSERT_EQ(replayed.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(replayed[i].id, jobs[i].id);
    EXPECT_EQ(replayed[i].nodes, jobs[i].nodes);
    EXPECT_STREQ(replayed[i].profile.name, jobs[i].profile.name);
    EXPECT_NEAR(replayed[i].arrival_s, jobs[i].arrival_s,
                1e-6 * (1.0 + jobs[i].arrival_s));
    EXPECT_NEAR(replayed[i].fixed_runtime_s,
                model.reference_runtime(jobs[i]),
                1e-6 * model.reference_runtime(jobs[i]));
  }
}

// Write `rows` under the load_trace header, replay the file, and report
// whether load_trace rejected it with its usual runtime_error. The file is
// named after the running test, so parallel ctest processes never share it.
bool trace_rejected(const std::string& rows) {
  const std::string path =
      std::string("test_batch_") +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      ".csv";
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fprintf(f, "id,arrival_s,nodes,walltime_s,runtime_s,profile\n%s",
                 rows.c_str());
    std::fclose(f);
  }
  bool rejected = false;
  try {
    load_trace(path);
  } catch (const std::runtime_error&) {
    rejected = true;
  }
  std::remove(path.c_str());
  return rejected;
}

TEST(LoadTrace, AcceptsAWellFormedRow) {
  EXPECT_FALSE(trace_rejected("7,0,2,100,50,stencil\n8,1,1,100,50,stencil\n"));
}

TEST(LoadTrace, RejectsNonFiniteCells) {
  EXPECT_TRUE(trace_rejected("1,nan,2,100,50,stencil\n"));
  EXPECT_TRUE(trace_rejected("1,0,2,inf,50,stencil\n"));
  EXPECT_TRUE(trace_rejected("1,0,2,100,inf,stencil\n"));
  EXPECT_TRUE(trace_rejected("1,0,2,100,-nan,stencil\n"));
}

TEST(LoadTrace, RejectsIdOrNodesOutsideInt) {
  EXPECT_TRUE(trace_rejected("1.5,0,2,100,50,stencil\n"));
  EXPECT_TRUE(trace_rejected("1e300,0,2,100,50,stencil\n"));
  EXPECT_TRUE(trace_rejected("-3e9,0,2,100,50,stencil\n"));
  EXPECT_TRUE(trace_rejected("1,0,2.5,100,50,stencil\n"));
  EXPECT_TRUE(trace_rejected("1,0,1e300,100,50,stencil\n"));
  EXPECT_TRUE(trace_rejected("1,0,inf,100,50,stencil\n"));
}

TEST(LoadTrace, RejectsDuplicateIds) {
  EXPECT_TRUE(trace_rejected("4,0,2,100,50,stencil\n4,5,1,100,50,stencil\n"));
}

TEST(Cluster, RejectsNonFiniteTimesAndDuplicateIds) {
  const RuntimeModel model(tiny_machine());
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(run_cluster(model, {fixed_job(0, inf, 1, 100.0, 50.0)}, {}),
               ContractError);
  EXPECT_THROW(run_cluster(model, {fixed_job(0, 0.0, 1, inf, 50.0)}, {}),
               ContractError);
  EXPECT_THROW(run_cluster(model, {fixed_job(0, 0.0, 1, 100.0, inf)}, {}),
               ContractError);
  EXPECT_THROW(run_cluster(model,
                           {fixed_job(3, 0.0, 1, 100.0, 50.0),
                            fixed_job(3, 1.0, 1, 100.0, 50.0)},
                           {}),
               ContractError);
}

TEST(RuntimeModel, ScatterSlowsCommunicatingJobsOnly) {
  const RuntimeModel model(arch::cte_arm());
  Job chatty = fixed_job(0, 0.0, 16, 1000.0, 100.0);
  chatty.profile.comm_fraction = 0.4;
  const double ref = model.reference_hops(16);
  EXPECT_DOUBLE_EQ(model.slowdown(chatty, ref), 1.0);
  EXPECT_NEAR(model.slowdown(chatty, 2.0 * ref), 1.4, 1e-12);
  // Better-than-reference placement is not a speedup.
  EXPECT_DOUBLE_EQ(model.slowdown(chatty, 0.5 * ref), 1.0);
  // Zero communication share: placement-immune.
  const Job quiet = fixed_job(1, 0.0, 16, 1000.0, 100.0);
  EXPECT_DOUBLE_EQ(model.slowdown(quiet, 10.0 * ref), 1.0);
}

TEST(JobQueue, FcfsHeadBlocksEverything) {
  JobQueue queue(QueuePolicy::kFcfs, 4);
  queue.push(fixed_job(0, 0.0, 4, 100.0, 100.0));
  queue.push(fixed_job(1, 0.0, 1, 10.0, 10.0));
  // 3 free nodes: the head does not fit and FCFS never looks past it.
  EXPECT_EQ(queue.next_startable(0.0, 3, {{9, 50.0, 1}}), -1);
  EXPECT_EQ(queue.next_startable(0.0, 4, {}), 0);
}

TEST(JobQueue, EasyBackfillRespectsShadowTime) {
  JobQueue queue(QueuePolicy::kEasyBackfill, 4);
  queue.push(fixed_job(1, 0.0, 4, 100.0, 100.0));   // head, blocked
  queue.push(fixed_job(2, 0.0, 1, 90.0, 90.0));     // ends by shadow: ok
  queue.push(fixed_job(3, 0.0, 1, 200.0, 200.0));   // would delay head
  const std::vector<Reservation> running = {{0, 100.0, 3}};
  EXPECT_DOUBLE_EQ(queue.shadow_time(0.0, 1, running), 100.0);
  // Job 2 (position 1) may backfill; job 3 may not.
  EXPECT_EQ(queue.next_startable(0.0, 1, running), 1);
  queue.pop(1);
  EXPECT_EQ(queue.next_startable(0.0, 1, running), -1);
}

TEST(Cluster, EasyBackfillNeverDelaysHead) {
  const RuntimeModel model(tiny_machine());
  // J0 holds 3 of 4 nodes until t=100 (runtime == wall-time).
  // J1 (head) needs the whole machine: shadow time is 100.
  // J2 fits the free node and ends by 92 — backfills immediately.
  // J3 fits but would run past the shadow — must wait for the head.
  const std::vector<Job> jobs = {
      fixed_job(0, 0.0, 3, 100.0, 100.0),
      fixed_job(1, 1.0, 4, 100.0, 50.0),
      fixed_job(2, 2.0, 1, 90.0, 90.0),
      fixed_job(3, 3.0, 1, 200.0, 200.0),
  };
  ClusterOptions options;
  options.queue = QueuePolicy::kEasyBackfill;
  const auto result = run_cluster(model, jobs, options);
  const auto& r = result.records;
  EXPECT_NEAR(r[0].start_s, 0.0, 1e-9);
  // The head starts exactly when it would with no backfilling at all.
  EXPECT_NEAR(r[1].start_s, 100.0, 1e-9);
  // J2 backfilled the idle node instead of queueing behind the head.
  EXPECT_NEAR(r[2].start_s, 2.0, 1e-9);
  // J3 could not backfill and started only after the head finished.
  EXPECT_NEAR(r[3].start_s, 150.0, 1e-9);

  // Same stream under FCFS: the backfill job waits for the whole line.
  options.queue = QueuePolicy::kFcfs;
  const auto fcfs = run_cluster(model, jobs, options);
  EXPECT_NEAR(fcfs.records[1].start_s, 100.0, 1e-9);  // head: unchanged
  EXPECT_GT(fcfs.records[2].start_s, 100.0);
}

TEST(Cluster, HandCheckedMetricsOnTinyMachine) {
  const RuntimeModel model(tiny_machine());
  // Two whole-machine jobs arriving together: the second waits 100 s.
  const std::vector<Job> jobs = {
      fixed_job(0, 0.0, 4, 120.0, 100.0),
      fixed_job(1, 0.0, 4, 120.0, 100.0),
  };
  const auto result = run_cluster(model, jobs, {});
  const auto m = summarize(result, 4);
  EXPECT_EQ(m.jobs, 2);
  EXPECT_EQ(m.killed, 0);
  EXPECT_NEAR(m.makespan_s, 200.0, 1e-9);
  // 2 jobs x 4 nodes x 100 s on a 4-node machine over 200 s: fully busy.
  EXPECT_NEAR(m.utilization, 1.0, 1e-9);
  EXPECT_NEAR(m.mean_wait_s, 50.0, 1e-9);
  // Bounded slowdowns: 1 (ran at once) and (100+100)/100 = 2.
  EXPECT_NEAR(m.mean_bounded_slowdown, 1.5, 1e-9);
}

TEST(Cluster, PowerCapSerializesJobsTheNodesWouldAllow) {
  const RuntimeModel model(tiny_machine());
  const power::PowerModel pm = power::default_power(model.machine());
  const arch::NodeModel& node = model.machine().node;
  const double active_w = pm.node_active(node, power::dvfs_state(0)).value();
  const double idle_w = pm.node_idle(node).value();
  // Two 2-node jobs fit the 4 nodes together, but the cap only covers one
  // running job (2 active + 2 idle nodes, plus slack): the scheduler must
  // serialize them on watts, exactly as it would on nodes.
  const std::vector<Job> jobs = {
      fixed_job(0, 0.0, 2, 300.0, 100.0),
      fixed_job(1, 0.0, 2, 300.0, 100.0),
  };
  ClusterOptions options;
  options.power = &pm;
  options.power_cap_w = 2.0 * active_w + 2.0 * idle_w + 1.0;
  const auto result = run_cluster(model, jobs, options);
  const auto& r = result.records;
  EXPECT_NEAR(r[0].start_s, 0.0, 1e-9);
  EXPECT_NEAR(r[1].start_s, 100.0, 1e-9);  // waited for watts, not nodes
  EXPECT_GT(result.energy.capped_starts, 0);
  EXPECT_NEAR(result.makespan_s, 200.0, 1e-9);
  const auto m = summarize(result, 4);
  EXPECT_LE(m.peak_power_w, options.power_cap_w);

  // Without the cap the same stream runs both jobs at once.
  ClusterOptions uncapped;
  uncapped.power = &pm;
  const auto wide = run_cluster(model, jobs, uncapped);
  EXPECT_NEAR(wide.makespan_s, 100.0, 1e-9);
  EXPECT_GT(wide.energy.peak_w, options.power_cap_w);
}

TEST(Cluster, WalltimeLimitKillsOverrunningJobs) {
  const RuntimeModel model(tiny_machine());
  const std::vector<Job> jobs = {fixed_job(0, 0.0, 2, 50.0, 100.0)};
  const auto result = run_cluster(model, jobs, {});
  const auto& r = result.records[0];
  EXPECT_EQ(r.end_reason, EndReason::kWalltimeKilled);
  EXPECT_NEAR(r.runtime_s(), 50.0, 1e-9);
  EXPECT_EQ(summarize(result, 4).killed, 1);
}

TEST(Cluster, DeterministicAcrossRuns) {
  const RuntimeModel model(arch::cte_arm());
  WorkloadConfig config;
  config.num_jobs = 80;
  config.mean_interarrival_s = 10.0;
  const auto jobs = generate(config, model, 5);
  ClusterOptions options;
  options.placement = sched::Policy::kRandom;
  const auto a = run_cluster(model, jobs, options);
  const auto b = run_cluster(model, jobs, options);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].start_s, b.records[i].start_s) << i;
    EXPECT_EQ(a.records[i].end_s, b.records[i].end_s) << i;
    EXPECT_EQ(a.records[i].alloc_nodes, b.records[i].alloc_nodes) << i;
  }
  EXPECT_EQ(a.makespan_s, b.makespan_s);
}

TEST(Cluster, ContiguousBeatsRandomUnderLoad) {
  // The bench's acceptance criterion, in miniature: on a busy machine the
  // topology-aware placement yields a lower mean bounded slowdown.
  const RuntimeModel model(arch::cte_arm());
  WorkloadConfig config;
  config.num_jobs = 200;
  config.mean_interarrival_s = 12.0;
  config.burst_fraction = 0.3;
  const auto jobs = generate(config, model, 3);
  ClusterOptions options;
  options.placement = sched::Policy::kContiguous;
  const auto compact = summarize(run_cluster(model, jobs, options), 192);
  options.placement = sched::Policy::kRandom;
  const auto scatter = summarize(run_cluster(model, jobs, options), 192);
  EXPECT_LT(compact.mean_bounded_slowdown, scatter.mean_bounded_slowdown);
  EXPECT_LT(compact.mean_hops, scatter.mean_hops);
}


// --- run_cluster goldens ---------------------------------------------------
// FNV-1a digests of everything run_cluster produces: every JobRecord field,
// the fragmentation timeline, the energy totals, the engine event count and
// (when traced) the Chrome trace bytes. Doubles are folded in as %.17g
// spellings — equal spellings iff equal doubles — so a change to event
// order, accounting or a floating-point expression shows up here. Update a
// digest only for an intended change of output.

class Digest {
 public:
  void add(double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g;", v);
    h_ = hash64(buf, h_);
  }
  void add(std::uint64_t v) { h_ = hash_combine(h_, v); }
  void add(int v) {
    add(static_cast<std::uint64_t>(static_cast<unsigned>(v)));
  }
  void add(std::string_view bytes) {
    add(static_cast<std::uint64_t>(bytes.size()));
    h_ = hash64(bytes, h_);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = kFnvOffsetBasis;
};

std::uint64_t digest(const ClusterResult& r, const trace::Recorder* rec) {
  Digest d;
  d.add(static_cast<std::uint64_t>(r.records.size()));
  for (const JobRecord& j : r.records) {
    d.add(j.job.id);
    d.add(j.job.arrival_s);
    d.add(j.job.nodes);
    d.add(j.job.walltime_s);
    d.add(j.job.fixed_runtime_s);
    d.add(std::string_view(j.job.profile.name));
    d.add(j.start_s);
    d.add(j.end_s);
    d.add(static_cast<std::uint64_t>(j.alloc_nodes.size()));
    for (const int n : j.alloc_nodes) d.add(n);
    d.add(j.mean_hops);
    d.add(j.placement_slowdown);
    d.add(static_cast<int>(j.end_reason));
    d.add(j.attempts);
    d.add(j.interruptions);
    d.add(j.first_start_s);
    d.add(j.busy_node_s);
    d.add(j.useful_node_s);
    d.add(j.wasted_node_s);
    d.add(j.energy_j);
    d.add(j.wasted_energy_j);
    d.add(j.dvfs_freq_scale);
  }
  d.add(static_cast<std::uint64_t>(r.frag_timeline.size()));
  for (const FragSample& s : r.frag_timeline) {
    d.add(s.time_s);
    d.add(s.fragmentation);
    d.add(s.busy_nodes);
    d.add(s.down_nodes);
    d.add(s.power_w);
  }
  d.add(r.makespan_s);
  d.add(r.engine_events);
  d.add(static_cast<int>(r.has_power));
  const EnergyTotals& e = r.energy;
  for (const double v : {e.cpu_j, e.mem_j, e.net_j, e.idle_j, e.total_j,
                         e.wasted_j, e.peak_w}) {
    d.add(v);
  }
  d.add(e.capped_starts);
  d.add(e.downclocked_jobs);
  if (rec != nullptr) {
    std::ostringstream os;
    trace::write_chrome_trace(*rec, os);
    d.add(os.str());
  }
  return d.value();
}

std::vector<Job> campaign_jobs(const RuntimeModel& model, int n,
                               std::uint64_t seed) {
  WorkloadConfig config;
  config.num_jobs = n;
  config.mean_interarrival_s = 15.0;
  config.burst_fraction = 0.3;
  return generate(config, model, seed);
}

// A 4-node scripted incident: degradation windows (overlapping, and one on
// a node nobody holds), two failures, one repair, checkpoints, one retry.
//   J0 (2 nodes) is slowed, loses node 0 at 200 s, restarts on {2,3} and
//      loses node 3 at 300 s: abandoned after its one retry.
//   J1 (1 node) is slowed on node 1 and completes; J3 (1 node) is
//      wall-time killed after 12.22 s, a duration for which
//      attempt_j * elapsed / elapsed does not round back to attempt_j.
//   J2 needs the whole machine, but node 3 never comes back: abandoned as
//      "machine too small" when the event queue drains.
std::vector<Job> incident_jobs() {
  std::vector<Job> jobs = {
      fixed_job(0, 0.0, 2, 1000.0, 400.0),
      fixed_job(1, 0.0, 1, 1000.0, 300.0),
      fixed_job(2, 10.0, 4, 500.0, 100.0),
      fixed_job(3, 5.0, 1, 12.22, 100.0),
  };
  jobs[0].profile.comm_fraction = 0.5;
  jobs[1].profile.comm_fraction = 0.3;
  return jobs;
}

fault::FaultTimeline incident_faults() {
  fault::FaultTimeline faults;
  faults.degrade_recv(50.0, 150.0, 0, 0.5);
  faults.degrade_recv(100.0, 180.0, 0, 0.8);
  faults.degrade_recv(120.0, 140.0, 1, 0.7);
  faults.degrade_recv(20.0, 40.0, 3, 0.6);  // node 3 is idle then
  faults.fail(200.0, 0);
  faults.repair(250.0, 0);
  faults.fail(300.0, 3);
  return faults;
}

ClusterOptions incident_options() {
  ClusterOptions options;
  options.checkpoint.interval_s = 60.0;
  options.checkpoint.state_bytes_per_node = 1e9;
  options.checkpoint.restart_s = 5.0;
  options.max_retries = 1;
  return options;
}

TEST(RunClusterGolden, EasyContiguousPowerCapDvfsBackfill) {
  const RuntimeModel model(arch::cte_arm());
  const power::PowerModel pm = power::default_power(model.machine());
  const auto jobs = campaign_jobs(model, 80, 11);
  ClusterOptions options;
  options.queue = QueuePolicy::kEasyBackfill;
  options.placement = sched::Policy::kContiguous;
  options.power = &pm;
  const double active_w =
      pm.node_active(model.machine().node, power::dvfs_state(0)).value();
  options.power_cap_w = 0.6 * 192 * active_w;
  options.dvfs_backfill = true;
  const ClusterResult r = run_cluster(model, jobs, options);
  EXPECT_GT(r.energy.capped_starts, 0);
  EXPECT_GT(r.energy.downclocked_jobs, 0);
  EXPECT_EQ(digest(r, nullptr), 0xc3cded360a23e94aULL);
}

TEST(RunClusterGolden, FcfsRandomPlacement) {
  const RuntimeModel model(arch::cte_arm());
  const auto jobs = campaign_jobs(model, 80, 12);
  ClusterOptions options;
  options.queue = QueuePolicy::kFcfs;
  options.placement = sched::Policy::kRandom;
  options.seed = 99;
  const ClusterResult r = run_cluster(model, jobs, options);
  EXPECT_EQ(digest(r, nullptr), 0x5aeee0db0cb7611eULL);
}

TEST(RunClusterGolden, ScriptedFaultsCheckpointsAndAbandonment) {
  const RuntimeModel model(tiny_machine());
  const power::PowerModel pm = power::default_power(model.machine());
  const fault::FaultTimeline faults = incident_faults();
  ClusterOptions options = incident_options();
  options.faults = &faults;
  options.power = &pm;
  const ClusterResult r = run_cluster(model, incident_jobs(), options);
  ASSERT_EQ(r.records.size(), 4u);
  EXPECT_EQ(r.records[0].end_reason, EndReason::kNodeFailure);
  EXPECT_EQ(r.records[0].attempts, 2);
  EXPECT_EQ(r.records[0].interruptions, 2);
  EXPECT_EQ(r.records[1].end_reason, EndReason::kCompleted);
  EXPECT_EQ(r.records[2].end_reason, EndReason::kNodeFailure);
  EXPECT_EQ(r.records[2].attempts, 0);
  EXPECT_EQ(r.records[3].end_reason, EndReason::kWalltimeKilled);
  EXPECT_EQ(digest(r, nullptr), 0xb76e2f6ad4579a43ULL);
}

TEST(RunClusterGolden, TracedCampaignWithMtbfFaults) {
  const RuntimeModel model(arch::cte_arm());
  const power::PowerModel pm = power::default_power(model.machine());
  const auto jobs = campaign_jobs(model, 60, 13);
  fault::FaultModel fm;
  fm.node_failure.mtbf_s = 6.0 * 3600.0;
  fm.node_failure.mean_repair_s = 600.0;
  fm.link_degradation.mtbd_s = 4.0 * 3600.0;
  fm.link_degradation.mean_duration_s = 300.0;
  const fault::FaultTimeline faults = fault::generate_timeline(
      fm, model.machine().num_nodes, 2000.0, 7);
  trace::Recorder rec;
  ClusterOptions options;
  options.faults = &faults;
  options.power = &pm;
  options.checkpoint.interval_s = 120.0;
  options.checkpoint.state_bytes_per_node = 4e9;
  options.recorder = &rec;
  const ClusterResult r = run_cluster(model, jobs, options);
  int interrupted = 0;
  for (const JobRecord& j : r.records) interrupted += j.interruptions;
  EXPECT_GT(interrupted, 0);
  EXPECT_EQ(digest(r, &rec), 0x56478c5db530284bULL);
}

}  // namespace
}  // namespace ctesim::batch
