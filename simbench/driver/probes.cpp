#include "probes.h"

#include <algorithm>
#include <array>
#include <vector>

#include "apps/alya.h"
#include "apps/gromacs.h"
#include "apps/nemo.h"
#include "apps/openifs.h"
#include "apps/wrf.h"
#include "arch/configs.h"
#include "batch/metrics.h"
#include "campaign.h"
#include "core/engine.h"
#include "core/task.h"
#include "loadgen.h"
#include "net/congestion.h"
#include "net/network.h"
#include "roofline/exec_model.h"
#include "roofline/kernel_library.h"
#include "sched/allocator.h"
#include "server/protocol.h"
#include "server/service.h"
#include "simmpi/world.h"
#include "util/json.h"
#include "util/rng.h"
#include "whatif.h"

namespace simbench {

namespace {

volatile double g_sink = 0.0;  // keeps probe loops from being optimized out

// ------------------------------------------------------------------- sched

// One allocator-visible event of a finished campaign. At equal times the
// kinds apply in this order, as in the cluster loop: releases and repairs
// free nodes before failures and new allocations claim them.
enum class EvKind { kRelease, kRepair, kFail, kAllocate };

struct ReplayEvent {
  double t = 0.0;
  EvKind kind = EvKind::kRelease;
  std::uint64_t job = 0;
  int count = 0;
  int node = 0;
};

// Rebuilds the campaign's allocate/release sequence from its JobRecords
// (the final attempt of each job) and, with faults, its node failures and
// repairs.
std::vector<ReplayEvent> replay_events(const batch::ClusterResult& result,
                                       const fault::FaultTimeline* faults) {
  std::vector<ReplayEvent> events;
  for (const batch::JobRecord& r : result.records) {
    if (r.attempts == 0 || r.alloc_nodes.empty()) continue;
    const auto id = static_cast<std::uint64_t>(r.job.id);
    events.push_back({r.start_s, EvKind::kAllocate, id, r.job.nodes, 0});
    events.push_back({r.end_s, EvKind::kRelease, id, 0, 0});
  }
  if (faults) {
    for (const fault::FaultEvent& e : faults->events()) {
      if (e.kind == fault::FaultKind::kNodeFail) {
        events.push_back({e.time_s, EvKind::kFail, 0, 0, e.node});
      } else if (e.kind == fault::FaultKind::kNodeRepair) {
        events.push_back({e.time_s, EvKind::kRepair, 0, 0, e.node});
      }
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const ReplayEvent& a, const ReplayEvent& b) {
                     return a.t < b.t || (a.t == b.t && a.kind < b.kind);
                   });
  return events;
}

struct ReplayCounts {
  int calls = 0;    ///< contiguous allocations replayed
  int skipped = 0;  ///< of which the fresh allocator could not place
};

// The replay is approximate where faults are concerned: JobRecords keep
// only each job's final attempt, so the interrupted attempts are missing
// and a failing node frees whichever replayed job it holds. The drains and
// repairs therefore run on an allocator state near the campaign's own,
// not on the campaign's own.
ReplayCounts probe_sched(const net::TorusTopology& topology,
                         const batch::ClusterResult& plain,
                         const batch::ClusterResult& faulted,
                         const fault::FaultTimeline& timeline, SpanLog& log) {
  const std::vector<ReplayEvent> events = replay_events(plain, nullptr);
  ReplayCounts counts;
  {
    sched::Allocator alloc(topology);
    for (const ReplayEvent& ev : events) {
      if (ev.kind == EvKind::kAllocate) {
        ++counts.calls;
        ScopedSpan span(log, "sched.allocate_contiguous", ev.job);
        if (alloc.allocate(ev.job, ev.count, sched::Policy::kContiguous)
                .empty()) {
          ++counts.skipped;
        }
      } else if (alloc.owns(ev.job)) {
        ScopedSpan span(log, "sched.release", ev.job);
        alloc.release(ev.job);
      }
      // The cluster loop samples the allocator after every event.
      {
        ScopedSpan span(log, "sched.fragmentation", ev.job);
        g_sink = alloc.fragmentation();
      }
      {
        constexpr int kReps = 16;
        ScopedSpan span(log, "sched.free_nodes", ev.job, kReps);
        for (int i = 0; i < kReps; ++i) g_sink = alloc.free_nodes();
      }
      {
        ScopedSpan span(log, "sched.largest_free_block", ev.job);
        g_sink = alloc.largest_free_block();
      }
    }
  }
  {
    sched::Allocator alloc(topology);
    for (const ReplayEvent& ev : events) {
      if (ev.kind == EvKind::kAllocate) {
        ScopedSpan span(log, "sched.allocate_linear", ev.job);
        alloc.allocate(ev.job, ev.count, sched::Policy::kLinear);
      } else if (alloc.owns(ev.job)) {
        alloc.release(ev.job);
      }
    }
  }
  {
    // Drains and returns to service, interleaved with the faulted
    // campaign's own allocations; a failing busy node first loses its job.
    sched::Allocator alloc(topology);
    std::vector<std::uint64_t> owner(
        static_cast<std::size_t>(topology.num_nodes()), 0);  // job id + 1
    auto release = [&](std::uint64_t job) {
      for (int n : alloc.nodes_of(job)) owner[static_cast<std::size_t>(n)] = 0;
      alloc.release(job);
    };
    for (const ReplayEvent& ev : replay_events(faulted, &timeline)) {
      switch (ev.kind) {
        case EvKind::kAllocate:
          for (int n :
               alloc.allocate(ev.job, ev.count, sched::Policy::kContiguous)) {
            owner[static_cast<std::size_t>(n)] = ev.job + 1;
          }
          break;
        case EvKind::kRelease:
          if (alloc.owns(ev.job)) release(ev.job);
          break;
        case EvKind::kFail: {
          if (alloc.is_drained(ev.node)) break;
          const std::uint64_t o = owner[static_cast<std::size_t>(ev.node)];
          if (o != 0) release(o - 1);
          ScopedSpan span(log, "sched.drain", static_cast<std::uint64_t>(ev.node));
          alloc.drain(ev.node);
          break;
        }
        case EvKind::kRepair: {
          if (!alloc.is_drained(ev.node)) break;
          ScopedSpan span(log, "sched.return_to_service",
                          static_cast<std::uint64_t>(ev.node));
          alloc.return_to_service(ev.node);
          break;
        }
      }
    }
  }
  return counts;
}

// --------------------------------------------------------------------- net

void probe_net(const arch::MachineModel& machine,
               const net::TorusTopology& topology, std::uint64_t seed,
               SpanLog& log) {
  Rng rng(mix_seed(seed, 0x4e7));
  const int n = topology.num_nodes();
  std::vector<std::array<int, 2>> pairs;
  while (pairs.size() < 4096) {
    const int a = static_cast<int>(rng.uniform_int(0, n - 1));
    const int b = static_cast<int>(rng.uniform_int(0, n - 1));
    if (a != b) pairs.push_back({a, b});
  }
  const auto pair = [&](int i) { return pairs[static_cast<std::size_t>(i) & 4095]; };
  {
    constexpr int kCalls = 1 << 18;
    ScopedSpan span(log, "net.hops", 0, kCalls);
    long sum = 0;
    for (int i = 0; i < kCalls; ++i) sum += topology.hops(pair(i)[0], pair(i)[1]);
    g_sink = static_cast<double>(sum);
  }
  {
    constexpr int kCalls = 1 << 17;
    ScopedSpan span(log, "net.coordinates", 0, kCalls);
    long sum = 0;
    for (int i = 0; i < kCalls; ++i) sum += topology.coordinates(i % n)[0];
    g_sink = static_cast<double>(sum);
  }
  net::Network network(machine.interconnect, machine.num_nodes);
  {
    constexpr int kCalls = 1 << 17;
    ScopedSpan span(log, "net.transfer", 0, kCalls);
    double sum = 0.0;
    for (int i = 0; i < kCalls; ++i) {
      sum += network.transfer(pair(i)[0], pair(i)[1], 1ull << (6 + i % 16)).time_s;
    }
    g_sink = sum;
  }
  {
    constexpr int kCalls = 1 << 15;
    net::CongestionModel congestion(network);
    ScopedSpan span(log, "net.congestion_transfer", 0, kCalls);
    sim::Time sum = 0;
    for (int i = 0; i < kCalls; ++i) {
      sum += congestion.transfer_at(pair(i)[0], pair(i)[1], 1ull << (6 + i % 16),
                                    sim::Time{i} * 1'000'000);
    }
    g_sink = static_cast<double>(sum);
  }
}

// -------------------------------------------------------------------- core

// A self-rescheduling timer: one event per call until the budget is spent.
struct Timer {
  sim::Engine* engine;
  std::uint64_t* left;
  void operator()() const {
    if (*left == 0) return;
    --*left;
    engine->schedule_in(1 + static_cast<sim::Time>(*left % 7), Timer{*this});
  }
};

sim::Task<> sleeper(sim::Engine& engine, int steps) {
  for (int i = 0; i < steps; ++i) co_await engine.delay(1);
}

void probe_core(SpanLog& log) {
  {
    constexpr std::uint64_t kEvents = 1 << 19;
    sim::Engine engine;
    std::uint64_t left = kEvents;
    ScopedSpan span(log, "core.dispatch", 0, kEvents);
    for (int t = 0; t < 16; ++t) engine.schedule_at(t, Timer{&engine, &left});
    engine.run();
  }
  {
    constexpr int kProcs = 256, kSteps = 512;
    sim::Engine engine;
    ScopedSpan span(log, "core.spawn_resume", 0, kProcs * kSteps);
    for (int p = 0; p < kProcs; ++p) engine.spawn(sleeper(engine, kSteps));
    engine.run();
  }
}

// ------------------------------------------------------------------ simmpi

sim::Task<> ping_pong(mpi::Rank& r, int messages) {
  for (int i = 0; i < messages; ++i) {
    if (r.id() == 0) {
      co_await r.send(1, 1024);
      co_await r.recv(1);
    } else {
      co_await r.recv(0);
      co_await r.send(0, 1024);
    }
  }
}

sim::Task<> allreduces(mpi::Rank& r, int count) {
  for (int i = 0; i < count; ++i) co_await r.allreduce(8);
}

// 2-D periodic 8x8 halo exchange with a stencil sweep per step.
sim::Task<> halo_steps(mpi::Rank& r, int steps) {
  const int x = r.id() % 8, y = r.id() / 8;
  const std::array<int, 4> nbrs = {((x + 1) % 8) + 8 * y, ((x + 7) % 8) + 8 * y,
                                   x + 8 * ((y + 1) % 8), x + 8 * ((y + 7) % 8)};
  for (int i = 0; i < steps; ++i) {
    co_await r.compute(roofline::kernels::stencil3d(), 2.0e5);
    co_await r.exchange(nbrs, 64 * 1024);
  }
}

void probe_simmpi(const arch::MachineModel& machine, SpanLog& log) {
  mpi::WorldOptions options;
  options.machine = machine;
  {
    constexpr int kMessages = 20000;
    mpi::World world(options, mpi::Placement::per_node(machine.node, 2));
    ScopedSpan span(log, "simmpi.p2p", 0, 2 * kMessages);
    world.run([](mpi::Rank& r) { return ping_pong(r, kMessages); });
  }
  {
    constexpr int kCount = 200;
    mpi::World world(options, mpi::Placement::per_node(machine.node, 64));
    ScopedSpan span(log, "simmpi.allreduce", 0, kCount);
    world.run([](mpi::Rank& r) { return allreduces(r, kCount); });
  }
  {
    constexpr int kSteps = 100;
    mpi::World world(options, mpi::Placement::per_node(machine.node, 64));
    ScopedSpan span(log, "simmpi.halo_step", 0, kSteps);
    world.run([](mpi::Rank& r) { return halo_steps(r, kSteps); });
  }
}

// ---------------------------------------------------------------- roofline

void probe_roofline(const arch::MachineModel& machine, SpanLog& log) {
  const roofline::ExecModel exec(machine.node,
                                 arch::default_app_compiler(machine));
  const std::array<roofline::KernelSig, 4> sigs = {
      roofline::kernels::stream_triad(), roofline::kernels::dgemm(),
      roofline::kernels::spmv_csr(), roofline::kernels::stencil3d()};
  constexpr int kCalls = 1 << 16;
  ScopedSpan span(log, "roofline.exec", 0, kCalls);
  double sum = 0.0;
  for (int i = 0; i < kCalls; ++i) {
    sum += exec.analyze(sigs[static_cast<std::size_t>(i) & 3], 1.0e6 + i, 48)
               .total_s;
  }
  g_sink = sum;
}

// -------------------------------------------------------------------- apps

void probe_apps(const arch::MachineModel& cte, SpanLog& log) {
  {
    ScopedSpan span(log, "apps.nemo_cte8", 8);
    g_sink = apps::run_nemo(cte, 8).total_time;
  }
  {
    ScopedSpan span(log, "apps.nemo_cte32", 32);
    g_sink = apps::run_nemo(cte, 32).total_time;
  }
  {
    ScopedSpan span(log, "apps.nemo_cte128", 128);
    g_sink = apps::run_nemo(cte, 128).total_time;
  }
  {
    ScopedSpan span(log, "apps.alya48", 48);
    g_sink = apps::run_alya(cte, 48).time_per_step;
  }
  {
    ScopedSpan span(log, "apps.wrf64", 64);
    g_sink = apps::run_wrf(cte, 64).total_time;
  }
  {
    ScopedSpan span(log, "apps.gromacs64", 64);
    g_sink = apps::run_gromacs(cte, 64 * 8).days_per_ns;
  }
  {
    ScopedSpan span(log, "apps.openifs16", 16);
    g_sink = apps::run_openifs_ranks(cte, 16).seconds_per_day;
  }
}

// ---------------------------------------------------------- util / server

void probe_server(const batch::ClusterResult& campaign, int nodes,
                  std::uint64_t seed, SpanLog& log, JsonObject& out) {
  const batch::ClusterMetrics metrics = batch::summarize(campaign, nodes);
  const WhatifMix mix(seed);
  {
    constexpr int kReps = 1000;
    ScopedSpan span(log, "server.simulate_reply", 0, kReps);
    for (int i = 0; i < kReps; ++i) {
      g_sink = static_cast<double>(
          server::simulate_reply(1, 2, 3, metrics, campaign.engine_events)
              .size());
    }
  }
  const std::string reply =
      server::simulate_reply(1, 2, 3, metrics, campaign.engine_events);
  {
    constexpr int kReps = 1000;
    ScopedSpan span(log, "util.json_parse", 0, kReps * reply.size());
    for (int i = 0; i < kReps; ++i) {
      g_sink = static_cast<double>(json::parse(reply).object.size());
    }
  }
  std::vector<std::string> lines;
  for (std::uint64_t k = 0; k < 2000; ++k) lines.push_back(mix.at(k).line);
  std::vector<server::SimulateSpec> specs;
  {
    ScopedSpan span(log, "server.parse_request", 0, lines.size());
    for (const std::string& line : lines) {
      try {
        const server::Request r = server::parse_request(line);
        if (r.op == server::Op::kSimulate) specs.push_back(r.sim);
      } catch (const server::ProtocolError&) {
      }
    }
  }
  {
    ScopedSpan span(log, "server.canonical_workload", 0, specs.size());
    for (const auto& spec : specs) {
      g_sink = static_cast<double>(server::canonical_workload(spec).size());
    }
  }

  // In-process service: cold studies, then replays of a cached one.
  {
    server::ServiceConfig config;
    config.workers = 2;
    server::Service service(config);
    std::vector<std::string> cold;
    for (const MixItem& item : WhatifMix::golden()) {
      if (item.kind == Kind::kDistinct) cold.push_back(item.line);
    }
    for (std::uint64_t k = 0; cold.size() < 6; ++k) {
      const MixItem item = mix.at(k);
      if (item.kind == Kind::kDistinct) cold.push_back(item.line);
    }
    for (const std::string& line : cold) {
      ScopedSpan span(log, "server.handle_cold", hash64(line));
      g_sink = static_cast<double>(service.handle(line).size());
    }
    constexpr int kReps = 2000;
    ScopedSpan span(log, "server.handle_hit", hash64(cold[0]), kReps);
    for (int i = 0; i < kReps; ++i) {
      g_sink = static_cast<double>(service.handle(cold[0]).size());
    }
  }

  // A short open loop over loopback TCP: service statistics and how late
  // the generator ran.
  auto endpoint = start_endpoint(2, 4);
  std::vector<SpanLog> logs;
  for (int c = 0; c < 4; ++c) logs.emplace_back(log.enabled());
  // Four hot requests, each sent twice at once: the second is coalesced.
  const std::vector<Sample> warm = open_loop(
      std::vector<std::int64_t>(8, 0),
      [&mix](std::uint64_t k) { return mix.hot()[k / 2].line; }, 4,
      tcp_sender(*endpoint, nullptr));
  const auto offsets = poisson_offsets_ns(mix_seed(seed, 0x9b0e), 8.0, 24);
  const std::vector<Sample> samples =
      open_loop(offsets, [&mix](std::uint64_t k) { return mix.at(k).line; },
                4, tcp_sender(*endpoint, &logs));
  for (const SpanLog& l : logs) log.append(l);
  ReplyChecker checker;
  std::vector<double> lateness;
  for (const Sample& s : warm) {
    checker.check(mix.hot()[s.index / 2], s.delivered, s.reply);
  }
  for (const Sample& s : samples) {
    checker.check(mix.at(s.index), s.delivered, s.reply);
    lateness.push_back(s.lateness_ms());
  }
  const server::ServiceStats stats = endpoint->service->stats();
  const double lookups =
      static_cast<double>(stats.cache.hits + stats.cache.misses);
  out.nums("probe_lateness_ms", lateness)
      .num("probe_violations", checker.failures())
      .num("server.cache_hit_ratio",
           lookups > 0 ? static_cast<double>(stats.cache.hits) / lookups : 0.0)
      .num("server.coalesced", static_cast<double>(stats.coalesced))
      .num("server.errors", static_cast<double>(stats.errors))
      .num("server.shed", static_cast<double>(stats.shed))
      .num("server.timeouts", static_cast<double>(stats.timeouts))
      .num("server.max_queue_depth", static_cast<double>(stats.max_queue_depth));
}

}  // namespace

void run_probes(std::uint64_t seed, SpanLog& log, JsonObject& out) {
  const CampaignSet plain = make_campaigns(false, seed, 1, &log);
  const CampaignSet faulted = make_campaigns(true, seed, 1, &log);
  const batch::RuntimeModel& model = *plain.model;
  const arch::MachineModel& cte = model.machine();

  batch::ClusterResult contiguous, faults;
  {
    ScopedSpan span(log, "batch.run_cluster_contiguous", 0);
    contiguous = batch::run_cluster(
        model, plain.streams[0],
        campaign_options(plain, 0, sched::Policy::kContiguous, true));
  }
  {
    ScopedSpan span(log, "batch.run_cluster_linear", 0);
    g_sink = batch::run_cluster(
                 model, plain.streams[0],
                 campaign_options(plain, 0, sched::Policy::kLinear, true))
                 .makespan_s;
  }
  {
    ScopedSpan span(log, "batch.run_cluster_power_off", 0);
    g_sink = batch::run_cluster(
                 model, plain.streams[0],
                 campaign_options(plain, 0, sched::Policy::kContiguous, false))
                 .makespan_s;
  }
  {
    ScopedSpan span(log, "batch.run_cluster_faults", 0);
    faults = batch::run_cluster(
        *faulted.model, faulted.streams[0],
        campaign_options(faulted, 0, sched::Policy::kContiguous, true));
  }
  {
    const std::vector<batch::Job>& stream = plain.streams[0];
    constexpr int kPasses = 4;
    ScopedSpan span(log, "batch.runtime_estimate", 0, kPasses * stream.size());
    double sum = 0.0;
    for (int p = 0; p < kPasses; ++p) {
      for (const batch::Job& job : stream) sum += model.runtime(job, 1.0 + p);
    }
    g_sink = sum;
  }
  const batch::ClusterMetrics fm = batch::summarize(faults, cte.num_nodes);
  out.num("core.events_per_campaign",
          static_cast<double>(contiguous.engine_events))
      .num("fault.interrupted", fm.interrupted)
      .num("fault.failed", fm.failed)
      .num("fault.wasted_node_h", fm.wasted_node_h)
      .num("campaign_violations",
           check_result(contiguous, plain.streams[0], true) +
               check_result(faults, faulted.streams[0], true));

  // Trace overhead: the span-dense probes (the allocator replay, a few
  // spans per allocator call, and the net loops) with the log off and on,
  // in the order off, on, on, off so that a host that speeds up or slows
  // down during the four passes favours neither. Both traced passes feed
  // the per-layer figures.
  SpanLog off(false);
  double untraced_s = 0.0, traced_s = 0.0;
  ReplayCounts counts;
  for (SpanLog* l : {&off, &log, &log, &off}) {
    const std::int64_t t0 = now_ns();
    counts = probe_sched(model.topology(), contiguous, faults,
                         faulted.timelines[0], *l);
    probe_net(cte, model.topology(), seed, *l);
    (l == &log ? traced_s : untraced_s) += (now_ns() - t0) / 1e9;
  }
  out.num("sched.alloc_calls", counts.calls)
      .num("sched.replay_skipped", counts.skipped)
      .num("bench.trace_overhead_ratio", traced_s / untraced_s);
  probe_core(log);
  probe_simmpi(cte, log);
  probe_roofline(cte, log);
  probe_apps(cte, log);
  probe_server(contiguous, cte.num_nodes, seed, log, out);
}

}  // namespace simbench
