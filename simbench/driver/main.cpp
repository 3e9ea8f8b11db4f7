// simbench_driver: the in-process half of the ctesim benchmark. run.py
// builds it, runs one mode per benchmark run, and turns the one-line JSON
// record it prints into metrics.
//
//   simbench_driver campaign|campaign_faults|whatif --seed N --seconds S
//   simbench_driver probes --seed N --spans-out PATH
//   simbench_driver repro_setup --seed N
//   simbench_driver selftest
//
// The workload modes time their workload untraced. `probes` is the traced
// run of every workload: the layer probes, recording spans around each
// call into a ctesim layer.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "arch/configs.h"
#include "campaign.h"
#include "loadgen.h"
#include "probes.h"
#include "server/client.h"
#include "server/service.h"
#include "simmpi/world.h"
#include "util/hash.h"
#include "span_log.h"
#include "whatif.h"

using namespace simbench;

namespace {

constexpr std::uint64_t kDefaultSeed = 1;
// Set-up is timed in samples of repeated constructions lasting at least
// kSetupSampleSeconds each, so that one preemption moves a sample little;
// a sample is the time per construction. The host's speed changes from
// second to second, so the samples are spread over the run (one after
// each campaign, one after each repro binary): set-up then sees the same
// host as the work it sets up.
constexpr double kSetupSampleSeconds = 0.1;
// What-if set-up samples (one service start each, ~0.15 s) taken at each
// of four points of the run: before and after each of the load's phases.
constexpr int kWhatifSetupSamplesPerPoint = 2;
constexpr int kStreams = 24;
constexpr int kConnections = 4;
constexpr int kWorkers = 2;
// Open-loop arrival rate: about a third of what the two workers complete
// back to back with this mix, at the commit that introduced the benchmark.
// Fixed, so that a faster server shows lower latency at the same offered
// load. (At half load, queueing turned the shared host's speed swings into
// p95 swings larger than the benchmark's bound.)
constexpr double kOpenLoopRate = 15.0;
// Shares of --seconds: the open loop's request count is rate x share x
// seconds (216 at 20 s, so p95 has 10 samples beyond it); the closed loop
// runs for its share, split around the open loop.
constexpr double kOpenLoopShare = 0.72;
constexpr double kClosedLoopShare = 0.25;
// Closed-loop requests are numbered apart from the open loop's.
constexpr std::uint64_t kClosedFirstIndex = 1'000'000;

struct Args {
  std::string mode;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  std::string spans_out;
};

double seconds_since(std::int64_t t0) { return (now_ns() - t0) / 1e9; }

// One set-up sample: time per call of `construct` over calls lasting at
// least kSetupSampleSeconds.
template <class Construct>
double setup_sample(Construct&& construct) {
  int calls = 0;
  const std::int64_t t0 = now_ns();
  do {
    construct();
    ++calls;
  } while (seconds_since(t0) < kSetupSampleSeconds);
  return seconds_since(t0) / calls;
}

void write_spans(const Args& args, const SpanLog& log) {
  if (args.spans_out.empty()) return;
  std::FILE* f = std::fopen(args.spans_out.c_str(), "w");
  if (!f) throw std::runtime_error("cannot write " + args.spans_out);
  log.write_json(f);
  std::fclose(f);
}

// ---------------------------------------------------------------- campaign

struct CampaignRun {
  double ms = 0.0;
  std::uint64_t digest = 0;
  int violations = 0;
};

CampaignRun run_campaign(const CampaignSet& set, std::size_t stream) {
  CampaignRun run;
  const auto options =
      campaign_options(set, stream, sched::Policy::kContiguous, true);
  const std::int64_t t0 = now_ns();
  const batch::ClusterResult result =
      batch::run_cluster(*set.model, set.streams[stream], options);
  run.ms = (now_ns() - t0) / 1e6;
  run.digest = digest(result);
  run.violations = check_result(result, set.streams[stream], true);
  return run;
}

JsonObject campaign_mode(const Args& args, bool faults) {
  JsonObject out;
  const auto construct = [&] {
    return make_campaigns(faults, args.seed, kStreams);
  };
  const CampaignSet set = construct();
  std::vector<double> setup_s;

  // One untimed campaign first: it fills the runtime model's lazy caches
  // and the heap, which would otherwise weigh on short runs only.
  run_campaign(set, kStreams - 1);

  std::vector<double> unit_ms, unit_jobs;
  std::vector<std::string> digests;
  std::vector<std::uint64_t> first_digest(kStreams, 0);
  int violations = 0, repeat_mismatch = 0;
  const std::int64_t t0 = now_ns();
  for (std::size_t i = 0;; ++i) {
    if (i >= 3 && seconds_since(t0) >= args.seconds) break;
    const std::size_t stream = i % kStreams;
    const CampaignRun run = run_campaign(set, stream);
    unit_ms.push_back(run.ms);
    unit_jobs.push_back(static_cast<double>(set.streams[stream].size()));
    violations += run.violations;
    if (i < kStreams) {
      first_digest[stream] = run.digest;
      digests.push_back(hex(run.digest));
    } else if (first_digest[stream] != run.digest) {
      ++repeat_mismatch;  // the same stream must replay identically
    }
    setup_s.push_back(setup_sample(construct));
  }

  // Golden check: the default seed's first stream, on every run.
  const CampaignSet golden_set = make_campaigns(faults, kDefaultSeed, 1);
  const CampaignRun golden = run_campaign(golden_set, 0);
  violations += golden.violations;

  out.nums("setup_s", setup_s)
      .nums("unit_ms", unit_ms)
      .nums("unit_jobs", unit_jobs)
      .strs("digests", digests)
      .num("violations", violations)
      .num("repeat_mismatch", repeat_mismatch)
      .str("golden", hex(golden.digest));
  return out;
}

// ------------------------------------------------------------------ whatif

std::vector<double> latencies(const std::vector<Sample>& samples,
                              bool lateness) {
  std::vector<double> v;
  for (const Sample& s : samples) {
    v.push_back(lateness ? s.lateness_ms() : s.latency_ms());
  }
  return v;
}

JsonObject whatif_mode(const Args& args) {
  JsonObject out;
  const WhatifMix mix(args.seed);
  const LineFn line_of = [&mix](std::uint64_t k) { return mix.at(k).line; };

  // Set-up: service start, connections, and a first study, which builds
  // the service's shared machine model. Thread start-up alone takes well
  // under a millisecond and swings several-fold on a shared host. The
  // endpoint that serves the load is the last one started before it.
  const MixItem first = WhatifMix::golden()[0];
  std::vector<double> setup_s;
  ReplyChecker setup_checker;
  const auto start = [&] {
    const std::int64_t t0 = now_ns();
    auto endpoint = start_endpoint(kWorkers, kConnections);
    setup_checker.check(first, true, endpoint->clients[0]->request(first.line));
    setup_s.push_back(seconds_since(t0));
    return endpoint;
  };
  const auto setup_point = [&] {
    for (int r = 0; r < kWhatifSetupSamplesPerPoint; ++r) start();
  };
  for (int r = 1; r < kWhatifSetupSamplesPerPoint; ++r) start();
  const std::unique_ptr<Endpoint> e = start();

  // Warm-up, outside the statistics: each hot request twice in a row, so
  // that two connections ask for it at once and the second is coalesced
  // onto the first; afterwards the hot set is cached.
  const SendFn send = tcp_sender(*e, nullptr);
  const std::vector<MixItem>& hot = mix.hot();
  const std::vector<Sample> warm = open_loop(
      std::vector<std::int64_t>(2 * hot.size(), 0),
      [&hot](std::uint64_t k) { return hot[k / 2].line; }, kConnections, send);

  // The closed loop runs in two halves, before and after the open loop,
  // so that its capacity figure spans the whole run rather than one
  // stretch of it.
  const auto closed_half = [&](std::uint64_t first) {
    return closed_loop(args.seconds * kClosedLoopShare / 2, first, line_of,
                       kConnections, send);
  };
  const std::vector<Sample> closed_a = closed_half(kClosedFirstIndex);
  setup_point();
  const auto n_open = static_cast<std::size_t>(
      std::llround(kOpenLoopRate * kOpenLoopShare * args.seconds));
  const auto offsets =
      poisson_offsets_ns(mix_seed(args.seed, 0x0ff5), kOpenLoopRate, n_open);
  const std::vector<Sample> open = open_loop(offsets, line_of, kConnections, send);
  setup_point();
  const std::vector<Sample> closed_b =
      closed_half(kClosedFirstIndex + closed_a.size());
  setup_point();
  double closed_seconds = 0.0;
  for (const auto* half : {&closed_a, &closed_b}) {
    std::int64_t first = half->front().sent_ns, last = first;
    for (const Sample& s : *half) {
      first = std::min(first, s.sent_ns);
      last = std::max(last, s.done_ns);
    }
    closed_seconds += (last - first) / 1e9;
  }

  ReplyChecker checker;
  for (const Sample& s : warm) checker.check(hot[s.index / 2], s.delivered, s.reply);
  for (const auto* samples : {&closed_a, &open, &closed_b}) {
    for (const Sample& s : *samples) {
      checker.check(mix.at(s.index), s.delivered, s.reply);
    }
  }
  const server::ServiceStats stats = e->service->stats();

  // Golden check: fixed requests, reply bytes compared with the record.
  ReplyChecker golden_checker;
  std::vector<std::string> golden;
  for (const MixItem& item : WhatifMix::golden()) {
    const std::string reply = e->service->handle(item.line);
    golden_checker.check(item, true, reply);
    golden.push_back(hex(hash64(reply)));
  }

  std::string replies = "{";
  for (const auto& [req, rep] : checker.replies()) {
    replies += (replies.size() > 1 ? ",\"" : "\"") + hex(req) + "\":\"" +
               hex(rep) + "\"";
  }
  replies += "}";

  out.nums("setup_s", setup_s)
      .nums("open_latency_ms", latencies(open, false))
      .nums("open_lateness_ms", latencies(open, true))
      .num("closed_completed",
           static_cast<double>(closed_a.size() + closed_b.size()))
      .num("closed_seconds", closed_seconds)
      .num("checked", checker.checked() + golden_checker.checked() +
                          setup_checker.checked())
      .num("violations", checker.failures() + golden_checker.failures() +
                             setup_checker.failures())
      .strs("golden", golden)
      .raw("replies", replies)
      .num("server_coalesced", static_cast<double>(stats.coalesced))
      .num("server_shed", static_cast<double>(stats.shed))
      .num("server_timeouts", static_cast<double>(stats.timeouts));
  return out;
}

// ------------------------------------------------------------------- repro

// One set-up sample of the `repro` workload: what every paper binary
// builds before it simulates, the two machine models and a 192-node MPI
// world on each, one rank per core. The binaries run as child processes;
// this times the same construction in-process, where the shared host's
// process-start swings do not reach it.
JsonObject repro_setup_mode() {
  const auto construct = [] {
    for (const arch::MachineModel& machine :
         {arch::cte_arm(), arch::marenostrum4()}) {
      mpi::WorldOptions options;
      options.machine = machine;
      const int cores = machine.node.core_count();
      const mpi::World world(
          options, mpi::Placement::fill_nodes(machine.node, 192 * cores, cores));
    }
  };
  JsonObject out;
  out.nums("setup_s", {setup_sample(construct)});
  return out;
}

bool parse_args(int argc, char** argv, Args* args) {
  if (argc < 2) return false;
  args->mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(value);
    } else if (key == "--spans-out") {
      args->spans_out = value;
    } else {
      return false;
    }
  }
  return (argc % 2) == 0 && args->seconds > 0.0;
}

}  // namespace

int run_selftest();  // selftest.cpp

int main(int argc, char** argv) {
  Args args;
  if (argc == 2 && std::strcmp(argv[1], "selftest") == 0) {
    return run_selftest();
  }
  if (!parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: simbench_driver "
                 "campaign|campaign_faults|whatif|probes|repro_setup "
                 "--seed N [--seconds S] [--spans-out PATH]\n"
                 "       simbench_driver selftest\n");
    return 2;
  }
  try {
    JsonObject out;
    if (args.mode == "campaign" || args.mode == "campaign_faults") {
      out = campaign_mode(args, args.mode == "campaign_faults");
    } else if (args.mode == "whatif") {
      out = whatif_mode(args);
    } else if (args.mode == "repro_setup") {
      out = repro_setup_mode();
    } else if (args.mode == "probes") {
      SpanLog spans(true);
      run_probes(args.seed, spans, out);
      write_spans(args, spans);
    } else {
      std::fprintf(stderr, "simbench_driver: unknown mode %s\n",
                   args.mode.c_str());
      return 2;
    }
    std::printf("%s\n", out.str().c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "simbench_driver: %s\n", e.what());
    return 1;
  }
  return 0;
}
