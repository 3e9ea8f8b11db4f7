#include "campaign.h"

#include <bit>
#include <cmath>
#include <cstdio>

#include "arch/configs.h"
#include "batch/workload.h"
#include "util/hash.h"

namespace simbench {

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + index + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {

constexpr double kNodeMtbfS = 6.0 * 3600.0;
constexpr std::uint64_t kTimelineSalt = 0xfa17;

batch::WorkloadConfig stream_config() {
  batch::WorkloadConfig config;
  config.num_jobs = 600;
  config.mean_interarrival_s = 16.0;
  config.burst_fraction = 0.3;
  return config;
}

std::uint64_t fold(std::uint64_t h, double v) {
  return hash_combine(h, std::bit_cast<std::uint64_t>(v));
}

std::uint64_t fold(std::uint64_t h, std::int64_t v) {
  return hash_combine(h, static_cast<std::uint64_t>(v));
}

}  // namespace

CampaignSet make_campaigns(bool faults, std::uint64_t seed, int count,
                           SpanLog* log) {
  CampaignSet set;
  set.model = std::make_unique<batch::RuntimeModel>(arch::cte_arm());
  set.power = power::default_power(set.model->machine());
  set.faults = faults;
  set.fault_model.node_failure.mtbf_s = kNodeMtbfS;
  set.fault_model.node_failure.mean_repair_s = 1800.0;
  const batch::WorkloadConfig config = stream_config();
  for (int i = 0; i < count; ++i) {
    const std::uint64_t s = mix_seed(seed, static_cast<std::uint64_t>(i));
    {
      const int span = log ? log->open("batch.generate", s, 1) : -1;
      set.streams.push_back(batch::generate(config, *set.model, s));
      if (log) log->close(span);
    }
    if (faults) {
      const int span = log ? log->open("fault.generate_timeline", s, 1) : -1;
      const double horizon_s = set.streams.back().back().arrival_s + 4 * 3600.0;
      set.timelines.push_back(fault::generate_timeline(
          set.fault_model, set.model->machine().num_nodes, horizon_s,
          s ^ kTimelineSalt));
      if (log) log->close(span);
    }
  }
  return set;
}

batch::ClusterOptions campaign_options(const CampaignSet& set,
                                       std::size_t stream,
                                       sched::Policy placement,
                                       bool power_on) {
  batch::ClusterOptions options;
  options.placement = placement;
  options.seed = 1;
  if (power_on) options.power = &set.power;
  if (set.faults) {
    options.faults = &set.timelines[stream];
    options.checkpoint.young_daly = true;
    options.checkpoint.node_mtbf_s = kNodeMtbfS;
    options.checkpoint.state_bytes_per_node = 4.0 * (1ull << 30);
    options.checkpoint.restart_s = 30.0;
    options.max_retries = 3;
  }
  return options;
}

std::uint64_t digest(const batch::ClusterResult& result) {
  std::uint64_t h = hash64("ctesim-campaign");
  for (const batch::JobRecord& r : result.records) {
    h = fold(h, std::int64_t{r.job.id});
    h = fold(h, r.job.arrival_s);
    h = fold(h, std::int64_t{r.job.nodes});
    h = fold(h, r.job.walltime_s);
    h = fold(h, r.start_s);
    h = fold(h, r.end_s);
    for (int n : r.alloc_nodes) h = fold(h, std::int64_t{n});
    h = fold(h, r.mean_hops);
    h = fold(h, r.placement_slowdown);
    h = fold(h, static_cast<std::int64_t>(r.end_reason));
    h = fold(h, std::int64_t{r.attempts});
    h = fold(h, std::int64_t{r.interruptions});
    h = fold(h, r.first_start_s);
    h = fold(h, r.busy_node_s);
    h = fold(h, r.useful_node_s);
    h = fold(h, r.wasted_node_s);
    h = fold(h, r.energy_j);
    h = fold(h, r.wasted_energy_j);
    h = fold(h, r.dvfs_freq_scale);
  }
  const batch::EnergyTotals& e = result.energy;
  for (double v : {e.cpu_j, e.mem_j, e.net_j, e.idle_j, e.total_j, e.wasted_j,
                   e.peak_w}) {
    h = fold(h, v);
  }
  h = fold(h, std::int64_t{e.capped_starts});
  h = fold(h, std::int64_t{e.downclocked_jobs});
  h = fold(h, static_cast<std::int64_t>(result.engine_events));
  return fold(h, result.makespan_s);
}

int check_result(const batch::ClusterResult& result,
                 const std::vector<batch::Job>& stream, bool power_on) {
  int bad = 0;
  if (result.records.size() != stream.size()) return 1;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const batch::JobRecord& r = result.records[i];
    if (r.job.id != stream[i].id) ++bad;
    if (r.attempts == 0) continue;  // never ran (failed before a start)
    if (r.start_s + 1e-9 < r.job.arrival_s || r.end_s < r.start_s) ++bad;
    if (r.end_reason != batch::EndReason::kNodeFailure &&
        static_cast<int>(r.alloc_nodes.size()) != r.job.nodes) {
      ++bad;
    }
  }
  if (result.engine_events == 0) ++bad;
  if (power_on) {
    const batch::EnergyTotals& e = result.energy;
    const double sum = e.cpu_j + e.mem_j + e.net_j + e.idle_j;
    if (!result.has_power || !(e.total_j > 0.0) ||
        std::abs(sum - e.total_j) > 1e-9 * e.total_j) {
      ++bad;
    }
  }
  return bad;
}

std::string hex(std::uint64_t h) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

}  // namespace simbench
