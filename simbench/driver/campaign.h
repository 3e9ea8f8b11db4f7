// The batch campaigns of the `campaign` and `campaign_faults` workloads:
// 600-job Poisson+burst streams on the 192-node CTE-Arm model, EASY
// backfill, contiguous placement, power model on; with faults, a seeded
// 6 h-MTBF node-failure timeline and Young/Daly checkpointing.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "batch/cluster.h"
#include "batch/job.h"
#include "batch/runtime.h"
#include "fault/fault.h"
#include "fault/mtbf.h"
#include "power/power_model.h"
#include "span_log.h"

namespace simbench {

using namespace ctesim;  // the driver is a client of every ctesim layer

/// splitmix64 finalizer: derives independent seeds from (seed, index).
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t index);

struct CampaignSet {
  std::unique_ptr<batch::RuntimeModel> model;
  power::PowerModel power;
  fault::FaultModel fault_model;
  bool faults = false;
  std::vector<std::vector<batch::Job>> streams;
  std::vector<fault::FaultTimeline> timelines;  ///< one per stream (faults)
};

/// Builds the machine, runtime model and `count` streams (and timelines).
/// With a log, each generate call is a span.
CampaignSet make_campaigns(bool faults, std::uint64_t seed, int count,
                           SpanLog* log = nullptr);

batch::ClusterOptions campaign_options(const CampaignSet& set,
                                       std::size_t stream,
                                       sched::Policy placement,
                                       bool power_on);

/// Hash of every JobRecord, the EnergyTotals and the engine event count.
std::uint64_t digest(const batch::ClusterResult& result);

/// Seed-independent checks: every job accounted for, times ordered,
/// energy components summing to the total. Returns the violation count.
int check_result(const batch::ClusterResult& result,
                 const std::vector<batch::Job>& stream, bool power_on);

std::string hex(std::uint64_t h);

}  // namespace simbench
