#include "batch/workload.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>

#include "roofline/kernel_library.h"
#include "util/check.h"
#include "util/csv.h"
#include "util/rng.h"

namespace ctesim::batch {

namespace {

std::vector<JobProfile> build_library() {
  namespace rk = roofline::kernels;
  // comm_fraction reflects how each kernel class communicates: spectral
  // transforms transpose globally (most placement-sensitive), iterative
  // solvers halo-exchange every sweep, column physics barely talks.
  return {
      {"stencil", rk::stencil3d(), 4e7, 1, 0.25},
      {"spmv", rk::spmv_csr(), 3e7, 1, 0.35},
      {"fem", rk::fem_assembly(), 2e6, 1, 0.15},
      {"md", rk::md_nonbonded(), 5e6, 1, 0.20},
      {"spectral", rk::spectral_transform(), 2e7, 1, 0.45},
      {"physics", rk::physics_column(), 1e6, 1, 0.05},
  };
}

double exponential(Rng& rng, double mean) {
  // uniform() < 1 exactly, so the log argument is always positive.
  return -mean * std::log(1.0 - rng.uniform());
}

}  // namespace

const std::vector<JobProfile>& profile_library() {
  static const std::vector<JobProfile> library = build_library();
  return library;
}

const JobProfile& profile_by_name(const std::string& name) {
  for (const auto& p : profile_library()) {
    if (name == p.name) return p;
  }
  throw std::runtime_error("batch: unknown job profile '" + name + "'");
}

std::vector<Job> generate(const WorkloadConfig& config,
                          const RuntimeModel& model, std::uint64_t seed) {
  CTESIM_EXPECTS(config.num_jobs >= 1);
  CTESIM_EXPECTS(config.mean_interarrival_s > 0.0);
  CTESIM_EXPECTS(config.burst_fraction >= 0.0 && config.burst_fraction < 1.0);
  CTESIM_EXPECTS(config.min_nodes >= 1 &&
                 config.min_nodes <= config.max_nodes);
  CTESIM_EXPECTS(config.max_nodes <= model.machine().num_nodes);
  CTESIM_EXPECTS(config.min_runtime_s > 0.0 &&
                 config.min_runtime_s <= config.max_runtime_s);
  CTESIM_EXPECTS(config.walltime_pad_min >= 1.0 &&
                 config.walltime_pad_min <= config.walltime_pad_max);

  Rng rng(seed);
  const auto& library = profile_library();
  std::vector<Job> jobs;
  jobs.reserve(static_cast<std::size_t>(config.num_jobs));
  double clock = 0.0;
  for (int i = 0; i < config.num_jobs; ++i) {
    Job job;
    job.id = i;
    // Arrival: exponential gap, except a burst_fraction of jobs lands
    // together with its predecessor (batch campaign submissions).
    const bool in_burst = i > 0 && rng.uniform() < config.burst_fraction;
    if (!in_burst) clock += exponential(rng, config.mean_interarrival_s);
    job.arrival_s = clock;

    // Size: log2-uniform node count.
    const double e =
        rng.uniform(std::log2(static_cast<double>(config.min_nodes)),
                    std::log2(static_cast<double>(config.max_nodes)));
    job.nodes =
        std::clamp(static_cast<int>(std::lround(std::exp2(e))),
                   config.min_nodes, config.max_nodes);

    job.profile = library[static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(library.size()) - 1))];

    // Runtime: pick the iteration count landing nearest a log-uniform
    // target, so runtimes still flow through the roofline model.
    const double target = std::exp(rng.uniform(
        std::log(config.min_runtime_s), std::log(config.max_runtime_s)));
    Job probe = job;
    probe.profile.iterations = 1;
    const double per_iter = model.reference_runtime(probe);
    job.profile.iterations =
        std::max(1, static_cast<int>(std::lround(target / per_iter)));

    job.walltime_s =
        model.reference_runtime(job) *
        rng.uniform(config.walltime_pad_min, config.walltime_pad_max);
    jobs.push_back(job);
  }
  return jobs;
}

std::vector<Job> load_trace(const std::string& path) {
  CsvReader reader(path);
  for (const char* column :
       {"id", "arrival_s", "nodes", "walltime_s", "runtime_s", "profile"}) {
    if (!reader.has_column(column)) {
      throw std::runtime_error("batch: trace " + path + " lacks column " +
                               column);
    }
  }
  // Cells are untrusted: std::stod accepts nan, inf and 1e300, and casting
  // those to int (or feeding them to the engine clock) is undefined.
  const auto number = [&](std::size_t r, const char* column, bool integral) {
    const double v = reader.number(r, column);
    if (!std::isfinite(v) ||
        (integral && (v != std::floor(v) ||
                      std::abs(v) > std::numeric_limits<int>::max()))) {
      throw std::runtime_error("batch: trace " + path + " row " +
                               std::to_string(r + 1) + ": bad " + column +
                               " '" + reader.cell(r, column) + "'");
    }
    return v;
  };
  std::vector<Job> jobs;
  jobs.reserve(reader.rows());
  std::set<int> ids;
  for (std::size_t r = 0; r < reader.rows(); ++r) {
    Job job;
    job.id = static_cast<int>(number(r, "id", true));
    job.arrival_s = number(r, "arrival_s", false);
    job.nodes = static_cast<int>(number(r, "nodes", true));
    job.walltime_s = number(r, "walltime_s", false);
    job.fixed_runtime_s = number(r, "runtime_s", false);
    if (!ids.insert(job.id).second) {
      throw std::runtime_error("batch: trace " + path + " repeats job id " +
                               std::to_string(job.id));
    }
    job.profile = profile_by_name(reader.cell(r, "profile"));
    if (job.fixed_runtime_s <= 0.0) {
      throw std::runtime_error("batch: trace rows need runtime_s > 0");
    }
    if (job.nodes < 1 || job.walltime_s <= 0.0 || job.arrival_s < 0.0) {
      throw std::runtime_error("batch: malformed trace row in " + path);
    }
    jobs.push_back(job);
  }
  std::stable_sort(jobs.begin(), jobs.end(),
                   [](const Job& a, const Job& b) {
                     return a.arrival_s < b.arrival_s;
                   });
  return jobs;
}

void write_trace(const std::vector<Job>& jobs, const RuntimeModel& model,
                 const std::string& path) {
  CsvWriter writer(path, {"id", "arrival_s", "nodes", "walltime_s",
                          "runtime_s", "profile"});
  for (const Job& job : jobs) {
    const double runtime = job.fixed_runtime_s > 0.0
                               ? job.fixed_runtime_s
                               : model.reference_runtime(job);
    char arrival[64], walltime[64], run[64];
    std::snprintf(arrival, sizeof(arrival), "%.9g", job.arrival_s);
    std::snprintf(walltime, sizeof(walltime), "%.9g", job.walltime_s);
    std::snprintf(run, sizeof(run), "%.9g", runtime);
    writer.row(std::vector<std::string>{
        std::to_string(job.id), arrival, std::to_string(job.nodes), walltime,
        run, job.profile.name});
  }
}

}  // namespace ctesim::batch
