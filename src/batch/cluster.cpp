#include "batch/cluster.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "fault/validate.h"
#include "io/filesystem.h"
#include "power/attribution.h"
#include "trace/recorder.h"
#include "util/check.h"
#include "util/log.h"
#include "util/time.h"

namespace ctesim::batch {

namespace {

/// Mix the run seed with the job id so the random placement policy draws an
/// independent, order-free stream per job (splitmix-style finalizer).
/// Retries fold the attempt number in, so a requeued job redraws its nodes.
std::uint64_t placement_seed(std::uint64_t seed, int job_id, int attempt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL *
                               (static_cast<std::uint64_t>(job_id) + 1);
  z ^= 0x94d049bb133111ebULL * static_cast<std::uint64_t>(attempt);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// One attempt of one job, currently holding nodes.
struct Attempt {
  Job job;
  std::vector<int> nodes;  ///< sorted by the allocator
  double mean_hops = 0.0;
  double placement_slowdown = 1.0;
  double start_s = 0.0;
  double full_runtime_s = 0.0;  ///< whole-job work on this placement
  double work_s = 0.0;          ///< pure work this attempt must complete
  double eff_required_s = 0.0;  ///< restart + work + checkpoint writes
  double eff_done_s = 0.0;      ///< progress on the attempt-duration clock
  double last_update_s = 0.0;   ///< sim time of the last progress accrual
  double rate = 1.0;  ///< progress per wall second (degradation slows it)
  bool restarting = false;
  fault::CheckpointCost ckpt;
  std::uint64_t epoch = 0;  ///< voids stale end events; 0 once ended
  bool killed = false;      ///< the scheduled end is a wall-time kill
  /// Per-node power draw, constant for the attempt (power layer on).
  /// Degradation stretches the attempt in time but not in watts, so the
  /// cluster draw never rises after a start — the allocation-time cap
  /// check is sufficient on a fault-free machine.
  power::JobDraw draw;
  double freq_scale = 1.0;  ///< DVFS point this attempt runs at
};

/// Everything the run knows about one job, kept at the job's position in
/// the input stream. `record` accumulates the all-attempt fields (attempts,
/// interruptions, node-seconds, energy) as attempts end; finalize() stamps
/// the final attempt's placement and end onto it.
struct Slot {
  JobRecord record;
  Attempt attempt;             ///< the live or last attempt
  double done_fraction = 0.0;  ///< checkpoint-preserved share of the work
};

void validate(const RuntimeModel& model, const std::vector<Job>& jobs,
              const ClusterOptions& options) {
  const int total_nodes = model.machine().num_nodes;
  for (const Job& job : jobs) {
    CTESIM_EXPECTS(job.nodes >= 1 && job.nodes <= total_nodes);
    CTESIM_EXPECTS(std::isfinite(job.arrival_s) &&
                   std::isfinite(job.walltime_s) &&
                   std::isfinite(job.fixed_runtime_s));
    CTESIM_EXPECTS(job.arrival_s >= 0.0 && job.walltime_s > 0.0);
  }
  CTESIM_EXPECTS(options.max_retries >= 0);
  CTESIM_EXPECTS(options.requeue_backoff_s >= 0.0);
  fault::validate_or_throw(options.checkpoint);
  if (options.faults) options.faults->validate_or_throw(total_nodes);
  if (options.power) power::validate_or_throw(*options.power);
  CTESIM_EXPECTS(options.dvfs.freq_scale > 0.0 &&
                 options.dvfs.freq_scale <= 1.0);
  CTESIM_EXPECTS(options.power_cap_w >= 0.0);
  // A cap (and cap-driven downclocking) is meaningless without coefficients.
  CTESIM_EXPECTS(options.power_cap_w <= 0.0 || options.power != nullptr);
  CTESIM_EXPECTS(!options.dvfs_backfill || options.power != nullptr);
}

/// One run of the cluster over dense state: per-job slots, per-node holder
/// and degradation tables. Event callbacks capture `this` plus a slot or
/// fault index (and an epoch), nothing else.
class ClusterSim {
 public:
  ClusterSim(const RuntimeModel& model, const std::vector<Job>& jobs,
             const ClusterOptions& options)
      : model_(model), jobs_(jobs), options_(options), slots_(jobs.size()) {
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      slots_[i].record.job = jobs[i];
      slots_[i].record.attempts = 0;
      index_.emplace_back(jobs[i].id, static_cast<int>(i));
    }
    std::sort(index_.begin(), index_.end());
    for (std::size_t i = 1; i < index_.size(); ++i) {
      CTESIM_EXPECTS(index_[i - 1].first != index_[i].first);  // unique ids
    }
    holder_.assign(static_cast<std::size_t>(total_nodes_), -1);
    degradations_.resize(holder_.size());
    if (rec_) engine_.set_recorder(rec_);
  }

  // Engine callbacks hold `this`.
  ClusterSim(const ClusterSim&) = delete;
  ClusterSim& operator=(const ClusterSim&) = delete;

  ClusterResult run() {
    // Arrivals first, then faults: engine ties break by insertion order.
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
      engine_.schedule_at(sim::from_seconds(jobs_[i].arrival_s),
                          [this, slot = static_cast<int>(i)] {
                            enqueue(slot, false);
                          });
    }
    if (options_.faults) {
      const auto& events = options_.faults->events();
      for (std::size_t i = 0; i < events.size(); ++i) {
        engine_.schedule_at(sim::from_seconds(events[i].time_s),
                            [this, i] { on_fault(i); });
      }
    }
    engine_.run();
    result_.engine_events = engine_.events_processed();
    CTESIM_ENSURES(running_.empty());
    finish();
    return std::move(result_);
  }

 private:
  double now_s() const { return sim::to_seconds(engine_.now()); }
  Slot& at(int slot) { return slots_[static_cast<std::size_t>(slot)]; }

  int slot_of(int job_id) const {
    const auto it = std::lower_bound(index_.begin(), index_.end(),
                                     std::pair<int, int>(job_id, -1));
    CTESIM_ENSURES(it != index_.end() && it->first == job_id);
    return it->second;
  }

  // --- energy accounting ------------------------------------------------
  // The cluster draw is piecewise constant between events: running
  // attempts each contribute a constant per-node draw, every in-service
  // unallocated node draws the idle floor, drained nodes draw nothing.
  // advance_energy() integrates the standing draw up to `now` and must run
  // before any power-affecting state change (start, end, fail, repair);
  // repeated calls at one timestamp are no-ops.

  double cluster_draw_w() const {
    return cluster_cpu_w_ + cluster_mem_w_ + cluster_net_w_ +
           allocator_.free_nodes() * idle_node_w_;
  }

  void advance_energy() {
    if (!pm_) return;
    const double t = now_s();
    const double dt = t - last_power_t_;
    if (dt > 0.0) {
      energy_.cpu_j += cluster_cpu_w_ * dt;
      energy_.mem_j += cluster_mem_w_ * dt;
      energy_.net_j += cluster_net_w_ * dt;
      energy_.idle_j += allocator_.free_nodes() * idle_node_w_ * dt;
    }
    last_power_t_ = t;
  }

  /// Add (`sign` = +1) or remove (-1) an attempt's draw from the cluster.
  void shift_draw(const Attempt& a, int sign) {
    cluster_cpu_w_ += sign * (a.job.nodes * a.draw.cpu_w.value());
    cluster_mem_w_ += sign * (a.job.nodes * a.draw.mem_w.value());
    cluster_net_w_ += sign * (a.job.nodes * a.draw.net_w.value());
  }

  /// Would starting `job` at DVFS state `s` keep the cluster under the
  /// power cap? Estimated with the compact reference runtime — placement
  /// scatter only stretches the actual runtime, which can only *lower* the
  /// traffic-rate (memory) draw, so the estimate is an upper bound and the
  /// cap holds for whatever allocation the job ends up with.
  bool fits_cap(const Job& job, const power::DvfsState& s) const {
    const double est_runtime = model_.reference_runtime(job, s.freq_scale);
    const power::JobDraw d = power::job_draw(
        model_.machine().node, *pm_, s, model_.traffic_bytes_per_node(job),
        est_runtime, job.profile.comm_fraction);
    // The job's nodes stop drawing the idle floor when they go busy.
    const double delta_w = job.nodes * (d.total().value() - idle_node_w_);
    return cluster_draw_w() + delta_w <= options_.power_cap_w;
  }

  /// Record the machine state (and, when tracing, every counter).
  void sample() {
    const int busy = total_nodes_ - allocator_.free_nodes() -
                     allocator_.drained_count();
    const double power_w = pm_ ? cluster_draw_w() : 0.0;
    if (pm_) energy_.peak_w = std::max(energy_.peak_w, power_w);
    result_.frag_timeline.push_back({now_s(), allocator_.fragmentation(),
                                     busy, allocator_.drained_count(),
                                     power_w});
    if (!rec_) return;
    counter("batch", "queue_depth", static_cast<double>(queue_.size()));
    counter("batch", "busy_nodes", busy);
    counter("batch", "utilization", static_cast<double>(busy) / total_nodes_);
    counter("batch", "fragmentation", allocator_.fragmentation());
    counter("batch", "running_jobs", static_cast<double>(running_.size()));
    counter("fault", "down_nodes", allocator_.drained_count());
    counter("fault", "wasted_work", total_wasted_node_s_);
    counter("fault", "interrupted_jobs", total_interruptions_);
    if (pm_) {
      counter("power", "cluster_watts", power_w);
      counter("power", "energy_j",
              energy_.cpu_j + energy_.mem_j + energy_.net_j + energy_.idle_j);
      counter("power", "capped_jobs", energy_.capped_starts);
    }
  }

  void counter(const char* category, const char* name, double value) {
    rec_->counter(trace::Track::global(), category, name, engine_.now(),
                  value);
  }

  /// Progress rate of an attempt: degradation inflates the communication
  /// share of the runtime, exactly like placement scatter does.
  double rate_for(const Attempt& a) const {
    double f = 1.0;  // combined receive-degradation factor, 1 = healthy
    for (const int n : a.nodes) {
      for (const double x : degradations_[static_cast<std::size_t>(n)]) {
        f *= x;
      }
    }
    if (f >= 1.0) return 1.0;
    const double cf = a.job.profile.comm_fraction;
    return 1.0 / (1.0 + cf * (1.0 / f - 1.0));
  }

  void accrue(Attempt& a) const {
    const double t = now_s();
    a.eff_done_s = std::min(a.eff_required_s,
                            a.eff_done_s + a.rate * (t - a.last_update_s));
    a.last_update_s = t;
  }

  /// Schedule (or re-schedule after a rate change) the end of an attempt:
  /// completion when the remaining progress fits the wall-time budget, a
  /// wall-time kill otherwise. Stale events are voided by the epoch.
  void schedule_attempt_end(int slot) {
    Attempt& a = at(slot).attempt;
    a.epoch = ++next_epoch_;
    const double t = now_s();
    const double remaining = (a.eff_required_s - a.eff_done_s) / a.rate;
    // (start - t) + walltime, not (start + walltime) - t: at t == start the
    // former is exactly the wall-time request, bit-for-bit.
    const double until_kill = (a.start_s - t) + a.job.walltime_s;
    a.killed = remaining > until_kill;
    engine_.schedule_in(
        sim::from_seconds(std::max(0.0, a.killed ? until_kill : remaining)),
        [this, slot, epoch = a.epoch] { end_event(slot, epoch); });
  }

  /// A job enters the queue: on arrival, or after the requeue backoff.
  void enqueue(int slot, bool retry) {
    const Job& job = jobs_[static_cast<std::size_t>(slot)];
    if (rec_) {
      const auto track = trace::Track::job(job.id);
      if (retry) {
        rec_->instant(track, "fault", "requeue", "", engine_.now());
      } else {
        rec_->instant(track, "batch", "submit", job.profile.name,
                      engine_.now());
      }
      rec_->begin(track, "batch", "queued", job.profile.name, engine_.now());
    }
    queue_.push(job);
    try_start();
  }

  /// Start every job the queue, the free nodes and the power cap allow.
  void try_start() {
    advance_energy();
    while (true) {
      const int pos =
          queue_.next_startable(now_s(), allocator_.free_nodes(), running_);
      if (pos < 0) return;

      // Power-aware gate: the queue said the job fits the *nodes*; check it
      // also fits the *watts* before committing the allocation. An empty
      // machine is exempt — a head job that alone exceeds the cap must
      // still run eventually or the queue deadlocks.
      power::DvfsState dstate = options_.dvfs;
      bool downclocked = false;
      if (pm_ && options_.power_cap_w > 0.0 &&
          !(running_.empty() && pos == 0)) {
        const Job& candidate = queue_.at(pos);
        if (!fits_cap(candidate, dstate)) {
          if (options_.dvfs_backfill) {
            // Energy-aware backfill: walk the ladder below the configured
            // point and take the first (shallowest) state that fits —
            // deeper states draw strictly less, so the walk is monotone.
            for (const power::DvfsState& s : power::dvfs_states()) {
              if (s.freq_scale < dstate.freq_scale && fits_cap(candidate, s)) {
                dstate = s;
                downclocked = true;
                break;
              }
            }
          }
          if (!downclocked) {
            // Deferred, not rejected: re-evaluated when the next completion
            // or repair frees watts.
            ++energy_.capped_starts;
            return;
          }
        }
      }
      start_attempt(queue_.pop(pos), dstate, downclocked);
    }
  }

  void start_attempt(const Job& job, const power::DvfsState& dstate,
                     bool downclocked) {
    const double t = now_s();
    const int slot = slot_of(job.id);
    Slot& s = at(slot);
    Attempt a;
    a.job = job;
    a.nodes = allocator_.allocate(
        static_cast<std::uint64_t>(job.id), job.nodes, options_.placement,
        placement_seed(options_.seed, job.id, s.record.attempts));
    CTESIM_ENSURES(static_cast<int>(a.nodes.size()) == job.nodes);
    a.start_s = t;
    a.last_update_s = t;
    a.mean_hops = allocator_.mean_pairwise_hops(a.nodes);
    a.placement_slowdown = model_.slowdown(job, a.mean_hops);
    a.freq_scale = dstate.freq_scale;
    a.full_runtime_s = model_.runtime(job, a.mean_hops, dstate.freq_scale);
    a.work_s = (1.0 - s.done_fraction) * a.full_runtime_s;
    a.ckpt = fault::resolve(options_.checkpoint, fs_, job.nodes);
    a.restarting = s.record.attempts > 0;
    a.eff_required_s =
        fault::attempt_duration(a.work_s, a.ckpt, a.restarting);
    a.rate = rate_for(a);
    if (pm_) {
      a.draw = power::job_draw(model_.machine().node, *pm_, dstate,
                               model_.traffic_bytes_per_node(job),
                               a.full_runtime_s, job.profile.comm_fraction);
      shift_draw(a, +1);
      if (downclocked) ++energy_.downclocked_jobs;
    }
    if (s.record.attempts++ == 0) s.record.first_start_s = t;

    if (rec_) {
      const auto track = trace::Track::job(job.id);
      rec_->end(track, engine_.now());  // closes the "queued" span
      rec_->begin(track, "batch", "run",
                  std::string(job.profile.name) + " " +
                      std::to_string(job.nodes) + " nodes" +
                      (a.restarting ? " (retry)" : ""),
                  engine_.now());
    }
    for (const int n : a.nodes) holder_[static_cast<std::size_t>(n)] = slot;
    running_.push_back({job.id, t + job.walltime_s, job.nodes});
    s.attempt = std::move(a);
    schedule_attempt_end(slot);
    sample();
  }

  /// An attempt's scheduled end fired: completion or wall-time kill,
  /// unless a later reschedule (new epoch) or a failure voided it.
  void end_event(int slot, std::uint64_t epoch) {
    const Attempt& a = at(slot).attempt;
    if (a.epoch != epoch) return;
    advance_energy();
    const EndReason reason =
        a.killed ? EndReason::kWalltimeKilled : EndReason::kCompleted;
    end_attempt(slot, reason);
    if (a.killed) {
      CTESIM_WARN << "batch: job " << a.job.id << " wall-time killed at "
                  << a.job.walltime_s << " s (needed " << a.eff_required_s
                  << " s, overran its request by "
                  << 100.0 * (a.eff_required_s / a.job.walltime_s - 1.0)
                  << "%)";
    }
    if (rec_) {
      rec_->instant(trace::Track::job(a.job.id), "batch",
                    a.killed ? "killed" : "finish", "", engine_.now());
    }
    finalize(slot, a, reason);
    sample();
    try_start();
  }

  /// Close the books on a live attempt — node-seconds, energy, the trace
  /// "run" span, the cluster draw — and release its nodes. The attempt's
  /// fields stay readable for finalize().
  void end_attempt(int slot, EndReason how) {
    Slot& s = at(slot);
    Attempt& a = s.attempt;
    JobRecord& r = s.record;
    accrue(a);
    const double elapsed = now_s() - a.start_s;
    // Per node: a completed attempt's work all counts, a killed one's
    // none, an interrupted one's up to its last checkpoint.
    double useful_s = how == EndReason::kCompleted ? a.work_s : 0.0;
    if (how == EndReason::kNodeFailure) {
      useful_s = fault::preserved_work(a.eff_done_s, a.work_s, a.ckpt,
                                       a.restarting);
      s.done_fraction += useful_s / a.full_runtime_s;
      ++r.interruptions;
      ++total_interruptions_;
    }
    const double wasted_s =
        how == EndReason::kCompleted ? 0.0 : elapsed - useful_s;
    r.busy_node_s += elapsed * a.job.nodes;
    r.useful_node_s += useful_s * a.job.nodes;
    r.wasted_node_s += wasted_s * a.job.nodes;
    total_wasted_node_s_ += wasted_s * a.job.nodes;
    if (pm_) {
      const double attempt_j = a.job.nodes * a.draw.total().value() * elapsed;
      // A killed attempt wastes exactly attempt_j (attempt_j * elapsed /
      // elapsed need not round back to it); an interrupted one wastes the
      // share of its time the checkpoint did not preserve.
      double wasted_j = 0.0;
      if (how == EndReason::kWalltimeKilled) {
        wasted_j = attempt_j;
      } else if (how == EndReason::kNodeFailure && elapsed > 0.0) {
        wasted_j = attempt_j * wasted_s / elapsed;
      }
      r.energy_j += attempt_j;
      r.wasted_energy_j += wasted_j;
      energy_.wasted_j += wasted_j;
      shift_draw(a, -1);
    }
    if (rec_) rec_->end(trace::Track::job(a.job.id), engine_.now());  // "run"
    allocator_.release(static_cast<std::uint64_t>(a.job.id));
    for (const int n : a.nodes) holder_[static_cast<std::size_t>(n)] = -1;
    running_.erase(std::find_if(
        running_.begin(), running_.end(),
        [id = a.job.id](const Reservation& res) { return res.job_id == id; }));
    a.epoch = 0;
  }

  /// The job is done for good: stamp its final attempt onto its record.
  void finalize(int slot, const Attempt& a, EndReason reason) {
    JobRecord& r = at(slot).record;
    r.start_s = a.start_s;
    r.end_s = now_s();
    r.alloc_nodes = a.nodes;
    r.mean_hops = a.mean_hops;
    r.placement_slowdown = a.placement_slowdown;
    r.end_reason = reason;
    r.dvfs_freq_scale = a.freq_scale;
    ++finalized_;
  }

  void on_fault(std::size_t index) {
    const fault::FaultEvent& e = options_.faults->events()[index];
    if (e.kind == fault::FaultKind::kNodeFail) {
      on_node_fail(e.node);
    } else if (e.kind == fault::FaultKind::kNodeRepair) {
      on_node_repair(e.node);
    } else {
      on_degradation(e);
    }
  }

  /// A node died: interrupt its job (restart from the last checkpoint,
  /// requeue within the retry budget) and drain the node from service.
  void on_node_fail(int node) {
    advance_energy();
    const int victim = holder_[static_cast<std::size_t>(node)];
    if (victim >= 0) {
      end_attempt(victim, EndReason::kNodeFailure);
      const Slot& s = at(victim);
      if (rec_) {
        rec_->instant(trace::Track::job(s.record.job.id), "fault",
                      "node_failure", "node " + std::to_string(node),
                      engine_.now());
      }
      if (s.record.attempts > options_.max_retries) {
        finalize(victim, s.attempt, EndReason::kNodeFailure);
      } else {
        engine_.schedule_in(sim::from_seconds(options_.requeue_backoff_s),
                            [this, victim] { enqueue(victim, true); });
      }
    }
    allocator_.drain(node);
    if (rec_) {
      const auto track = trace::Track::node(node);
      rec_->instant(track, "fault", "fail", "", engine_.now());
      rec_->begin(track, "fault", "down", "", engine_.now());
    }
    sample();
  }

  void on_node_repair(int node) {
    advance_energy();
    allocator_.return_to_service(node);
    if (rec_) {
      const auto track = trace::Track::node(node);
      rec_->end(track, engine_.now());  // closes the "down" span
      rec_->instant(track, "fault", "repair", "", engine_.now());
    }
    sample();
    try_start();
  }

  /// A degradation window opened or closed on a node: recompute the
  /// progress rate of the job holding it (if any) and reschedule its end.
  void on_degradation(const fault::FaultEvent& e) {
    const bool start = e.kind == fault::FaultKind::kDegradeStart;
    auto& factors = degradations_[static_cast<std::size_t>(e.node)];
    if (start) {
      factors.push_back(e.factor);
    } else {
      const auto it = std::find(factors.begin(), factors.end(), e.factor);
      CTESIM_EXPECTS(it != factors.end());
      factors.erase(it);
    }
    if (rec_) {
      rec_->instant(trace::Track::node(e.node), "fault",
                    start ? "degrade_start" : "degrade_end",
                    std::to_string(e.factor), engine_.now());
    }
    const int slot = holder_[static_cast<std::size_t>(e.node)];
    if (slot < 0) return;
    Attempt& a = at(slot).attempt;
    accrue(a);
    a.rate = rate_for(a);
    schedule_attempt_end(slot);
  }

  void finish() {
    // Jobs still queued when every event has drained can never run: the
    // failed (and never repaired) part of the machine left too few
    // in-service nodes. They end as node-failure casualties at the final
    // time.
    while (!queue_.empty()) {
      const Job job = queue_.pop(0);
      if (rec_) {
        const auto track = trace::Track::job(job.id);
        rec_->end(track, engine_.now());  // closes the "queued" span
        rec_->instant(track, "fault", "abandoned", "machine too small",
                      engine_.now());
      }
      Attempt never_placed;
      never_placed.start_s = now_s();
      finalize(slot_of(job.id), never_placed, EndReason::kNodeFailure);
    }
    // Close the "down" span of nodes that never came back.
    for (int n = 0; rec_ && n < total_nodes_; ++n) {
      if (allocator_.is_drained(n)) {
        rec_->end(trace::Track::node(n), engine_.now());
      }
    }
    CTESIM_ENSURES(finalized_ == jobs_.size());

    std::vector<JobRecord>& records = result_.records;
    records.reserve(jobs_.size());
    double first_arrival = std::numeric_limits<double>::infinity();
    double last_end = 0.0;
    for (const auto& [id, slot] : index_) {  // records in job id order
      JobRecord& r = at(slot).record;
      first_arrival = std::min(first_arrival, r.job.arrival_s);
      last_end = std::max(last_end, r.end_s);
      records.push_back(std::move(r));
    }
    result_.makespan_s = records.empty() ? 0.0 : last_end - first_arrival;
    if (pm_) {
      // Integration stopped at the last event; the machine idles forever
      // after, so the window is exactly [0, last event].
      energy_.total_j =
          energy_.cpu_j + energy_.mem_j + energy_.net_j + energy_.idle_j;
      result_.has_power = true;
      result_.energy = energy_;
    }
  }

  const RuntimeModel& model_;
  const std::vector<Job>& jobs_;
  const ClusterOptions& options_;
  const int total_nodes_ = model_.machine().num_nodes;
  sim::Engine engine_;
  sched::Allocator allocator_{model_.topology()};
  JobQueue queue_{options_.queue, total_nodes_};
  const io::FilesystemModel fs_ = io::production_filesystem(model_.machine());
  trace::Recorder* const rec_ =  // nullptr: tracing off
      options_.recorder && options_.recorder->enabled() ? options_.recorder
                                                        : nullptr;
  const power::PowerModel* const pm_ = options_.power;  // nullptr: no energy
  const double idle_node_w_ =
      pm_ ? pm_->node_idle(model_.machine().node).value() : 0.0;

  std::vector<Slot> slots_;                 ///< by position in jobs_
  std::vector<std::pair<int, int>> index_;  ///< (job id, slot), sorted
  std::vector<int> holder_;                 ///< node -> slot, or -1
  std::vector<std::vector<double>> degradations_;  ///< node -> open factors
  std::vector<Reservation> running_;        ///< one per live attempt
  std::size_t finalized_ = 0;
  std::uint64_t next_epoch_ = 0;
  double total_wasted_node_s_ = 0.0;
  int total_interruptions_ = 0;
  double cluster_cpu_w_ = 0.0;
  double cluster_mem_w_ = 0.0;
  double cluster_net_w_ = 0.0;
  double last_power_t_ = 0.0;
  EnergyTotals energy_;
  ClusterResult result_;
};

}  // namespace

ClusterResult run_cluster(const RuntimeModel& model,
                          const std::vector<Job>& jobs,
                          const ClusterOptions& options) {
  validate(model, jobs, options);
  return ClusterSim(model, jobs, options).run();
}

}  // namespace ctesim::batch
