// Fault events and timelines: the vocabulary of the resilience subsystem.
//
// The paper's Fig. 4 sweep caught a real production fault (the weak
// receiver arms0b1-11c) — but a production evaluation needs more than one
// static sick node: nodes crash and come back, links degrade for a while
// and recover, and the batch scheduler has to live through all of it. A
// FaultTimeline is the deterministic script of such operational events,
// either written by hand (reproducing a known incident) or drawn from the
// seeded MTBF models in fault/mtbf.h. The batch runtime replays the
// timeline through the discrete-event engine (batch::run_cluster); the
// degradation windows can also be installed directly on a net::Network for
// measurement-style studies (examples/network_fault_study.cpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace ctesim::net {
class Network;
}

namespace ctesim::fault {

enum class FaultKind : std::uint8_t {
  kNodeFail,      ///< node crashes and leaves service instantly
  kNodeRepair,    ///< node returns to service
  kDegradeStart,  ///< a receive-path degradation window opens on a node
  kDegradeEnd,    ///< ... and closes again
};

const char* name_of(FaultKind kind);

struct FaultEvent {
  double time_s = 0.0;
  FaultKind kind = FaultKind::kNodeFail;
  int node = 0;
  /// Receive-path bandwidth factor in (0, 1] for kDegradeStart; unused
  /// otherwise. 1.0 would be a no-op window.
  double factor = 1.0;

  bool operator==(const FaultEvent&) const = default;
};

/// An ordered script of fault events. Building is order-free: events()
/// always returns the script sorted by time (stable — insertion order
/// breaks ties), so two timelines built from the same facts are identical.
class FaultTimeline {
 public:
  /// Node leaves service at `time_s`. A job running there is interrupted.
  void fail(double time_s, int node);

  /// Node returns to service at `time_s` (must currently be failed).
  void repair(double time_s, int node);

  /// Receive-path degradation window [start_s, end_s) on `node` with
  /// bandwidth factor `factor` in (0, 1] — the batch-runtime counterpart of
  /// net::Network::add_recv_degradation. Windows may overlap; factors
  /// compose multiplicatively.
  void degrade_recv(double start_s, double end_s, int node, double factor);

  /// Events sorted ascending by time (stable within equal times).
  const std::vector<FaultEvent>& events() const;

  bool empty() const { return events_.empty(); }
  std::size_t size() const { return events_.size(); }

  /// Last event time (0 for an empty timeline).
  double horizon_s() const;

  /// Structural problems for a machine of `num_nodes` nodes: out-of-range
  /// nodes, negative times, factors outside (0, 1], a repair without a
  /// preceding failure, a double failure, an unmatched degradation end.
  /// Empty vector = consistent.
  std::vector<std::string> validate(int num_nodes) const;

  /// Throws std::invalid_argument listing every problem if any.
  void validate_or_throw(int num_nodes) const;

 private:
  // Lazily re-sorted on access so callers can interleave builders freely.
  mutable std::vector<FaultEvent> events_;
  mutable bool sorted_ = true;
};

/// Install every degradation window of `timeline` onto `network` as timed
/// recv-degradation windows (node failures/repairs are batch-runtime
/// concerns and are ignored here). The network evaluates the windows
/// against the time passed to Network::transfer.
void apply_recv_degradations(const FaultTimeline& timeline,
                             net::Network* network);

}  // namespace ctesim::fault
