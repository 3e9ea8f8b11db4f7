// Optional link-level congestion model.
//
// The base Network::transfer is contention-free (each transfer sees the
// full link bandwidth). CongestionModel adds shared-link serialization: a
// message occupies every directed link of its dimension-order route in
// sequence, and a link busy with an earlier message delays later ones.
// This captures the first-order effect of concurrent traffic (e.g. an
// alltoall squeezing through the torus) without per-packet simulation.
//
// The model is stateful in simulated time: the MPI runtime passes the
// current time of each injection and receives the arrival time back.
#pragma once

#include <compare>
#include <cstdint>
#include <map>
#include <vector>

#include "net/network.h"
#include "util/time.h"

namespace ctesim::trace {
class Recorder;
}

namespace ctesim::net {

/// A directed link of the torus/fat-tree, identified by (node, dimension,
/// direction) for tori and (node, level) for the fat-tree's up/down pair.
struct LinkId {
  std::int32_t node = 0;
  std::int16_t dim = 0;
  std::int16_t dir = 0;  ///< +1 / -1

  // Totally ordered so link state can live in deterministic ordered maps
  // (iteration order must not depend on a hash seed — it feeds trace
  // counters and, transitively, event ordering).
  auto operator<=>(const LinkId&) const = default;
};

class CongestionModel {
 public:
  explicit CongestionModel(const Network& network);

  /// Arrival time of a message injected at `now`, accounting for the
  /// busy state of every link along the route. Updates the link state.
  sim::Time transfer_at(int src, int dst, std::uint64_t bytes, sim::Time now);

  /// The directed links a message traverses (dimension-order routing on
  /// tori; a stylized up/down pair on fat-trees).
  std::vector<LinkId> route(int src, int dst) const;

  /// Cumulative time messages spent queuing behind busy links.
  double total_queueing_seconds() const { return queueing_s_; }

  /// Forget all link state (e.g. between independent experiments).
  void reset();

  /// Stream link-utilization counters onto `recorder`'s global track
  /// (category "net"): cumulative queueing seconds and the number of links
  /// busy at each injection. Pass nullptr to detach.
  void set_recorder(trace::Recorder* recorder) { recorder_ = recorder; }

 private:
  const Network* network_;
  // Ordered map: transfer_at iterates this to derive recorder counters, so
  // the walk must be reproducible across runs and standard libraries.
  std::map<LinkId, sim::Time> busy_until_;
  double queueing_s_ = 0.0;
  trace::Recorder* recorder_ = nullptr;
};

}  // namespace ctesim::net
