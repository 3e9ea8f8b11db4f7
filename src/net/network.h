// Inter-node network: topology + LogGP-style transfer model + fault
// injection. The model of one point-to-point transfer:
//
//   latency = base + hops * per_hop (+ rendezvous handshake above the eager
//             threshold)
//   bw      = link_bw * eff * (1 - hop_penalty)^hops * fault_factor * jitter
//   time    = latency + bytes / bw
//
// Deterministic per-pair jitter (hash of the endpoints) stands in for the
// static heterogeneity a production fabric shows (cable quality, adapter
// binning) and gives Fig. 4/5 their realistic texture.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <vector>

#include "arch/machine.h"
#include "net/topology.h"

namespace ctesim::net {

/// One transfer's predicted behaviour.
struct Transfer {
  double time_s = 0.0;
  double latency_s = 0.0;
  double bandwidth = 0.0;  ///< effective bytes/s including latency
  int hops = 0;
  bool rendezvous = false;
};

class Network {
 public:
  /// Builds the topology described by `spec` for `num_nodes` nodes.
  Network(const arch::InterconnectSpec& spec, int num_nodes);

  const Topology& topology() const { return *topology_; }
  const arch::InterconnectSpec& spec() const { return spec_; }
  int num_nodes() const { return topology_->num_nodes(); }

  /// Open a receive-side degradation window [start_s, end_s) on `node`
  /// with bandwidth factor `factor` (0,1], evaluated against the time
  /// passed to transfer(). Omitting both times degrades the node for the
  /// whole run — the weak node arms0b1-11c of Fig. 4, which underperforms
  /// only as a receiver.
  /// Windows may overlap (factors compose multiplicatively); they stack
  /// with — rather than replace — previous windows on the node.
  void add_recv_degradation(int node, double factor, double start_s = 0.0,
                            double end_s =
                                std::numeric_limits<double>::infinity());

  /// Remove all injected faults.
  void clear_faults();

  /// Amplitude of the deterministic per-pair bandwidth jitter (default 3%).
  void set_jitter(double amplitude) { jitter_amplitude_ = amplitude; }

  /// Predict one point-to-point transfer between two *different* nodes at
  /// simulated time `now_s` (degradation windows active at that instant
  /// apply; the default 0.0 keeps time-free callers on the state at the
  /// start of the run).
  Transfer transfer(int src, int dst, std::uint64_t bytes,
                    double now_s = 0.0) const;

 private:
  /// One receive-path degradation window on a node.
  struct DegradationWindow {
    double start_s = 0.0;
    double end_s = 0.0;  ///< exclusive; +infinity = open-ended
    double factor = 1.0;
  };

  double pair_jitter(int src, int dst) const;
  /// Combined receive factor of `node` at `now_s` (1.0 when healthy).
  double recv_factor(int node, double now_s) const;

  arch::InterconnectSpec spec_;
  std::unique_ptr<Topology> topology_;
  // Ordered by node id so any future walk over the fault set (reports,
  // serialization) is deterministic.
  std::map<int, std::vector<DegradationWindow>> recv_degradation_;
  double jitter_amplitude_ = 0.03;
};

}  // namespace ctesim::net
