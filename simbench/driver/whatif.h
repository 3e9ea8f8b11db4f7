// The request mix of the `whatif` workload and the checks on its replies.
//
// Request k of a seed is a pure function of (seed, k): 70% repeats of a
// 16-request hot set, 20% distinct exact simulate requests (jobs 100-200,
// placement, queue, dvfs_state, power_cap_w varied), 5% ping/stats and
// 5% malformed or out-of-range lines that must get a typed bad_request.
// The proportions hold in every block of 20 requests, and the distinct
// requests are one balanced design that the seed only reorders, so that
// runs with different seeds offer the same load.
// Sampled-mode requests are not in the mix (one takes ~30 s), and neither
// is any deeply nested JSON line (see README.md).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "loadgen.h"
#include "span_log.h"

namespace ctesim::server {
class Client;
class Service;
class TcpServer;
}  // namespace ctesim::server

namespace simbench {

enum class Kind { kHot, kDistinct, kPing, kStats, kBad };

struct MixItem {
  Kind kind = Kind::kPing;
  int hot = -1;   ///< hot-set index for kHot
  int jobs = 0;   ///< requested jobs for simulate requests
  std::string line;
};

class WhatifMix {
 public:
  static constexpr int kHotSet = 16;

  explicit WhatifMix(std::uint64_t seed);

  MixItem at(std::uint64_t k) const;
  const std::vector<MixItem>& hot() const { return hot_; }

  /// Seed-independent requests whose reply bytes are recorded once and
  /// compared on every run.
  static std::vector<MixItem> golden();

 private:
  std::vector<int> shuffled(std::uint64_t salt, std::uint64_t block,
                            int n) const;

  std::uint64_t seed_;
  std::uint64_t offset_;  ///< seed-chosen rotation of the malformed lines
  std::vector<MixItem> hot_;
};

/// Checks replies against their requests. Not thread-safe: feed it after
/// the load generator has joined.
class ReplyChecker {
 public:
  /// Returns false (and counts a failure) when the reply is wrong, is an
  /// overloaded/timeout/internal error, or never arrived.
  bool check(const MixItem& item, bool delivered, const std::string& reply);

  int failures() const { return failures_; }
  int checked() const { return checked_; }
  /// (request hash, reply hash) of every simulate reply seen.
  const std::map<std::uint64_t, std::uint64_t>& replies() const {
    return replies_;
  }

 private:
  int failures_ = 0;
  int checked_ = 0;
  std::map<int, std::string> hot_first_;
  std::map<std::uint64_t, std::uint64_t> replies_;
};

/// An in-process Service behind a loopback TcpServer, with one client per
/// load-generator connection.
struct Endpoint {
  std::unique_ptr<ctesim::server::Service> service;
  std::unique_ptr<ctesim::server::TcpServer> tcp;
  std::vector<std::unique_ptr<ctesim::server::Client>> clients;

  ~Endpoint();
};

std::unique_ptr<Endpoint> start_endpoint(int workers, int connections);

/// Sends on the endpoint's clients; with logs (one per connection), each
/// request is a "loadgen.request" span.
SendFn tcp_sender(Endpoint& endpoint, std::vector<SpanLog>* logs);

}  // namespace simbench
