// Load generator for the `whatif` workload: one process, at most four
// connections, each driven by its own thread.
//
// Open loop: request k is due at start + offsets[k] (seeded Poisson
// arrivals at a fixed rate) whether or not earlier replies came back. Its
// latency runs from the due time, not the send time, so a request that
// waited for a free connection is charged for the wait (no coordinated
// omission); the wait itself is reported as lateness.
// Closed loop: every connection sends back to back until time is up.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace simbench {

struct Sample {
  std::uint64_t index = 0;
  std::int64_t due_ns = 0;   ///< open loop: scheduled time; closed: = sent
  std::int64_t sent_ns = 0;
  std::int64_t done_ns = 0;
  bool delivered = false;
  std::string reply;

  double latency_ms() const { return (done_ns - due_ns) / 1e6; }
  double lateness_ms() const { return (sent_ns - due_ns) / 1e6; }
};

/// Sends one line on connection `conn` and stores the reply; false when
/// the connection failed.
using SendFn =
    std::function<bool(int conn, const std::string& line, std::string* reply)>;
using LineFn = std::function<std::string(std::uint64_t index)>;

/// Offsets (ns from the start) of `count` Poisson arrivals at `rate_per_s`.
std::vector<std::int64_t> poisson_offsets_ns(std::uint64_t seed,
                                             double rate_per_s,
                                             std::size_t count);

std::vector<Sample> open_loop(const std::vector<std::int64_t>& offsets_ns,
                              const LineFn& line_of, int connections,
                              const SendFn& send);

/// Requests are numbered from `first_index` on.
std::vector<Sample> closed_loop(double seconds, std::uint64_t first_index,
                                const LineFn& line_of, int connections,
                                const SendFn& send);

}  // namespace simbench
