#include "loadgen.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <thread>

#include "span_log.h"
#include "util/rng.h"

namespace simbench {

namespace {

void sleep_until_ns(std::int64_t t_ns) {
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(t_ns)));
}

std::vector<Sample> merge(std::vector<std::vector<Sample>>& per_conn) {
  std::vector<Sample> all;
  for (auto& v : per_conn) {
    for (auto& s : v) all.push_back(std::move(s));
  }
  std::sort(all.begin(), all.end(),
            [](const Sample& a, const Sample& b) { return a.index < b.index; });
  return all;
}

}  // namespace

std::vector<std::int64_t> poisson_offsets_ns(std::uint64_t seed,
                                             double rate_per_s,
                                             std::size_t count) {
  ctesim::Rng rng(seed);
  std::vector<std::int64_t> offsets;
  double t = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    t += -std::log(1.0 - rng.uniform()) / rate_per_s;
    offsets.push_back(static_cast<std::int64_t>(t * 1e9));
  }
  return offsets;
}

std::vector<Sample> open_loop(const std::vector<std::int64_t>& offsets_ns,
                              const LineFn& line_of, int connections,
                              const SendFn& send) {
  std::atomic<std::size_t> next{0};
  std::vector<std::vector<Sample>> per_conn(
      static_cast<std::size_t>(connections));
  const std::int64_t start = now_ns() + 2'000'000;  // let threads start
  std::vector<std::thread> threads;
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      for (;;) {
        const std::size_t k = next.fetch_add(1);
        if (k >= offsets_ns.size()) return;
        Sample s;
        s.index = k;
        s.due_ns = start + offsets_ns[k];
        const std::string line = line_of(k);
        sleep_until_ns(s.due_ns);
        s.sent_ns = std::max(now_ns(), s.due_ns);
        s.delivered = send(c, line, &s.reply);
        s.done_ns = now_ns();
        per_conn[static_cast<std::size_t>(c)].push_back(std::move(s));
      }
    });
  }
  for (auto& t : threads) t.join();
  return merge(per_conn);
}

std::vector<Sample> closed_loop(double seconds, std::uint64_t first_index,
                                const LineFn& line_of, int connections,
                                const SendFn& send) {
  std::atomic<std::uint64_t> next{first_index};
  std::vector<std::vector<Sample>> per_conn(
      static_cast<std::size_t>(connections));
  const std::int64_t end = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      while (now_ns() < end) {
        Sample s;
        s.index = next.fetch_add(1);
        const std::string line = line_of(s.index);
        s.sent_ns = s.due_ns = now_ns();
        s.delivered = send(c, line, &s.reply);
        s.done_ns = now_ns();
        per_conn[static_cast<std::size_t>(c)].push_back(std::move(s));
      }
    });
  }
  for (auto& t : threads) t.join();
  return merge(per_conn);
}

}  // namespace simbench
