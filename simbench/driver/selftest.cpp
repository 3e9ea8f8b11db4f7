// Self-tests run by tests/test_driver.py through `simbench_driver selftest`:
// the open-loop schedule charges latency from each request's due time and
// reports how late the send was, and the output checks catch a perturbed
// campaign record or reply.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>

#include "campaign.h"
#include "loadgen.h"
#include "server/protocol.h"
#include "whatif.h"

namespace {

int g_failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ++g_failures;
  }
}

simbench::SendFn sleeping_send(int ms) {
  return [ms](int, const std::string& line, std::string* reply) {
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    *reply = line;
    return true;
  };
}

}  // namespace

int run_selftest() {
  using namespace simbench;
  const LineFn line_of = [](std::uint64_t k) { return std::to_string(k); };

  // One connection, a 20 ms server and arrivals every 5 ms: request k
  // cannot be sent before ~20k ms, so it is ~15k ms late and its latency,
  // counted from the due time, includes that wait.
  {
    std::vector<std::int64_t> offsets;
    for (int k = 0; k < 8; ++k) offsets.push_back(k * 5'000'000LL);
    const auto samples = open_loop(offsets, line_of, 1, sleeping_send(20));
    expect(samples.size() == 8, "open loop sends every scheduled request");
    for (const Sample& s : samples) {
      const double k = static_cast<double>(s.index);
      expect(s.reply == std::to_string(s.index), "replies match requests");
      expect(s.due_ns == samples[0].due_ns + static_cast<std::int64_t>(k * 5e6),
             "due times follow the schedule");
      expect(s.lateness_ms() >= 15.0 * k - 1.0, "lateness is reported");
      expect(s.latency_ms() >= s.lateness_ms() + 19.0,
             "latency runs from the due time, not the send time");
    }
  }
  // Enough connections for the load: nothing waits for a connection. The
  // medians allow for a wake-up that a busy host delays now and then.
  {
    std::vector<std::int64_t> offsets;
    for (int k = 0; k < 10; ++k) offsets.push_back(k * 10'000'000LL);
    const auto samples = open_loop(offsets, line_of, 2, sleeping_send(1));
    std::vector<double> late, latency;
    for (const Sample& s : samples) {
      late.push_back(s.lateness_ms());
      latency.push_back(s.latency_ms());
    }
    std::sort(late.begin(), late.end());
    std::sort(latency.begin(), latency.end());
    expect(late[late.size() / 2] < 2.0, "an idle generator is on time");
    expect(latency[latency.size() / 2] < 10.0,
           "latency of an idle server is its service time");
  }
  // Poisson offsets: deterministic per seed, increasing, right mean gap.
  {
    const auto a = poisson_offsets_ns(7, 50.0, 4000);
    const auto b = poisson_offsets_ns(7, 50.0, 4000);
    const auto c = poisson_offsets_ns(8, 50.0, 4000);
    expect(a == b, "same seed, same schedule");
    expect(a != c, "another seed, another schedule");
    bool increasing = true;
    for (std::size_t i = 1; i < a.size(); ++i) increasing &= a[i] >= a[i - 1];
    expect(increasing, "offsets never go back in time");
    const double mean_gap_s = a.back() / 1e9 / static_cast<double>(a.size());
    expect(std::abs(mean_gap_s - 0.02) < 0.002, "mean gap is 1/rate");
  }
  // Closed loop keeps every connection busy until time is up.
  {
    const auto samples = closed_loop(0.2, 100, line_of, 4, sleeping_send(10));
    expect(samples.size() >= 40 && samples.size() <= 100,
           "closed loop runs back to back on every connection");
    expect(!samples.empty() && samples[0].index == 100,
           "closed-loop requests are numbered from first_index");
  }
  // A perturbed campaign output changes the digest.
  {
    const CampaignSet set = make_campaigns(false, 1, 1);
    const auto options =
        campaign_options(set, 0, sched::Policy::kContiguous, true);
    const batch::ClusterResult result =
        batch::run_cluster(*set.model, set.streams[0], options);
    const std::uint64_t clean = digest(result);
    expect(check_result(result, set.streams[0], true) == 0,
           "a real campaign passes the seed-independent checks");
    expect(digest(batch::run_cluster(*set.model, set.streams[0], options)) ==
               clean,
           "a replayed campaign has the same digest");
    batch::ClusterResult bad = result;
    bad.records[10].end_s = std::nextafter(bad.records[10].end_s, 1e30);
    expect(digest(bad) != clean, "one ulp in one JobRecord changes the digest");
    bad = result;
    bad.energy.idle_j *= 1.0 + 1e-12;
    expect(digest(bad) != clean, "perturbed EnergyTotals change the digest");
    bad = result;
    bad.engine_events += 1;
    expect(digest(bad) != clean, "the engine event count is in the digest");
    bad = result;
    bad.records.pop_back();
    expect(check_result(bad, set.streams[0], true) != 0,
           "a lost job fails the seed-independent checks");
  }
  // Reply checks: a changed repeat of a hot request and an untyped error
  // both fail; the typed bad_request passes.
  {
    const WhatifMix mix(1);
    const MixItem& hot = mix.hot()[0];
    const std::string reply =
        R"({"op":"simulate","status":"ok","metrics":{"jobs":)" +
        std::to_string(hot.jobs) + "}}";
    ReplyChecker checker;
    expect(checker.check(hot, true, reply), "a well-formed simulate reply passes");
    expect(checker.check(hot, true, reply), "an identical repeat passes");
    std::string changed = reply;
    changed.insert(changed.size() - 2, " ");
    expect(!checker.check(hot, true, changed),
           "a repeat with different bytes fails");
    const MixItem bad_line{Kind::kBad, -1, 0, "not json"};
    expect(checker.check(bad_line, true,
                         server::error_reply("bad_request", "x")),
           "a typed bad_request passes");
    expect(!checker.check(bad_line, true, server::error_reply("internal", "x")),
           "an internal error fails");
    expect(!checker.check(hot, false, ""), "a dropped connection fails");
    expect(checker.failures() == 3, "failures are counted");
  }
  if (g_failures == 0) std::printf("selftest ok\n");
  return g_failures == 0 ? 0 : 1;
}
